#include "apps/scenario_adapters.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <vector>

#include "apps/federation.h"
#include "nal/parser.h"
#include "nal/proof.h"
#include "net/transport.h"
#include "tpm/tpm.h"
#include "util/rng.h"

namespace nexus::apps {

ScenarioSpec FauxbookScenario() {
  ScenarioSpec spec;
  spec.name = "fauxbook";
  spec.read_op = "read_post";
  spec.write_op = "post";
  spec.object_prefix = "fb:post:";
  spec.certifier = "FauxbookCA";
  spec.credential = "member(fauxbook)";
  spec.allow_goal = "FauxbookCA says member(fauxbook)";
  spec.deny_goal = "FauxbookCA says banned(fauxbook)";
  spec.interposed = false;
  return spec;
}

ScenarioSpec DdrmScenario() {
  ScenarioSpec spec;
  spec.name = "ddrm";
  spec.read_op = "recv";
  spec.write_op = "send";
  spec.object_prefix = "nic:buf:";
  spec.certifier = "DriverMonitor";
  spec.credential = "mediated(driver)";
  spec.allow_goal = "DriverMonitor says mediated(driver)";
  spec.deny_goal = "DriverMonitor says quarantined(driver)";
  spec.interposed = true;  // The whole point: calls traverse a real DDRM.
  return spec;
}

ScenarioSpec MoviePlayerScenario() {
  ScenarioSpec spec;
  spec.name = "movie_player";
  spec.read_op = "play";
  spec.write_op = "transcode";
  spec.object_prefix = "movie:";
  spec.certifier = "Studio";
  spec.credential = "licensed(player)";
  spec.allow_goal = "Studio says licensed(player)";
  spec.deny_goal = "Studio says revoked(player)";
  spec.interposed = true;  // DRM-style mediation on the playback port.
  return spec;
}

ScenarioSpec TrudocsScenario() {
  ScenarioSpec spec;
  spec.name = "trudocs";
  spec.read_op = "excerpt";
  spec.write_op = "redact";
  spec.object_prefix = "doc:";
  spec.certifier = "Registrar";
  spec.credential = "cleared(analyst)";
  spec.allow_goal = "Registrar says cleared(analyst)";
  spec.deny_goal = "Registrar says embargoed(analyst)";
  spec.interposed = false;
  return spec;
}

ScenarioSpec FederationScenario() {
  ScenarioSpec spec;
  spec.name = "federation";
  spec.read_op = "fed_read";
  spec.write_op = "fed_post";
  spec.object_prefix = "fed:obj:";
  spec.certifier = "HomeCA";
  spec.credential = "present(user)";
  spec.allow_goal = "HomeCA says present(user)";
  spec.deny_goal = "HomeCA says absent(user)";
  spec.interposed = false;
  // Every engine miss must cross the fabric: the goal carries a session-
  // liveness conjunct only a K-of-N quorum of home instances can vouch.
  spec.authority_leaf = "Session says sessionActive(fleet)";
  spec.federation_homes = 3;
  spec.federation_quorum = 2;
  return spec;
}

Result<ScenarioSpec> ScenarioByName(std::string_view name) {
  if (name == "fauxbook") {
    return FauxbookScenario();
  }
  if (name == "ddrm") {
    return DdrmScenario();
  }
  if (name == "movie_player") {
    return MoviePlayerScenario();
  }
  if (name == "trudocs") {
    return TrudocsScenario();
  }
  if (name == "federation") {
    return FederationScenario();
  }
  return InvalidArgument("unknown scenario: " + std::string(name));
}

std::vector<std::string> ScenarioNames() {
  return {"fauxbook", "ddrm", "movie_player", "trudocs", "federation"};
}

// The guarded service: every read/write IPC re-enters kernel
// authorization for (caller, op, object) exactly like the fileserver
// does, so one Call yields the full provenance chain the auditor checks —
// cache probe, engine miss, guard check, verdict, and the kCall event
// with the interposed flag when a monitor is installed.
class WorkloadScenario::GuardedObjectServer : public kernel::PortHandler {
 public:
  explicit GuardedObjectServer(kernel::Kernel* kernel) : kernel_(kernel) {}

  kernel::IpcReply Handle(const kernel::IpcContext& context,
                          const kernel::IpcMessage& message) override {
    Result<kernel::ObjectId> obj = message.ArgObject(0);
    if (!obj.ok()) {
      return kernel::IpcReply(obj.status());
    }
    kernel::IpcReply reply(
        kernel_->Authorize(kernel::AuthzRequest{context.caller, message.op, *obj}));
    reply.AddU64(reply.status.ok() ? 1 : 0);
    return reply;
  }

  // Batched entry (CallMany): the whole batch's authorization tuples go
  // through ONE Kernel::AuthorizeBatch upcall.
  void HandleMany(const kernel::IpcContext& context,
                  std::span<const kernel::IpcMessage> messages,
                  std::span<kernel::IpcReply> replies) override {
    const size_t n = std::min(messages.size(), replies.size());
    std::vector<kernel::AuthzRequest> requests;
    std::vector<size_t> slot;
    requests.reserve(n);
    slot.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Result<kernel::ObjectId> obj = messages[i].ArgObject(0);
      if (!obj.ok()) {
        replies[i] = kernel::IpcReply(obj.status());
        continue;
      }
      slot.push_back(i);
      requests.push_back(kernel::AuthzRequest{context.caller, messages[i].op, *obj});
    }
    if (requests.empty()) {
      return;
    }
    std::vector<Status> verdicts = kernel_->AuthorizeBatch(requests);
    for (size_t j = 0; j < slot.size(); ++j) {
      kernel::IpcReply reply(verdicts[j]);
      reply.AddU64(reply.status.ok() ? 1 : 0);
      replies[slot[j]] = std::move(reply);
    }
  }

 private:
  kernel::Kernel* kernel_;
};

struct WorkloadScenario::AuditedObjectState {
  std::mutex mu;
  bool allow = true;  // Setup installs the allow goal first.
};

// The federated scenario's world outside the audited nexus: home Nexus
// instances on a simulated fabric, meshed with the provider. Declaration
// order is destruction order in reverse: the federation (which installed
// the provider's quorum and kernel sink wiring) must die before the homes
// and the transport it references.
struct WorkloadScenario::FederationBacking {
  explicit FederationBacking(uint64_t seed) : transport(seed) {}

  net::Transport transport;
  std::vector<std::unique_ptr<tpm::Tpm>> tpms;
  std::vector<std::unique_ptr<core::Nexus>> homes;
  std::unique_ptr<PresenceFederation> federation;
};

WorkloadScenario::WorkloadScenario(core::Nexus* nexus, ScenarioSpec spec)
    : nexus_(nexus), spec_(std::move(spec)) {}

WorkloadScenario::~WorkloadScenario() = default;

Result<std::unique_ptr<WorkloadScenario>> WorkloadScenario::Create(
    core::Nexus* nexus, const ScenarioSpec& spec, const Params& params) {
  std::unique_ptr<WorkloadScenario> scenario(new WorkloadScenario(nexus, spec));
  NEXUS_RETURN_IF_ERROR(scenario->Setup(params));
  return scenario;
}

Status WorkloadScenario::Setup(const Params& params) {
  kernel::Kernel& kernel = nexus_->kernel();
  core::Engine& engine = nexus_->engine();

  Result<nal::Formula> allow = nal::ParseFormula(spec_.allow_goal);
  NEXUS_RETURN_IF_ERROR(allow.status());
  Result<nal::Formula> deny = nal::ParseFormula(spec_.deny_goal);
  NEXUS_RETURN_IF_ERROR(deny.status());
  Result<nal::Formula> credential = nal::ParseFormula(spec_.credential);
  NEXUS_RETURN_IF_ERROR(credential.status());
  allow_goal_ = *allow;
  deny_goal_ = *deny;
  if (!spec_.authority_leaf.empty()) {
    Result<nal::Formula> leaf = nal::ParseFormula(spec_.authority_leaf);
    NEXUS_RETURN_IF_ERROR(leaf.status());
    authority_leaf_ = *leaf;
    // The installed allow goal is the conjunction; holder proofs discharge
    // the left conjunct from the certifier's label and the right through
    // the guard's authority consultation (the quorum, when federated).
    allow_goal_ = nal::FormulaNode::And(*allow, authority_leaf_);
  }
  if (spec_.federation_homes > 0) {
    NEXUS_RETURN_IF_ERROR(SetupFederation());
  }
  allow_goal_id_ = nal::Interner::Global().Intern(allow_goal_);
  deny_goal_id_ = nal::Interner::Global().Intern(deny_goal_);
  read_op_ = kernel::InternOp(spec_.read_op);
  write_op_ = kernel::InternOp(spec_.write_op);

  Result<kernel::ProcessId> server =
      nexus_->CreateProcess("svc_" + spec_.name, ToBytes("svc"));
  NEXUS_RETURN_IF_ERROR(server.status());
  server_ = *server;
  Result<kernel::PortId> port = kernel.CreatePort(server_);
  NEXUS_RETURN_IF_ERROR(port.status());
  service_port_ = *port;
  handler_ = std::make_unique<GuardedObjectServer>(&kernel);
  NEXUS_RETURN_IF_ERROR(kernel.BindHandler(service_port_, handler_.get()));

  // The certifying authority's label is what discharges holder proofs.
  engine.SayAs(nal::Principal(spec_.certifier), *credential);

  objects_.reserve(params.objects);
  audited_ = params.audited < params.objects ? params.audited : params.objects;
  for (size_t i = 0; i < params.objects; ++i) {
    kernel::ObjectId obj = kernel::InternObject(spec_.object_prefix + std::to_string(i));
    objects_.push_back(obj);
    if (i < audited_) {
      // Audited objects are registered (owner = the service) and guarded;
      // the rest stay unregistered — ambient allow traffic that keeps the
      // cache and trace plane busy without audit expectations.
      NEXUS_RETURN_IF_ERROR(engine.RegisterObject(obj, server_, server_));
      NEXUS_RETURN_IF_ERROR(engine.SetGoal(server_, read_op_, obj, allow_goal_));
      audited_state_.push_back(std::make_unique<AuditedObjectState>());
    }
  }

  proof_holders_.reserve(params.proof_holders);
  for (size_t i = 0; i < params.proof_holders; ++i) {
    Result<kernel::ProcessId> holder =
        nexus_->CreateProcess("subj_" + spec_.name + "_" + std::to_string(i), ToBytes("s"));
    NEXUS_RETURN_IF_ERROR(holder.status());
    proof_holders_.push_back(*holder);
    for (size_t o = 0; o < audited_; ++o) {
      nal::Proof proof = authority_leaf_ == nullptr
                             ? nal::proof::Premise(allow_goal_)
                             : nal::proof::AndIntro(nal::proof::Premise(*allow),
                                                    nal::proof::Authority(authority_leaf_));
      NEXUS_RETURN_IF_ERROR(engine.SetProof(
          kernel::AuthzRequest{*holder, read_op_, objects_[o]}, std::move(proof)));
    }
  }

  if (spec_.interposed) {
    services::DdrmPolicy policy;
    policy.allowed_operations = {spec_.read_op, spec_.write_op};
    // Cached, as a deployed monitor runs: its verdict table is built here
    // and only read after, so the driver's concurrent Call traffic shares
    // it with no lock.
    monitor_ = std::make_unique<services::DeviceDriverMonitor>(policy);
    NEXUS_RETURN_IF_ERROR(kernel.Interpose(server_, service_port_, monitor_.get()).status());
  }
  return OkStatus();
}

Status WorkloadScenario::SetupFederation() {
  // The session name must match the authority_leaf's argument.
  static constexpr const char* kSession = "fleet";
  federation_ = std::make_unique<FederationBacking>(/*seed=*/0x5EED);
  for (size_t i = 0; i < spec_.federation_homes; ++i) {
    Rng rng(0xFED0 + i);  // Entropy is consumed at construction only.
    federation_->tpms.push_back(std::make_unique<tpm::Tpm>(rng));
    federation_->homes.push_back(
        std::make_unique<core::Nexus>(federation_->tpms.back().get()));
  }
  std::vector<core::Nexus*> homes;
  homes.reserve(federation_->homes.size());
  for (auto& home : federation_->homes) {
    homes.push_back(home.get());
  }
  PresenceFederation::Config config;
  config.quorum = spec_.federation_quorum;
  federation_->federation =
      std::make_unique<PresenceFederation>(nexus_, homes, &federation_->transport, config);
  PresenceFederation& fed = *federation_->federation;
  NEXUS_RETURN_IF_ERROR(fed.init_status());
  NEXUS_RETURN_IF_ERROR(fed.Connect());
  // Prove the presence path end to end once — keypresses at home 0, the
  // certificate through the mesh, a quorum-vouched signup at the provider
  // — then leave the session live for the workload's authority leaf.
  fed.Type(kSession, static_cast<int>(config.min_keypresses) + 1);
  NEXUS_RETURN_IF_ERROR(fed.ShipPresence(kSession));
  return fed.SignUp(kSession);
}

Status WorkloadScenario::Authorize(kernel::ProcessId subject, size_t object_index) {
  return nexus_->kernel().Authorize(
      kernel::AuthzRequest{subject, read_op_, objects_[object_index % objects_.size()]});
}

Status WorkloadScenario::Read(kernel::ProcessId subject, size_t object_index) {
  kernel::IpcMessage message = kernel::IpcMessage::Of(read_op_);
  message.AddObject(objects_[object_index % objects_.size()]);
  return nexus_->kernel().Call(subject, service_port_, message).status;
}

Status WorkloadScenario::Write(kernel::ProcessId subject, size_t object_index) {
  kernel::IpcMessage message = kernel::IpcMessage::Of(write_op_);
  message.AddObject(objects_[object_index % objects_.size()]);
  return nexus_->kernel().Call(subject, service_port_, message).status;
}

Status WorkloadScenario::ReadBatch(kernel::ProcessId subject, size_t object_index,
                                   size_t count, size_t* oks) {
  if (count == 0) {
    return InvalidArgument("empty batch");
  }
  std::vector<kernel::IpcMessage> messages(count);
  std::vector<kernel::IpcReply> replies(count);
  for (size_t j = 0; j < count; ++j) {
    messages[j] = kernel::IpcMessage::Of(read_op_);
    messages[j].AddObject(objects_[(object_index + j) % objects_.size()]);
  }
  size_t ok = nexus_->kernel().CallMany(subject, service_port_, messages, replies);
  if (oks != nullptr) {
    *oks = ok;
  }
  for (const kernel::IpcReply& reply : replies) {
    if (!reply.status.ok()) {
      return reply.status;
    }
  }
  return OkStatus();
}

Status WorkloadScenario::FlipGoal(size_t audited_index) {
  if (audited_ == 0) {
    return FailedPrecondition("scenario has no audited objects");
  }
  AuditedObjectState& state = *audited_state_[audited_index % audited_];
  // Serialized per object: the mutation log records install order only
  // when installs on one (op, obj) don't race each other.
  std::lock_guard<std::mutex> lock(state.mu);
  bool to_allow = !state.allow;
  Status status = nexus_->engine().SetGoal(server_, read_op_,
                                           objects_[audited_index % audited_],
                                           to_allow ? allow_goal_ : deny_goal_);
  if (status.ok()) {
    state.allow = to_allow;
  }
  return status;
}

Status WorkloadScenario::Churn(const std::string& name) {
  Result<kernel::ProcessId> pid = nexus_->kernel().CreateProcess(name, ToBytes("c"));
  NEXUS_RETURN_IF_ERROR(pid.status());
  return nexus_->kernel().KillProcess(*pid);
}

kernel::ProcessId WorkloadScenario::SubjectAt(uint64_t rank) const {
  if (rank < proof_holders_.size()) {
    return proof_holders_[rank];
  }
  // Virtual subject: a ProcessId far above anything the pid allocator
  // will reach. No process record exists — the authorization path treats
  // it as an unprivileged subject with no proofs (cacheable deny on
  // guarded objects), which is exactly a cold simulated user.
  constexpr kernel::ProcessId kVirtualBase = kernel::ProcessId{1} << 40;
  return kVirtualBase + rank;
}

}  // namespace nexus::apps

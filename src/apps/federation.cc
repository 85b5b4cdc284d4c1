#include "apps/federation.h"

#include "crypto/sha256.h"
#include "nal/proof.h"

namespace nexus::apps {

namespace {

// The session-liveness namespace both the home authorities and the
// provider's quorum route on.
bool IsSessionStatement(const nal::Formula& f) {
  return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "Session";
}

}  // namespace

PresenceFederation::PresenceFederation(core::Nexus* provider, core::Nexus* home,
                                       net::Transport* transport)
    : PresenceFederation(provider, home, transport, Config{}) {}

PresenceFederation::PresenceFederation(core::Nexus* provider, core::Nexus* home,
                                       net::Transport* transport, const Config& config)
    : PresenceFederation(provider, std::vector<core::Nexus*>{home}, transport, config) {}

PresenceFederation::PresenceFederation(core::Nexus* provider,
                                       const std::vector<core::Nexus*>& homes,
                                       net::Transport* transport, const Config& config)
    : provider_(provider), config_(config), transport_(transport) {
  provider_net_ =
      std::make_unique<net::NetNode>(provider_, transport, config_.provider_node);

  // Provider: the social network. Credentials the mesh gossip imports
  // land in the web server's labelstore, where the signup guard's
  // credential collection finds them.
  fauxbook_ = std::make_unique<Fauxbook>(provider_);
  net::mesh::MeshNode::Options provider_mesh_options;
  provider_mesh_options.import_pid = fauxbook_->webserver_pid();
  provider_mesh_ =
      std::make_unique<net::mesh::MeshNode>(provider_net_.get(), provider_mesh_options);

  size_t index = 0;
  for (core::Nexus* nexus : homes) {
    auto home = std::make_unique<Home>();
    home->nexus = nexus;
    home->node_id = index == 0 ? config_.home_node
                               : config_.home_node + std::to_string(index + 1);
    ++index;

    // Out-of-band EK distribution, star-shaped: the provider pins each
    // home and each home pins the provider. Homes learn EACH OTHER's EKs
    // in band, from mesh gossip over these attested spokes. A rejected
    // registration (e.g. a conflicting prior anchor) must surface here,
    // not as mysterious handshake failures later.
    Status pin_home =
        provider_->RegisterPeer(home->node_id, nexus->tpm().endorsement_public_key());
    Status pin_provider = nexus->RegisterPeer(config_.provider_node,
                                              provider_->tpm().endorsement_public_key());
    if (init_status_.ok() && !pin_home.ok()) {
      init_status_ = pin_home;
    }
    if (init_status_.ok() && !pin_provider.ok()) {
      init_status_ = pin_provider;
    }

    home->net = std::make_unique<net::NetNode>(nexus, transport, home->node_id);

    // The keyboard driver (the only process that can mint keypress labels).
    Result<kernel::ProcessId> driver =
        nexus->CreateProcess("keyboard_driver", ToBytes("nexus-kbd-v1"));
    if (!driver.ok() && init_status_.ok()) {
      // Never fall back to the kernel pid: presence labels must only ever
      // be attributable to the real driver process.
      init_status_ = driver.status();
    }
    home->driver_pid = driver.ok() ? *driver : 0;
    home->driver = std::make_unique<KeyboardDriver>(nexus, home->driver_pid);

    net::mesh::MeshNode::Options home_mesh_options;
    home_mesh_options.import_pid = home->driver_pid;
    // Only the provider's decision plane is ever audited; auxiliary homes
    // must not stamp the process-global observability streams.
    home_mesh_options.stamp_observability = false;
    home->mesh = std::make_unique<net::mesh::MeshNode>(home->net.get(), home_mesh_options);

    // Session liveness, answered from this home's replica of the session
    // set (fresh dynamic state — never cached, never transferable).
    home->liveness = std::make_unique<core::LambdaAuthority>(
        [](const nal::Formula& f) {
          return IsSessionStatement(f) &&
                 f->child1()->kind() == nal::FormulaKind::kPred &&
                 f->child1()->pred_name() == "sessionActive";
        },
        [this](const nal::Formula& f) {
          const auto& args = f->child1()->args();
          return args.size() == 1 && live_sessions_.count(args[0].text()) > 0;
        });
    home->authority_service = std::make_unique<net::AuthorityService>(home->net.get());
    home->authority_service->AddAuthority(home->liveness.get());

    // The provider's leg to this home, one quorum member.
    home->remote = std::make_unique<net::RemoteAuthority>(provider_net_.get(),
                                                          home->node_id, IsSessionStatement);
    homes_.push_back(std::move(home));
  }

  // Provider guard: session-liveness leaves route to a K-of-N quorum of
  // homes, budgeted by the configured deadline. K defaults to a majority,
  // which for the classic two-instance federation is exactly "the home".
  net::mesh::QuorumPolicy policy;
  policy.quorum = config_.quorum != 0 ? config_.quorum : homes_.size() / 2 + 1;
  session_quorum_ = std::make_unique<net::mesh::QuorumAuthority>(transport, policy,
                                                                 IsSessionStatement);
  for (auto& home : homes_) {
    session_quorum_->AddMember(home->remote.get());
  }
  provider_->guard().AddRemoteAuthority(session_quorum_.get());
  provider_->guard().set_remote_query_timeout_us(config_.remote_timeout_us);

  provider_->engine().RegisterObject(kSignupObject, fauxbook_->webserver_pid(),
                                     kernel::kKernelProcessId);
}

PresenceFederation::~PresenceFederation() = default;

Status PresenceFederation::Connect() {
  if (!init_status_.ok()) {
    return init_status_;
  }
  // Establish the star, then join each home to the mesh (the join pushes
  // the home's registry state at the provider, which floods news onward).
  for (auto& home : homes_) {
    Result<net::AttestedChannel*> channel = provider_net_->Connect(home->node_id);
    NEXUS_RETURN_IF_ERROR(channel.status());
    NEXUS_RETURN_IF_ERROR(home->mesh->Join(config_.provider_node));
    transport_->DeliverAll();
  }
  // Anti-entropy until every replica reports the same digest: homes learn
  // each other's records transitively and open their own channels.
  const size_t max_rounds = homes_.size() + 2;
  for (size_t round = 0; round < max_rounds; ++round) {
    provider_mesh_->AntiEntropy();
    for (auto& home : homes_) {
      home->mesh->AntiEntropy();
    }
    transport_->DeliverAll();
    bool converged = true;
    const std::string digest = provider_mesh_->Digest();
    for (auto& home : homes_) {
      converged = converged && home->mesh->Digest() == digest;
    }
    if (converged) {
      return OkStatus();
    }
  }
  return Internal("federation mesh failed to converge");
}

void PresenceFederation::Type(const std::string& session, int presses,
                              size_t home_index) {
  live_sessions_.insert(session);
  if (home_index >= homes_.size()) {
    return;
  }
  for (int i = 0; i < presses; ++i) {
    homes_[home_index]->driver->OnKeypress(session);
  }
}

Status PresenceFederation::ShipPresence(const std::string& session, size_t home_index) {
  if (!init_status_.ok()) {
    return init_status_;
  }
  if (home_index >= homes_.size()) {
    return InvalidArgument("no such home instance");
  }
  Home& home = *homes_[home_index];
  Result<core::Certificate> cert = home.driver->AttestSession(session);
  if (!cert.ok()) {
    return cert.status();
  }
  // Publish through the mesh: the home imports its own certificate and
  // floods it; the provider's gossip import verifies the chain and lands
  // the statement in the web server's labelstore.
  Bytes cert_bytes = cert->Serialize();
  NEXUS_RETURN_IF_ERROR(home.mesh->gossip().PublishCertificate(cert_bytes));
  transport_->DeliverAll();
  if (!provider_mesh_->registry().HasCertificate(crypto::Sha256Hex(cert_bytes))) {
    return Internal("presence certificate did not reach the provider");
  }
  return OkStatus();
}

void PresenceFederation::EndSession(const std::string& session) {
  live_sessions_.erase(session);
}

Status PresenceFederation::SignUp(const std::string& session) {
  // Locate the imported presence credential for this session and apply the
  // threshold (the SpamClassifier logic, but feeding a guard goal).
  core::LabelStore& store = provider_->engine().StoreFor(fauxbook_->webserver_pid());
  nal::Formula credential;
  int64_t best_count = -1;
  for (const nal::Formula& label : store.All()) {
    // Only TPM-rooted (imported) credentials count. Wire-imported labels
    // reparse the dotted chain as base "tpm" + path; in-memory ones keep
    // "tpm.<ek8>" as the base.
    if (label->kind() != nal::FormulaKind::kSays ||
        label->speaker().ToString().rfind("tpm.", 0) != 0) {
      continue;
    }
    const nal::Formula& body = label->child1();
    if (body->kind() != nal::FormulaKind::kPred || body->pred_name() != "keypresses" ||
        body->args().size() != 2 || body->args()[0].text() != session) {
      continue;
    }
    if (body->args()[1].int_value() > best_count) {
      best_count = body->args()[1].int_value();
      credential = label;
    }
  }
  if (credential == nullptr) {
    return PermissionDenied("no imported presence credential for session " + session);
  }
  if (best_count < static_cast<int64_t>(config_.min_keypresses)) {
    return PermissionDenied("presence credential shows too few keypresses");
  }

  // Goal: that exact credential AND a live session vouched for — right
  // now, by a K-of-N quorum of home instances.
  nal::Formula liveness = nal::FormulaNode::Says(
      nal::Principal("Session"),
      nal::FormulaNode::Pred("sessionActive", {nal::Term::Symbol(session)}));
  nal::Formula goal = nal::FormulaNode::And(credential, liveness);
  nal::Proof proof = nal::proof::AndIntro(nal::proof::Premise(credential),
                                          nal::proof::Authority(liveness));

  kernel::ProcessId subject = fauxbook_->webserver_pid();
  NEXUS_RETURN_IF_ERROR(
      provider_->engine().SetGoal(subject, "signup", kSignupObject, goal));
  NEXUS_RETURN_IF_ERROR(provider_->engine().SetProof(subject, "signup", kSignupObject, proof));
  Status verdict =
      provider_->kernel().Authorize(kernel::AuthzRequest::Of(subject, "signup", kSignupObject));
  if (!verdict.ok()) {
    return verdict;
  }
  signed_up_.insert(session);
  return fauxbook_->AddUser(session);
}

Status PresenceFederation::Post(const std::string& session, const std::string& text) {
  if (signed_up_.count(session) == 0) {
    return PermissionDenied("session " + session + " has not completed federated signup");
  }
  return fauxbook_->PostStatus(session, text);
}

}  // namespace nexus::apps

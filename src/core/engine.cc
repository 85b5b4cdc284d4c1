#include "core/engine.h"

#include <bit>

#include "nal/parser.h"

namespace nexus::core {

using kernel::AuthzDecision;
using kernel::AuthzRequest;

namespace {

// Policy-plane mutation record for the global MutationLog. Stamped with
// the mutated subregion's per-shard decision-cache generations as reported
// by the invalidation itself — the EXACT post-bump values, read under the
// bump's lock, so the auditor can place each mutation precisely on the
// generation axis (an after-the-fact SubregionGenerations read would race
// other threads' bumps and overshoot). kSay mutations carry no
// generations: labels are append-only and never invalidate verdicts.
void LogMutation(kernel::MutationKind kind, kernel::ProcessId subject, kernel::OpId op,
                 kernel::ObjectId obj, uint64_t detail,
                 std::vector<uint64_t> generations) {
  kernel::MutationLog& log = kernel::MutationLog::Global();
  if (!log.enabled()) {
    return;
  }
  kernel::MutationRecord record;
  record.kind = kind;
  record.subject = subject;
  record.op = op;
  record.obj = obj;
  record.detail = detail;
  record.generations = std::move(generations);
  log.Append(std::move(record));
}

// Generation stamp for a single-entry (proof) invalidation: only the
// subject's shard was bumped, and only that shard's stamp must be exact
// (it is `post_gen`, read under the bump's lock). The other shards' slots
// are a best-effort snapshot — the auditor only consults the shard a
// verdict actually ran in, which for this tuple is the subject's shard.
std::vector<uint64_t> ProofMutationGens(kernel::Kernel* kernel,
                                        const kernel::AuthzRequest& tuple,
                                        uint64_t post_gen) {
  std::vector<uint64_t> gens =
      kernel->decision_cache().SubregionGenerations(tuple.op, tuple.obj);
  size_t shard = kernel->decision_cache().ShardOf(tuple.subject);
  if (shard < gens.size()) {
    gens[shard] = post_gen;
  }
  return gens;
}

// Stage event for a traced request reaching the engine (a decision-cache
// miss) or leaving it for a designated guard. No-op when untraced.
void EmitEngineEvent(const AuthzRequest& request, kernel::TraceStage stage, uint64_t aux,
                     uint16_t flags) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  if (!recorder.enabled()) {
    return;
  }
  uint64_t id = request.trace != 0 ? request.trace : kernel::CurrentTraceId();
  if (id == 0) {
    return;
  }
  kernel::TraceEvent e;
  e.trace_id = id;
  e.subject = request.subject;
  e.op = request.op;
  e.obj = request.obj;
  e.aux = aux;
  e.flags = flags;
  e.stage = stage;
  recorder.Emit(e);
}

// A handle to `snapshot` whose reference count lives on a control block
// private to the calling thread. Every miss holds the system snapshot, so
// copying its handle directly would make every miss on every thread write
// one shared reference count. Instead each thread keeps a few pins, each a
// thread-owned handle to one snapshot, and returns aliasing handles that
// count on the pin. A returned handle keeps its pin, and so the snapshot,
// alive even after the slot moves on to a newer snapshot. A thread retains
// at most kPinSlots snapshots past their replacement, until it pins a newer
// snapshot into the same slot or exits.
SnapshotHandle PinForThisThread(const SnapshotHandle& snapshot) {
  constexpr size_t kPinSlots = 4;
  thread_local std::array<std::shared_ptr<const SnapshotHandle>, kPinSlots> pins;
  std::shared_ptr<const SnapshotHandle>& pin = pins[snapshot->id % kPinSlots];
  // Pointer equality is exact: a pinned snapshot cannot be freed, so its
  // address cannot be reused by another snapshot.
  if (pin == nullptr || pin->get() != snapshot.get()) {
    pin = std::make_shared<const SnapshotHandle>(snapshot);
  }
  return SnapshotHandle(pin, pin->get());
}

// Holds the stripes in `set`, taken in ascending index order (a canonical
// order, so concurrent batches never deadlock) and released on scope exit.
class StripeLocks {
 public:
  StripeLocks(std::span<std::recursive_mutex> stripes, uint32_t set)
      : stripes_(stripes), set_(set) {
    for (uint32_t rest = set_; rest != 0; rest &= rest - 1) {
      stripes_[std::countr_zero(rest)].lock();
    }
  }
  ~StripeLocks() {
    for (uint32_t rest = set_; rest != 0; rest &= rest - 1) {
      stripes_[std::countr_zero(rest)].unlock();
    }
  }
  StripeLocks(const StripeLocks&) = delete;
  StripeLocks& operator=(const StripeLocks&) = delete;

 private:
  std::span<std::recursive_mutex> stripes_;
  uint32_t set_;
};

}  // namespace

Engine::Engine(kernel::Kernel* kernel, Guard* default_guard)
    : kernel_(kernel), default_guard_(default_guard) {}

AuthzDecision Engine::DefaultPolicy(const AuthzRequest& request) {
  default_policy_->Increment();
  // Unregistered objects (ambient resources like the bare syscall object)
  // are unguarded until someone registers or sets a goal on them.
  if (!objects_.Known(request.obj)) {
    return AuthzDecision::Allow();
  }
  // A nascent object with no goal is satisfiable only by the object's owner
  // or the resource manager that created it (its superprincipal).
  std::optional<kernel::ProcessId> owner = objects_.Owner(request.obj);
  std::optional<kernel::ProcessId> manager = objects_.Manager(request.obj);
  if (request.subject == kernel::kKernelProcessId ||
      (owner.has_value() && request.subject == *owner) ||
      (manager.has_value() && request.subject == *manager)) {
    return AuthzDecision::Allow();
  }
  return AuthzDecision::Deny(
      PermissionDenied("bootstrap policy: only the owner or resource manager may access " +
                       std::string(request.object())),
      true);
}

AuthzDecision Engine::UpcallDesignatedGuard(const Guard::BatchItem& item,
                                            kernel::PortId guard_port) {
  // Guard processes are user-level servers written to the one-Handle-at-a-
  // time contract; concurrent misses hitting designated goals must not run
  // their handlers in parallel. Recursive: a designated guard may re-enter
  // authorization that lands on another designated goal on this thread.
  // (No other engine lock is held here, so re-entrant Say/SetProof from
  // the guard process still work.)
  std::lock_guard<std::recursive_mutex> serialize(designated_mu_);
  designated_upcalls_->Increment();
  EmitEngineEvent(item.request, kernel::TraceStage::kGuardUpcall, guard_port,
                  kernel::kTraceFlagUpcall);
  // Typed v2 upcall: subject/op/obj cross as id slots (no stringify), the
  // proof as serialized text (it is a subject-supplied tree), credentials
  // newline-separated in data. The proof slot inherits the ABI's 64 KiB
  // per-slot bound, enforced identically with interposition on or off
  // (ValidateWireBounds) — a deeper proof must be pre-registered via
  // SetProof and referenced, not shipped inline per call.
  static const kernel::OpId check_op = kernel::InternOp("check");
  kernel::IpcMessage ipc_request = kernel::IpcMessage::Of(check_op);
  ipc_request.AddProcess(item.request.subject)
      .AddU64(item.request.op)
      .AddObject(item.request.obj)
      .AddString(item.proof == nullptr ? "(premise \"false\")"
                                       : nal::SerializeProof(item.proof));
  std::string blob;
  for (std::span<const nal::Formula> part : item.credentials.parts()) {
    for (const nal::Formula& cred : part) {
      blob += cred->ToString();
      blob += '\n';
    }
  }
  ipc_request.data = ToBytes(blob);
  kernel::IpcReply reply = kernel_->Call(item.request.subject, guard_port, ipc_request);
  return AuthzDecision::FromStatus(reply.status, reply.value() == 1);
}

AuthzDecision Engine::Authorize(const AuthzRequest& request) {
  AuthzDecision decision;
  AuthzDecision verdict;
  Guard::BatchItem item;
  size_t slot = 0;
  Credentials credentials;
  Decide({&request, 1}, {&decision, 1},
         Staging{{&item, 1}, {&slot, 1}, {&credentials, 1}, {&verdict, 1}});
  return decision;
}

std::vector<AuthzDecision> Engine::AuthorizeBatch(std::span<const AuthzRequest> requests) {
  // Reused per-thread capacity: a warm batch allocates only its result.
  // Moved out for the batch and back after, so an authority or designated
  // guard that re-enters AuthorizeBatch on this thread stages its own.
  struct Scratch {
    std::vector<Guard::BatchItem> items;
    std::vector<size_t> slots;
    std::vector<Credentials> credentials;
    std::vector<AuthzDecision> verdicts;
  };
  thread_local Scratch t_scratch;
  Scratch scratch = std::move(t_scratch);
  const size_t n = requests.size();
  scratch.items.resize(n);
  scratch.slots.resize(n);
  scratch.credentials.resize(n);
  scratch.verdicts.resize(n);
  std::vector<AuthzDecision> decisions(n);
  Decide(requests, decisions,
         Staging{scratch.items, scratch.slots, scratch.credentials, scratch.verdicts});
  // Park the capacity, not the proofs and snapshots the batch staged.
  scratch.items.clear();
  scratch.credentials.clear();
  t_scratch = std::move(scratch);
  return decisions;
}

void Engine::Decide(std::span<const AuthzRequest> requests, std::span<AuthzDecision> decisions,
                    const Staging& staging) {
  misses_->Increment(requests.size());
  // Requests are decided in SEGMENTS ended by a designated-guard item:
  // snapshot a segment under the reader lock, evaluate it under the
  // segment subjects' stripes, then run the designated upcall (which may
  // mutate label state) with no lock held, so everything after it
  // re-snapshots and observes the mutation exactly as the serial order
  // would.
  size_t i = 0;
  while (i < requests.size()) {
    size_t staged = 0;
    kernel::PortId upcall_port = 0;  // Nonzero: items[staged] goes to this guard.
    {
      // Each proof and its three credential snapshots are taken under the
      // reader side of the state plane, entered at the segment's first
      // goal (the bootstrap policy touches only the internally-locked
      // object registry). All are shared_ptr copies of immutable data,
      // safe to evaluate after the lock is gone.
      std::shared_lock<std::shared_mutex> lock(state_mu_, std::defer_lock);
      for (; i < requests.size() && upcall_port == 0; ++i) {
        const AuthzRequest& request = requests[i];
        EmitEngineEvent(request, kernel::TraceStage::kEngineMiss, 0, 0);
        std::optional<GoalEntry> goal = goals_.Get(request.op, request.obj);
        if (!goal.has_value()) {
          decisions[i] = DefaultPolicy(request);
          continue;
        }
        if (!lock.owns_lock()) {
          lock.lock();
        }
        auto proof_it = proofs_.find(KeyOf(request));
        nal::Proof proof = proof_it == proofs_.end() ? nullptr : proof_it->second;
        Credentials& credentials = staging.credentials[staged];
        credentials = CredentialsLocked(request.subject, request.obj);
        staging.items[staged] =
            Guard::BatchItem{request,          std::move(goal->goal), goal->goal_id,
                             std::move(proof), credentials.View(),    credentials.Stamp()};
        staging.slots[staged] = i;
        // A designated goal ends the segment: everything staged before it
        // is evaluated first, then the upcall.
        upcall_port = goal->guard_port;
        if (upcall_port == 0) {
          ++staged;
        }
      }
    }

    if (staged > 0) {
      // Guard evaluation — including any remote-authority round trips —
      // runs under only the stripes of the segment's subjects, so
      // independent subjects' misses overlap end to end, and round trips
      // inside CheckBatch overlap across peers.
      static_assert(kNumStripes <= 32, "the stripe set is a 32-bit mask");
      uint32_t stripes = 0;
      for (const Guard::BatchItem& item : staging.items.first(staged)) {
        stripes |= 1u << StripeOf(item.request.subject);
      }
      StripeLocks held(stripes_, stripes);
      default_guard_->CheckBatch(staging.items.first(staged), staging.verdicts);
      for (size_t j = 0; j < staged; ++j) {
        decisions[staging.slots[j]] = std::move(staging.verdicts[j]);
      }
    }

    if (upcall_port != 0) {
      // Arbitrary guard-process code: no engine lock may be held.
      decisions[staging.slots[staged]] =
          UpcallDesignatedGuard(staging.items[staged], upcall_port);
    }
  }
}

Result<LabelHandle> Engine::Say(kernel::ProcessId speaker, const std::string& statement_text) {
  Result<nal::Formula> statement = nal::ParseFormula(statement_text);
  if (!statement.ok()) {
    return statement.status();
  }
  return SayFormula(speaker, *statement);
}

Result<LabelHandle> Engine::SayFormula(kernel::ProcessId speaker,
                                       const nal::Formula& statement) {
  if (!kernel_->IsAlive(speaker)) {
    return NotFound("speaker process not alive");
  }
  if (!nal::IsGround(statement)) {
    return InvalidArgument("labels must be ground formulas");
  }
  // The speaker is, by construction, the calling process's principal: the
  // secure syscall channel substitutes for a signature (§2.3).
  Result<LabelHandle> handle = [&] {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    return stores_[speaker].Insert(kernel_->ProcessPrincipal(speaker), statement);
  }();
  if (handle.ok()) {
    LogMutation(kernel::MutationKind::kSay, speaker, 0, 0,
                nal::Interner::Global().Intern(statement), {});
  }
  return handle;
}

LabelHandle Engine::SayAs(const nal::Principal& speaker, const nal::Formula& statement) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return system_store_.Insert(speaker, statement);
}

void Engine::AddObjectLabel(kernel::ObjectId object, const nal::Formula& label) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  // Copy-on-write: misses already holding the old snapshot keep it.
  SnapshotHandle& labels = object_labels_[object];
  std::vector<nal::Formula> formulas =
      labels == nullptr ? std::vector<nal::Formula>{} : labels->formulas;
  formulas.push_back(label);
  labels = CredentialSnapshot::Of(std::move(formulas));
}

Status Engine::SetGoal(kernel::ProcessId caller, kernel::OpId op, kernel::ObjectId obj,
                       nal::Formula goal, kernel::PortId guard_port) {
  // setgoal is itself an authorized operation on the object (§2.5). It is
  // governed by the goal for ("setgoal", object) if present, else the
  // bootstrap policy. The check runs BEFORE any engine lock is taken: it
  // re-enters authorization through the kernel (and may run a designated
  // guard), which under the old monitor needed a recursive mutex.
  static const kernel::OpId setgoal_op = kernel::InternOp("setgoal");
  Status authorized = kernel_->Authorize(AuthzRequest{caller, setgoal_op, obj});
  if (!authorized.ok()) {
    return authorized;
  }
  NEXUS_RETURN_IF_ERROR(goals_.SetGoal(op, obj, std::move(goal), guard_port));
  // A goal update may invalidate many cached decisions: clear the (op,
  // object) subregion (§2.8). Mutation first, then the generation bump —
  // a miss that snapshotted in between is dropped by the kernel's
  // generation-checked insert.
  const bool log_on = kernel::MutationLog::Global().enabled();
  std::vector<uint64_t> post_gens;
  kernel_->OnGoalUpdate(op, obj, log_on ? &post_gens : nullptr);
  if (log_on) {
    // Re-probe for the installed goal's interned id (the store interns on
    // SetGoal); only paid when the log is on. Concurrent SetGoals on ONE
    // (op, obj) must be externally serialized for the log to reflect
    // install order — the auditor documents the same requirement.
    std::optional<GoalEntry> installed = goals_.Get(op, obj);
    LogMutation(kernel::MutationKind::kSetGoal, caller, op, obj,
                installed.has_value() ? installed->goal_id : 0, std::move(post_gens));
  }
  return OkStatus();
}

Status Engine::SetGoal(kernel::ProcessId caller, const std::string& operation,
                       const std::string& object, nal::Formula goal,
                       kernel::PortId guard_port) {
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(operation, "operation"));
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(object, "object"));
  return SetGoal(caller, kernel::InternOp(operation), kernel::InternObject(object),
                 std::move(goal), guard_port);
}

Status Engine::ClearGoal(kernel::ProcessId caller, kernel::OpId op, kernel::ObjectId obj) {
  static const kernel::OpId setgoal_op = kernel::InternOp("setgoal");
  Status authorized = kernel_->Authorize(AuthzRequest{caller, setgoal_op, obj});
  if (!authorized.ok()) {
    return authorized;
  }
  NEXUS_RETURN_IF_ERROR(goals_.ClearGoal(op, obj));
  const bool log_on = kernel::MutationLog::Global().enabled();
  std::vector<uint64_t> post_gens;
  kernel_->OnGoalUpdate(op, obj, log_on ? &post_gens : nullptr);
  if (log_on) {
    LogMutation(kernel::MutationKind::kClearGoal, caller, op, obj, 0,
                std::move(post_gens));
  }
  return OkStatus();
}

Status Engine::ClearGoal(kernel::ProcessId caller, const std::string& operation,
                         const std::string& object) {
  // Never-interned names cannot name a goal; don't grow the tables just to
  // return NotFound.
  std::optional<kernel::OpId> op = kernel::FindOp(operation);
  std::optional<kernel::ObjectId> obj = kernel::FindObject(object);
  if (!op.has_value() || !obj.has_value()) {
    return NotFound("no goal for " + operation + " on " + object);
  }
  return ClearGoal(caller, *op, *obj);
}

Status Engine::SetProof(const AuthzRequest& tuple, nal::Proof proof) {
  if (proof == nullptr) {
    return InvalidArgument("null proof");
  }
  TupleKey key = KeyOf(tuple);
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    proofs_[key] = std::move(proof);
  }
  // A proof update invalidates the single affected cache entry (§2.8);
  // mutation first, then the generation bump (see SetGoal).
  const bool log_on = kernel::MutationLog::Global().enabled();
  uint64_t post_gen = 0;
  kernel_->OnProofUpdate(tuple, log_on ? &post_gen : nullptr);
  if (log_on) {
    LogMutation(kernel::MutationKind::kSetProof, tuple.subject, tuple.op, tuple.obj, 0,
                ProofMutationGens(kernel_, tuple, post_gen));
  }
  return OkStatus();
}

Status Engine::SetProof(kernel::ProcessId subject, const std::string& operation,
                        const std::string& object, nal::Proof proof) {
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(operation, "operation"));
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(object, "object"));
  return SetProof(AuthzRequest::Of(subject, operation, object), std::move(proof));
}

Status Engine::ClearProof(const AuthzRequest& tuple) {
  TupleKey key = KeyOf(tuple);
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    if (proofs_.erase(key) == 0) {
      return NotFound("no proof for this tuple");
    }
  }
  const bool log_on = kernel::MutationLog::Global().enabled();
  uint64_t post_gen = 0;
  kernel_->OnProofUpdate(tuple, log_on ? &post_gen : nullptr);
  if (log_on) {
    LogMutation(kernel::MutationKind::kClearProof, tuple.subject, tuple.op, tuple.obj, 0,
                ProofMutationGens(kernel_, tuple, post_gen));
  }
  return OkStatus();
}

Status Engine::ClearProof(kernel::ProcessId subject, const std::string& operation,
                          const std::string& object) {
  std::optional<kernel::OpId> op = kernel::FindOp(operation);
  std::optional<kernel::ObjectId> obj = kernel::FindObject(object);
  if (!op.has_value() || !obj.has_value()) {
    return NotFound("no proof for this tuple");
  }
  return ClearProof(AuthzRequest{subject, *op, *obj});
}

Status Engine::RegisterObject(kernel::ObjectId object, kernel::ProcessId owner,
                              kernel::ProcessId manager) {
  return objects_.Register(object, owner, manager);
}

Status Engine::RegisterObject(const std::string& object, kernel::ProcessId owner,
                              kernel::ProcessId manager) {
  return objects_.Register(object, owner, manager);
}

Status Engine::TransferOwnership(kernel::ProcessId caller, const std::string& object,
                                 kernel::ProcessId new_owner) {
  std::optional<kernel::ProcessId> owner = objects_.Owner(object);
  std::optional<kernel::ProcessId> manager = objects_.Manager(object);
  bool caller_may = caller == kernel::kKernelProcessId ||
                    (owner.has_value() && caller == *owner) ||
                    (manager.has_value() && caller == *manager);
  if (!caller_may) {
    return PermissionDenied("only the owner or resource manager may transfer ownership");
  }
  NEXUS_RETURN_IF_ERROR(objects_.TransferOwnership(object, new_owner));
  // The manager documents the transfer with a label:
  //   manager says new-owner speaksfor object (§2.6).
  nal::Principal object_principal =
      kernel_->ProcessPrincipal(manager.value_or(kernel::kKernelProcessId)).Sub(object);
  SayAs(kernel_->ProcessPrincipal(manager.value_or(kernel::kKernelProcessId)),
        nal::FormulaNode::SpeaksFor(kernel_->ProcessPrincipal(new_owner), object_principal));
  return OkStatus();
}

Engine::Credentials Engine::CredentialsLocked(kernel::ProcessId subject,
                                              std::optional<kernel::ObjectId> object) const {
  auto share = [](const SnapshotHandle& snapshot) {
    return snapshot->id == 0 ? SnapshotHandle() : PinForThisThread(snapshot);
  };
  Credentials credentials;
  credentials.system = share(system_store_.Snapshot());
  if (auto store = stores_.find(subject); store != stores_.end()) {
    credentials.subject = share(store->second.Snapshot());
  }
  if (object.has_value()) {
    if (auto labels = object_labels_.find(*object); labels != object_labels_.end()) {
      credentials.object = share(labels->second);
    }
  }
  return credentials;
}

std::vector<nal::Formula> Engine::CollectCredentials(kernel::ProcessId subject,
                                                     kernel::ObjectId object) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return CredentialsLocked(subject, object).View().ToVector();
}

std::vector<nal::Formula> Engine::CollectCredentials(kernel::ProcessId subject,
                                                     const std::string& object) const {
  // Read path: the name table must not grow from lookups with novel names,
  // and a never-interned object cannot carry object labels.
  std::optional<kernel::ObjectId> id = kernel::FindObject(object);
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return CredentialsLocked(subject, id).View().ToVector();
}

}  // namespace nexus::core

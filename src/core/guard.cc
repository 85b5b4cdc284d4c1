#include "core/guard.h"

#include "nal/parser.h"
#include "nal/proof.h"

namespace nexus::core {

using kernel::AuthzDecision;
using kernel::AuthzRequest;

namespace {

// One kGuardCheck provenance event per guard verdict. The trace id is the
// request's stamp (threaded by Kernel::Authorize) or, for direct Check
// callers inside a traced call, the thread-local scope id. `goal_id` is
// the interned identity of the goal this verdict was evaluated against
// (0 when the caller had none interned) — stamped into the event's
// generation word so a trace auditor can confirm the guard observed a
// goal state that is admissible for the verdict's generation window.
void EmitGuardCheck(const AuthzRequest& request, uint16_t flags, bool allowed,
                    uint32_t consulted, nal::FormulaId goal_id) {
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
  e.generation = goal_id;
  e.aux = consulted;
  e.flags = static_cast<uint16_t>(flags | (allowed ? 0 : kernel::kTraceFlagDenied));
  e.verdict = allowed ? kernel::kTraceVerdictAllow : kernel::kTraceVerdictDeny;
  e.stage = kernel::TraceStage::kGuardCheck;
  recorder.Emit(e);
}

}  // namespace

Guard::Guard(kernel::Kernel* kernel) : Guard(kernel, Config{}) {}

Guard::Guard(kernel::Kernel* kernel, const Config& config) : kernel_(kernel), config_(config) {}

void Guard::AddEmbeddedAuthority(Authority* authority) {
  embedded_authorities_.push_back(authority);
}

void Guard::AddAuthorityPort(kernel::PortId port) { authority_ports_.push_back(port); }

void Guard::AddRemoteAuthority(Authority* authority) {
  remote_authorities_.push_back(authority);
}

bool Guard::ResolveLocalAuthority(const nal::Formula& statement, bool* handled) {
  *handled = true;
  for (Authority* authority : embedded_authorities_) {
    if (authority->Handles(statement)) {
      return authority->Vouches(statement);
    }
  }
  // External authorities: one IPC round trip each. The answer is consumed
  // immediately and never stored (§2.7). The statement crosses as text —
  // formula serialization is the authority protocol's lingua franca (and
  // proof leaves are deliberately NOT interned; see AuthorityMemo).
  static const kernel::OpId check_op = kernel::InternOp("check");
  for (kernel::PortId port : authority_ports_) {
    kernel::IpcMessage query = kernel::IpcMessage::Of(check_op);
    query.AddString(statement->ToString());
    kernel::IpcReply reply = kernel_->Call(kernel::kKernelProcessId, port, query);
    if (reply.status.ok()) {
      return reply.value() == 1;
    }
    if (reply.status.code() != ErrorCode::kNotFound) {
      return false;  // Authority reachable but erroring: fail closed.
    }
  }
  *handled = false;
  return false;
}

Authority* Guard::RemoteAuthorityFor(const nal::Formula& statement) {
  for (Authority* authority : remote_authorities_) {
    if (authority->Handles(statement)) {
      return authority;
    }
  }
  return nullptr;
}

bool Guard::QueryAuthorities(const nal::Formula& statement) {
  stats_.authority_queries->Increment();
  bool handled = false;
  bool answer = ResolveLocalAuthority(statement, &handled);
  if (handled) {
    return answer;
  }
  // Remote authorities: a query crossing the instance boundary, budgeted by
  // the configured deadline. No answer in time means DENY (§2.7 answers are
  // fresh-or-nothing; a stale late answer is worthless).
  if (Authority* remote = RemoteAuthorityFor(statement)) {
    stats_.remote_queries->Increment();
    return remote->VouchesWithin(statement, config_.remote_query_timeout_us);
  }
  return false;  // No authority evaluates this statement.
}

const bool* Guard::AuthorityMemo::Find(const nal::Formula& statement) const {
  auto bucket = buckets_.find(nal::StructuralHash(statement));
  if (bucket == buckets_.end()) {
    return nullptr;
  }
  for (const Entry& entry : bucket->second) {
    if (nal::Equals(entry.statement, statement)) {
      return &entry.answer;
    }
  }
  return nullptr;
}

void Guard::AuthorityMemo::Insert(const nal::Formula& statement, bool answer) {
  std::vector<Entry>& bucket = buckets_[nal::StructuralHash(statement)];
  for (Entry& entry : bucket) {
    if (nal::Equals(entry.statement, statement)) {
      entry.answer = answer;
      return;
    }
  }
  bucket.push_back(Entry{statement, answer});
}

std::vector<Guard::InFlightBatch> Guard::IssuePrefetches(std::span<const BatchItem> items,
                                                         AuthorityMemo* memo,
                                                         AuthorityMemo* pending,
                                                         std::vector<bool>* blocked) {
  // Serial checking stops at the first declined leaf, so a malicious proof
  // stuffed with authority leaves must not amplify into unbounded eager
  // consultations (or a giant VouchBatch payload). Leaves beyond the cap
  // are simply not prefetched; the per-check callback falls back to the
  // lazy serial path for them, preserving correctness.
  constexpr size_t kMaxPrefetchLeavesPerProof = 64;
  // Statements bound for one remote peer travel in a single VouchBatch
  // round trip; groups accumulate in first-seen order within each peer.
  std::map<Authority*, std::vector<nal::Formula>> remote_groups;
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    // Items CheckImpl short-circuits (no goal, trivially-true goal, no
    // proof) never reach proof checking serially; consulting their leaves
    // here would create consultations the serial path cannot produce.
    if (item.goal == nullptr || item.goal->kind() == nal::FormulaKind::kTrue ||
        item.proof == nullptr) {
      continue;
    }
    std::vector<nal::Formula> leaves = nal::AuthorityLeaves(item.proof);
    size_t considered = std::min(leaves.size(), kMaxPrefetchLeavesPerProof);
    for (size_t j = 0; j < considered; ++j) {
      const nal::Formula& leaf = leaves[j];
      if (pending->Contains(leaf)) {
        // Already riding an issued (or soon-issued) round trip.
        stats_.batch_collapsed_queries->Increment();
        (*blocked)[i] = true;
        continue;
      }
      if (memo->Contains(leaf)) {
        stats_.batch_collapsed_queries->Increment();  // Answered locally already.
        continue;
      }
      stats_.authority_queries->Increment();
      bool handled = false;
      bool answer = ResolveLocalAuthority(leaf, &handled);
      if (handled) {
        memo->Insert(leaf, answer);
        continue;
      }
      if (Authority* remote = RemoteAuthorityFor(leaf)) {
        pending->Insert(leaf, false);
        remote_groups[remote].push_back(leaf);
        (*blocked)[i] = true;
        continue;
      }
      memo->Insert(leaf, false);  // No authority evaluates it: deny.
    }
  }
  // Issue every round trip BEFORE waiting on any: all wire messages are in
  // flight together on the simulated clock, so K peers cost max(latency),
  // not sum(latency) — and local checking proceeds in the meantime.
  std::vector<InFlightBatch> inflight;
  inflight.reserve(remote_groups.size());
  for (auto& [remote, statements] : remote_groups) {
    stats_.remote_queries->Increment();  // One attested round trip for the whole group.
    InFlightBatch batch;
    batch.future = remote->VouchBatchAsync(statements, config_.remote_query_timeout_us);
    batch.statements = std::move(statements);
    inflight.push_back(std::move(batch));
  }
  return inflight;
}

void Guard::InsertCacheEntryLocked(CacheShard& shard, kernel::ProcessId quota_root,
                                   const CacheKey& key, const nal::Proof& proof,
                                   bool verdict) {
  // A zero quota or zero capacity disables caching outright. This must be
  // checked FIRST: with per_root_quota == 0 the quota condition below is
  // vacuously true forever and the old code dereferenced
  // std::prev(lru.end()) on an empty list — UB — or spun without
  // progress.
  if (config_.per_root_quota == 0 || config_.proof_cache_capacity == 0) {
    return;
  }

  auto evict = [this, &shard](std::list<CacheEntry>::iterator it) {
    if (--shard.root_usage[it->quota_root] == 0) {
      shard.root_usage.erase(it->quota_root);  // Don't accrete dead roots.
    }
    shard.index.erase(it->key);
    shard.lru.erase(it);
    stats_.evictions->Increment();
  };
  // The oldest entry charged to `root`, or lru.end(). (Never called on an
  // empty list, but stays correct if it is.)
  auto oldest_of_root = [&shard](kernel::ProcessId root) {
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      if (it->quota_root == root) {
        return std::prev(it.base());
      }
    }
    return shard.lru.end();
  };

  // Quota enforcement: evict this root's own oldest entries first (§2.9).
  // A root's entries all live in this shard, so the count is exact. Each
  // pass either evicts one of the root's entries or proves none exists and
  // stops — accounting drift (root_usage positive with no matching LRU
  // entry) must degrade to an over-admission, never hang the guard.
  while (!shard.lru.empty() && shard.root_usage[quota_root] >= config_.per_root_quota) {
    auto it = oldest_of_root(quota_root);
    if (it == shard.lru.end()) {
      break;  // No entry carries this root: bounded exit, not a spin.
    }
    evict(it);
  }
  // Capacity (per shard): preferentially evict entries charged to the same
  // principal, falling back to shard LRU.
  if (!shard.lru.empty() && shard.lru.size() >= config_.proof_cache_capacity) {
    auto it = oldest_of_root(quota_root);
    evict(it != shard.lru.end() ? it : std::prev(shard.lru.end()));
  }

  shard.lru.push_front(CacheEntry{key, proof, verdict, quota_root});
  shard.index[key] = shard.lru.begin();
  shard.root_usage[quota_root] += 1;
}

AuthzDecision Guard::Check(const AuthzRequest& request, const nal::Formula& goal,
                           const nal::Proof& proof, nal::CredentialView credentials,
                           CredentialStamp stamp, nal::FormulaId goal_id) {
  return CheckImpl(request, goal, goal_id, proof, credentials, stamp, nullptr);
}

AuthzDecision Guard::CheckImpl(const AuthzRequest& request, const nal::Formula& goal,
                               nal::FormulaId goal_id, const nal::Proof& proof,
                               nal::CredentialView credentials, CredentialStamp stamp,
                               const AuthorityMemo* memo) {
  stats_.checks->Increment();

  if (goal == nullptr) {
    return AuthzDecision::Deny(Internal("guard invoked without a goal"), false);
  }
  if (goal->kind() == nal::FormulaKind::kTrue) {
    return AuthzDecision::Allow();
  }
  if (proof == nullptr) {
    EmitGuardCheck(request, 0, /*allowed=*/false, 0, goal_id);
    return AuthzDecision::Deny(
        PermissionDenied("no proof supplied for goal " + goal->ToString()), true);
  }

  kernel::ProcessId quota_root = request.subject;
  if (Result<const kernel::Process*> p = kernel_->GetProcess(request.subject); p.ok()) {
    quota_root = (*p)->quota_root;
  }

  // Proof-cache lookup is sound only for proofs without authority leaves,
  // and only when the caller supplied a credential stamp (the stamp is what
  // ties a cached verdict to the credential set it was checked under).
  bool static_proof = nal::IsStaticallyCacheable(proof);
  bool may_cache = static_proof && stamp.enabled();
  CacheKey cache_key;
  if (may_cache) {
    if (goal_id == nal::kInvalidFormulaId) {
      // Pointer-memoized in the interner: goals stored canonically (the
      // GoalStore interns on SetGoal) cost one hash-map probe here.
      goal_id = nal::Interner::Global().Intern(goal);
    }
    // ProofHash, not the proof's address: address reuse after free must
    // not replay a dead proof's verdict for a different proof (ABA).
    cache_key = CacheKey{goal_id, nal::ProofHash(proof), stamp.ids()};
    CacheShard& shard = ShardFor(quota_root);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(cache_key);
    // ProofHash is not cryptographic: confirm the hit actually carries a
    // structurally equal proof before replaying its verdict. The pointer
    // fast path covers re-submitted proof objects; an engineered
    // collision fails ProofEquals and pays a full check instead.
    if (it != shard.index.end() &&
        (it->second->proof == proof || nal::ProofEquals(it->second->proof, proof))) {
      stats_.cache_hits->Increment();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // LRU refresh.
      bool allowed = it->second->verdict;
      EmitGuardCheck(request, kernel::kTraceFlagProofCacheHit, allowed, 0, goal_id);
      return allowed ? AuthzDecision::Allow()
                     : AuthzDecision::Deny(PermissionDenied("denied (cached proof verdict)"),
                                           true);
    }
  }

  uint32_t consulted = 0;
  nal::AuthorityCallback authority = [this, memo, &consulted](const nal::Formula& f) {
    ++consulted;
    if (memo != nullptr) {
      if (const bool* answer = memo->Find(f)) {
        return *answer;  // Prefetched batch-wide; consumed, not stored.
      }
    }
    return QueryAuthorities(f);
  };
  nal::CheckResult result = nal::CheckProof(proof, goal, credentials, authority);

  // A denial caused by a missing credential must not be cached anywhere:
  // the subject may acquire the label later without touching its proof.
  bool verdict_cacheable = result.cacheable && !result.missing_credential;
  if (may_cache && !result.missing_credential) {
    CacheShard& shard = ShardFor(quota_root);
    std::lock_guard<std::mutex> lock(shard.mu);
    // Two concurrent misses on the same key both reach here; the loser
    // must not insert a duplicate (it would orphan the winner's LRU node
    // and double-charge the root — its eventual eviction would then
    // unindex the live entry). Both computed the same verdict, so keeping
    // the winner's is exact.
    if (!shard.index.contains(cache_key)) {
      InsertCacheEntryLocked(shard, quota_root, cache_key, proof, result.status.ok());
    }
  }
  AuthzDecision decision = AuthzDecision::FromStatus(result.status, verdict_cacheable);
  decision.consulted_authorities = consulted;
  EmitGuardCheck(request,
                 decision.cacheable ? uint16_t{0} : kernel::kTraceFlagUncacheable,
                 decision.allowed(), consulted, goal_id);
  return decision;
}

std::vector<AuthzDecision> Guard::CheckBatch(std::span<const BatchItem> items) {
  AuthorityMemo memo;     // Resolved answers (local, no-authority denies).
  AuthorityMemo pending;  // Statements riding an in-flight remote future.
  std::vector<bool> blocked(items.size(), false);
  std::vector<InFlightBatch> inflight = IssuePrefetches(items, &memo, &pending, &blocked);

  std::vector<AuthzDecision> decisions(items.size());
  // Overlap phase: while the remote round trips are on the wire, check
  // every item whose leaves are already resolved (or that short-circuits
  // before proof checking). Their verdicts cannot depend on the fabric.
  for (size_t i = 0; i < items.size(); ++i) {
    if (!blocked[i]) {
      const BatchItem& item = items[i];
      decisions[i] = CheckImpl(item.request, item.goal, item.goal_id, item.proof,
                               item.credentials, item.stamp, &memo);
    }
  }
  // Harvest: fold every future's answers into the memo. A lost or late
  // reply yields fail-closed denies, exactly as the blocking path.
  for (InFlightBatch& batch : inflight) {
    std::vector<bool> answers = batch.future->Wait();
    for (size_t k = 0; k < batch.statements.size(); ++k) {
      memo.Insert(batch.statements[k], k < answers.size() && answers[k]);
    }
  }
  // Remaining items: every leaf now has its answer in the memo.
  for (size_t i = 0; i < items.size(); ++i) {
    if (blocked[i]) {
      const BatchItem& item = items[i];
      decisions[i] = CheckImpl(item.request, item.goal, item.goal_id, item.proof,
                               item.credentials, item.stamp, &memo);
    }
  }
  return decisions;
}

void Guard::FlushCache() {
  // Within each shard all three structures drop together: a stale
  // root_usage survivor would wrongly trigger quota eviction on the next
  // fill (§2.9 quotas count live entries, not history).
  for (CacheShard& shard : cache_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.root_usage.clear();
  }
}

Guard::Stats Guard::stats() const {
  Stats snapshot;
  snapshot.checks = stats_.checks->Value();
  snapshot.cache_hits = stats_.cache_hits->Value();
  snapshot.authority_queries = stats_.authority_queries->Value();
  snapshot.remote_queries = stats_.remote_queries->Value();
  snapshot.evictions = stats_.evictions->Value();
  snapshot.batch_collapsed_queries = stats_.batch_collapsed_queries->Value();
  return snapshot;
}

GuardPortHandler::GuardPortHandler(Guard* guard, const GoalStore* goals)
    : guard_(guard), goals_(goals) {}

kernel::IpcReply GuardPortHandler::Handle(const kernel::IpcContext& context,
                                          const kernel::IpcMessage& message) {
  // Protocol: check(subject, op, obj, proof-text), with newline-separated
  // credential formulas in `data`. The engine upcalls with typed slots
  // (Process/U64/Object ids — nothing to parse); script-style callers may
  // still send v1-shaped string slots, which resolve here: the subject
  // through the single decimal decode point, the op/object NAMES through
  // the caller-charged intern surfaces (this port is untrusted input).
  static const kernel::OpId check_op = kernel::InternOp("check");
  if (message.op != check_op || message.args.size() < 4) {
    return kernel::IpcReply(
        InvalidArgument("guard protocol: check <subject> <op> <object> <proof>"));
  }
  Result<kernel::ProcessId> subject_id = message.ArgProcess(0);
  if (!subject_id.ok()) {
    return kernel::IpcReply(
        InvalidArgument("guard protocol: subject must be a process id"));
  }
  kernel::ProcessId subject = *subject_id;

  Result<kernel::OpId> operation = guard_->kernel()->ResolveOpArg(context.caller, message, 1);
  if (!operation.ok()) {
    return kernel::IpcReply(operation.status());
  }
  Result<kernel::ObjectId> object =
      guard_->kernel()->ResolveObjectArg(context.caller, message, 2);
  if (!object.ok()) {
    return kernel::IpcReply(object.status());
  }

  std::optional<GoalEntry> goal = goals_->Get(*operation, *object);
  if (!goal.has_value()) {
    return kernel::IpcReply(NotFound("no goal for this operation/object"));
  }

  Result<std::string_view> proof_text = message.ArgString(3);
  if (!proof_text.ok()) {
    return kernel::IpcReply(
        InvalidArgument("guard protocol: proof must be serialized text"));
  }
  Result<nal::Proof> proof = nal::DeserializeProof(*proof_text);
  if (!proof.ok()) {
    return kernel::IpcReply(proof.status());
  }

  std::vector<nal::Formula> credentials;
  std::string blob = ToString(message.data);
  size_t start = 0;
  while (start < blob.size()) {
    size_t end = blob.find('\n', start);
    if (end == std::string::npos) {
      end = blob.size();
    }
    if (end > start) {
      Result<nal::Formula> cred = nal::ParseFormula(blob.substr(start, end - start));
      if (!cred.ok()) {
        return kernel::IpcReply(cred.status());
      }
      credentials.push_back(*cred);
    }
    start = end + 1;
  }

  AuthzDecision decision = guard_->Check(AuthzRequest{subject, *operation, *object},
                                         goal->goal, *proof, credentials);
  // Typed verdict reply: the cacheability bit rides in a u64 slot — the
  // designated-guard upcall consumer reads it structurally (value()).
  kernel::IpcReply reply(decision.ToStatus());
  reply.AddU64(decision.cacheable ? 1 : 0);
  return reply;
}

}  // namespace nexus::core

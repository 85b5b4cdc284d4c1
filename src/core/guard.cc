#include "core/guard.h"

#include <algorithm>
#include <functional>
#include <utility>

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

// The first of `authorities` that evaluates `statement`, if any.
Authority* FirstHandling(std::span<Authority* const> authorities,
                         const nal::Formula& statement) {
  for (Authority* authority : authorities) {
    if (authority->Handles(statement)) {
      return authority;
    }
  }
  return nullptr;
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

Authority* Guard::ResolveLocally(const nal::Formula& statement, bool* answer) {
  stats_.authority_queries->Increment();
  *answer = false;
  if (Authority* embedded = FirstHandling(embedded_authorities_, statement)) {
    *answer = embedded->VouchOne(statement, config_.remote_query_timeout_us);
    return nullptr;
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
      Result<uint64_t> vouches = reply.ArgU64(0);
      *answer = vouches.ok() && *vouches == 1;
      return nullptr;
    }
    if (reply.status.code() != ErrorCode::kNotFound) {
      return nullptr;  // Authority reachable but erroring: fail closed.
    }
  }
  // Remote authorities: a query crossing the instance boundary, budgeted by
  // the configured deadline. No answer in time means DENY (§2.7 answers are
  // fresh-or-nothing; a stale late answer is worthless).
  return FirstHandling(remote_authorities_, statement);
}

bool Guard::Consult(const nal::Formula& statement, AuthorityMemo* memo) {
  if (auto known = memo->find(statement); known != memo->end()) {
    if (std::exchange(known->second.read, true)) {
      stats_.batch_collapsed_queries->Increment();  // Asked before: not asked again.
    }
    return known->second.answer;
  }
  // Never asked (a local leaf, or a remote one past the prefetch cap):
  // consult now, a remote leaf as a round trip of one.
  bool answer = false;
  if (Authority* remote = ResolveLocally(statement, &answer)) {
    stats_.remote_queries->Increment();
    answer = remote->VouchOne(statement, config_.remote_query_timeout_us);
  }
  memo->emplace(statement, MemoEntry{answer, /*read=*/true});
  return answer;
}

void Guard::PrefetchRemoteLeaves(std::span<const nal::Formula> leaves,
                                 std::span<const WaitingItem> waiting, AuthorityMemo* memo) {
  if (remote_authorities_.empty()) {
    return;  // Nothing could go out early: every leaf is consulted in order.
  }
  // Serial consultation stops at the first declined leaf, so a malicious
  // proof stuffed with authority leaves must not amplify into unbounded
  // eager consultations (or a giant Vouch payload). Leaves beyond the cap
  // are simply not prefetched; they are consulted in order as round trips
  // of one, preserving correctness.
  constexpr size_t kMaxPrefetchLeavesPerProof = 64;
  // Statements bound for one remote peer travel in a single Vouch round
  // trip; groups accumulate in first-seen order within each peer.
  std::map<Authority*, std::vector<nal::Formula>> remote_groups;
  for (const WaitingItem& w : waiting) {
    const size_t considered = std::min(w.end, w.first + kMaxPrefetchLeavesPerProof);
    for (size_t j = w.first; j < considered; ++j) {
      const nal::Formula& leaf = leaves[j];
      // Only a remote-bound leaf gains from going out early. An embedded
      // authority answers it first, in order; an IPC-port one is asked now,
      // since only its reply says whether it handles the leaf.
      if (memo->contains(leaf) || FirstHandling(remote_authorities_, leaf) == nullptr ||
          FirstHandling(embedded_authorities_, leaf) != nullptr) {
        continue;
      }
      bool answer = false;
      Authority* remote = ResolveLocally(leaf, &answer);
      memo->emplace(leaf, MemoEntry{answer, /*read=*/false});
      if (remote != nullptr) {
        remote_groups[remote].push_back(leaf);
      }
    }
  }
  // Issue every round trip BEFORE waiting on any: all wire messages are in
  // flight together on the simulated clock, so K peers cost max(latency),
  // not sum(latency).
  std::vector<VouchFuture> inflight;
  inflight.reserve(remote_groups.size());
  for (const auto& [remote, statements] : remote_groups) {
    stats_.remote_queries->Increment();  // One attested round trip for the whole group.
    inflight.push_back(remote->Vouch(statements, config_.remote_query_timeout_us));
  }
  // Harvest: a lost or late reply yields fail-closed denies.
  size_t next = 0;
  for (const auto& [remote, statements] : remote_groups) {
    VouchOutcome outcome = inflight[next++].Wait();
    for (size_t k = 0; k < statements.size(); ++k) {
      memo->at(statements[k]).answer = k < outcome.answers.size() && outcome.answers[k];
    }
  }
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
  const BatchItem item{request, goal, goal_id, proof, credentials, stamp};
  AuthzDecision decision;
  CheckBatch(std::span(&item, 1), std::span(&decision, 1));
  return decision;
}

std::optional<AuthzDecision> Guard::CheckImpl(const BatchItem& item,
                                              std::vector<nal::Formula>* leaves) {
  const AuthzRequest& request = item.request;
  const nal::Formula& goal = item.goal;
  const nal::Proof& proof = item.proof;
  nal::FormulaId goal_id = item.goal_id;
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

  // Only verdicts no authority answer decided are ever inserted, and only
  // when the caller supplied a credential stamp (the stamp is what ties a
  // cached verdict to the credential set it was checked under).
  bool may_cache = item.stamp.enabled();
  CacheKey cache_key;
  if (may_cache) {
    if (goal_id == nal::kInvalidFormulaId) {
      // Pointer-memoized in the interner: goals stored canonically (the
      // GoalStore interns on SetGoal) cost one hash-map probe here.
      goal_id = nal::Interner::Global().Intern(goal);
    }
    // ProofHash, not the proof's address: address reuse after free must
    // not replay a dead proof's verdict for a different proof (ABA).
    cache_key = CacheKey{goal_id, nal::ProofHash(proof), item.stamp.ids()};
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

  // Goal first: every authority leaf is recorded and taken as vouched. A
  // successful check visits every node, so a pass records every leaf.
  const size_t first = leaves->size();
  auto record = [leaves](const nal::Formula& statement) {
    leaves->push_back(statement);
    return true;
  };
  nal::CheckResult result = nal::CheckProof(proof, goal, item.credentials, std::ref(record));
  if (result.status.ok() && leaves->size() > first) {
    return std::nullopt;  // Allowed iff the recorded leaves vouch.
  }
  leaves->resize(first);  // Final: no answer can change it, so none is asked.

  // A denial caused by a missing credential must not be cached anywhere:
  // the subject may acquire the label later without touching its proof.
  bool cacheable = !result.missing_credential;
  if (may_cache && cacheable) {
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
  AuthzDecision decision = AuthzDecision::FromStatus(result.status, cacheable);
  EmitGuardCheck(request, cacheable ? uint16_t{0} : kernel::kTraceFlagUncacheable,
                 decision.allowed(), 0, goal_id);
  return decision;
}

AuthzDecision Guard::DecideByLeaves(const BatchItem& item, std::span<const nal::Formula> leaves,
                                    AuthorityMemo* memo) {
  // Every verdict here rests on fresh answers (§2.7): never cacheable.
  AuthzDecision decision = AuthzDecision::Allow(/*cacheable=*/false);
  for (const nal::Formula& leaf : leaves) {
    ++decision.consulted_authorities;
    if (!Consult(leaf, memo)) {
      decision.verdict = kernel::AuthzVerdict::kDeny;
      decision.deny_reason =
          PermissionDenied("authority declined to vouch for: " + leaf->ToString());
      break;
    }
  }
  EmitGuardCheck(item.request, kernel::kTraceFlagUncacheable, decision.allowed(),
                 decision.consulted_authorities, item.goal_id);
  return decision;
}

void Guard::CheckBatch(std::span<const BatchItem> items, std::span<AuthzDecision> decisions) {
  // Goal first: each item is checked once with its authority leaves
  // recorded in `leaves`, item after item. Only an item whose proof
  // discharges its goal keeps its leaves and waits on their answers.
  std::vector<nal::Formula> leaves;
  std::vector<WaitingItem> waiting;
  for (size_t i = 0; i < items.size(); ++i) {
    const size_t first = leaves.size();
    if (std::optional<AuthzDecision> verdict = CheckImpl(items[i], &leaves)) {
      decisions[i] = std::move(*verdict);
    } else {
      waiting.push_back(WaitingItem{i, first, leaves.size()});
    }
  }
  if (waiting.empty()) {
    return;
  }
  AuthorityMemo memo;
  PrefetchRemoteLeaves(leaves, waiting, &memo);
  for (const WaitingItem& w : waiting) {
    decisions[w.item] =
        DecideByLeaves(items[w.item], std::span(leaves).subspan(w.first, w.end - w.first), &memo);
  }
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

GuardPortHandler::GuardPortHandler(Guard* guard, const GoalStore* goals)
    : guard_(guard), goals_(goals) {}

kernel::IpcReply GuardPortHandler::Handle(const kernel::IpcContext&,
                                          const kernel::IpcMessage& message) {
  // Protocol: check(subject, op, obj, proof-text), with newline-separated
  // credential formulas in `data`. Subject, op and object cross as typed
  // id slots (this port is untrusted input: an op id must name an interned
  // operation, an object id an interned object).
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

  Result<uint64_t> operation = message.ArgU64(1);
  if (!operation.ok() || !kernel::IsKnownOpId(*operation)) {
    return kernel::IpcReply(InvalidArgument("guard protocol: op must be a known op id"));
  }
  const kernel::OpId op = static_cast<kernel::OpId>(*operation);
  Result<kernel::ObjectId> object = message.ArgObject(2);
  if (!object.ok()) {
    return kernel::IpcReply(object.status());
  }

  std::optional<GoalEntry> goal = goals_->Get(op, *object);
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

  AuthzDecision decision = guard_->Check(AuthzRequest{subject, op, *object},
                                         goal->goal, *proof, credentials);
  // Typed verdict reply: the cacheability bit rides in u64 slot 0 — the
  // designated-guard upcall consumer reads it structurally (ArgU64(0)).
  kernel::IpcReply reply(decision.ToStatus());
  reply.AddU64(decision.cacheable ? 1 : 0);
  return reply;
}

}  // namespace nexus::core

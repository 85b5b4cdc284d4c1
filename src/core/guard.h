// Guards (§2.6, §2.9).
//
// A guard receives an AuthzRequest plus (goal, proof, labels), checks the
// proof against the goal formula, authenticates the credentials, consults
// authorities for dynamic-state leaves, and answers an AuthzDecision
// (allow/deny, a cacheability bit, and accounting). Proof checking is
// amortized by an internal cache of the verdicts no authority answer
// decided, keyed on the interned goal identity, the proof's structural
// hash, and the caller's CredentialStamp — for the engine, the ids of the
// exact subject, system and object credential snapshots the check saw.
// All integers, no ToString() anywhere on the hot path. Entries are sound
// to reuse because a snapshot id names one immutable label set and labels
// are valid indefinitely; only authority consultations are repeated.
// Eviction preferentially removes the requesting principal's own entries
// and per-process-tree quotas bound the damage of principal-spawning
// exhaustion attacks.
//
// Check is CheckBatch run over one item, and CheckBatch asks an authority
// only when its answer can decide the verdict: GOAL FIRST. Each item's
// proof is checked once against its goal with every authority leaf
// recorded, not asked. A proof that fails even with every leaf vouched
// fails whatever the authorities answer — every checker rule passes a
// child's failure up and none recovers from one — so that deny is final,
// no authority is asked, and it is as cacheable as a static proof's
// verdict. A proof that passes with recorded leaves is allowed only if
// every one of them vouches. Those leaves are then asked across the
// batch: identical statements collapse to one consultation, all
// statements bound for one remote authority travel in a single Vouch
// round trip, and the round trips to every peer are issued before any is
// waited on, so K peers cost max(latency), not sum(latency). Every other
// leaf (local authorities, and remote leaves past the per-proof prefetch
// cap) is asked in record order through the same batch memo, stopping at
// the first decline, so a proof whose first leaf declines costs one
// consultation. Every verdict equals the serial one.
//
// Threading: the guard is safe for concurrent Check/CheckBatch callers.
// The proof-check cache is SHARDED by Mix64(quota root) — every entry a
// process tree can charge lives in exactly one shard, so §2.9 quota
// accounting stays exact while different subjects' evaluations take
// different shard mutexes and the engine's per-subject stripes never
// re-serialize on one guard lock. `proof_cache_capacity` is enforced per
// shard (total soft state ≤ capacity × kNumCacheShards; single-root
// workloads see exactly the configured capacity, as before). Counters
// are relaxed-atomic registry instruments, read through metrics(). The
// authority registries are append-only configuration: register
// authorities before concurrent checking starts. AuthorityMemo instances
// are batch-local.
#ifndef NEXUS_CORE_GUARD_H_
#define NEXUS_CORE_GUARD_H_

#include <array>
#include <atomic>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/authority.h"
#include "core/goalstore.h"
#include "kernel/kernel.h"
#include "nal/checker.h"
#include "nal/interner.h"
#include "util/metrics.h"

namespace nexus::core {

class Guard {
 public:
  struct Config {
    // Per cache shard; 0 disables the proof-check cache entirely (every
    // check re-verifies). A quota root's entries all live in one shard, so
    // a single process tree can cache at most this many verdicts.
    size_t proof_cache_capacity = 1024;
    // Maximum cache entries chargeable to one process tree (§2.9 quotas).
    // 0 means no process tree may cache anything — also a full disable.
    size_t per_root_quota = 256;
    // Deadline for one remote-authority consultation; expiry is a DENY.
    uint64_t remote_query_timeout_us = 10000;
  };

  // What a cached verdict is keyed on besides goal and proof identity: the
  // identity of the credential set it was checked under.
  //  - The engine passes Snapshots(subject, system, object), the ids of the
  //    credential snapshots it handed the check (labelstore.h). Nonzero ids
  //    are unique and empty sets share id 0, so equal stamps mean equal
  //    credentials — holders with empty stores share one entry.
  //  - Callers without snapshots pass an opaque version: 0 disables verdict
  //    caching for the check, and any other value promises that equal
  //    versions mean equal credentials. Version v is stored as {v, v, v},
  //    which no snapshot stamp can equal: its nonzero ids are distinct.
  class CredentialStamp {
   public:
    CredentialStamp(uint64_t version = 0)  // NOLINT: implicit by design.
        : ids_{version, version, version}, enabled_(version != 0) {}
    static CredentialStamp Snapshots(uint64_t subject, uint64_t system, uint64_t object) {
      CredentialStamp stamp;
      stamp.ids_ = {subject, system, object};
      stamp.enabled_ = true;
      return stamp;
    }
    bool enabled() const { return enabled_; }
    const std::array<uint64_t, 3>& ids() const { return ids_; }

   private:
    std::array<uint64_t, 3> ids_;
    bool enabled_;
  };

  // One unit of batched guard work: the request tuple plus everything the
  // engine resolved for it. `credentials` is a view: the caller keeps the
  // arrays behind it alive until CheckBatch returns.
  struct BatchItem {
    kernel::AuthzRequest request;
    nal::Formula goal;
    nal::FormulaId goal_id = nal::kInvalidFormulaId;  // Optional; interned if absent.
    nal::Proof proof;
    nal::CredentialView credentials;
    CredentialStamp stamp;
  };

  explicit Guard(kernel::Kernel* kernel);
  Guard(kernel::Kernel* kernel, const Config& config);

  // Registers an embedded authority (runs in the guard's address space; no
  // IPC round trip).
  void AddEmbeddedAuthority(Authority* authority);
  // Registers an external authority living behind an IPC port.
  void AddAuthorityPort(kernel::PortId port);
  // Registers an authority on a remote Nexus instance (reached over an
  // attested channel, src/net). Consulted last; every query carries the
  // configured deadline and an expired or unanswered query denies.
  void AddRemoteAuthority(Authority* authority);

  // Full guard evaluation: CheckBatch over one item. `proof` may be null
  // (denied unless the goal is `true`). The proof-check cache is keyed on
  // (goal identity, proof identity, `stamp`), so a credential change —
  // which publishes a new snapshot id — reaches a fresh entry without
  // hashing the credential set per call. The default stamp disables
  // verdict caching for this check.
  // `goal_id` is the goal's interned identity if the caller already has it
  // (GoalEntry carries one); kInvalidFormulaId makes the guard intern.
  kernel::AuthzDecision Check(const kernel::AuthzRequest& request, const nal::Formula& goal,
                              const nal::Proof& proof, nal::CredentialView credentials,
                              CredentialStamp stamp = {},
                              nal::FormulaId goal_id = nal::kInvalidFormulaId);

  // Batched evaluation: decisions[i] answers items[i] (`decisions` holds
  // at least items.size() slots). Verdict-equivalent to calling Check per
  // item; only leaves of proofs that discharge their goal are asked,
  // authority consultations are deduplicated batch-wide, and remote
  // consultations are coalesced into one Vouch round trip per remote
  // authority, all in flight together (see the class comment). The
  // consultation SET may exceed serial's only for remote-bound leaves:
  // those are prefetched (up to 64 per proof), so a proof whose local leaf
  // declines first still has its remote leaves consulted — answers affect
  // nothing beyond the verdict that asked. Authority answers stay
  // decision-scoped: the memo and every future are drained before this
  // call returns (§2.7 untransferability).
  // The caller (the engine's miss routine) flushes at designated-guard
  // items, so in-batch label mutations stay serially observable; within
  // one CheckBatch no item mutates label state.
  void CheckBatch(std::span<const BatchItem> items, std::span<kernel::AuthzDecision> decisions);

  // "guard.*" counters; a fresh Guard reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }
  void FlushCache();

  // Deployments tune the remote-query deadline to their link (callers that
  // registered a RemoteAuthority get this budget per consultation).
  void set_remote_query_timeout_us(uint64_t timeout_us) {
    config_.remote_query_timeout_us = timeout_us;
  }
  uint64_t remote_query_timeout_us() const { return config_.remote_query_timeout_us; }

 private:
  // Proof-check cache key: integers only. FormulaId makes goal equality
  // O(1); the proof participates by its memoized STRUCTURAL hash, never by
  // address — an address key is an ABA hazard (a freed proof's storage
  // reused by a different proof would replay the old verdict; see the
  // ProofHash contract in nal/proof.h). The hash is precomputed per node,
  // so a re-submitted proof still costs O(1) here. `credentials` is the
  // CredentialStamp's ids.
  struct CacheKey {
    nal::FormulaId goal_id = nal::kInvalidFormulaId;
    uint64_t proof_hash = 0;
    std::array<uint64_t, 3> credentials{};
    friend auto operator<=>(const CacheKey&, const CacheKey&) = default;
  };

  // Decision-scope memo of authority answers, keyed by structural hash
  // with Equals() confirmation. Deliberately NOT the global interner: proof
  // leaves are subject-supplied, and interning them would let SetProof
  // spam grow the append-only interner without bound. The memo dies with
  // the Check or CheckBatch call (§2.7 untransferability).
  struct MemoEntry {
    bool answer;
    bool read;  // False while a prefetched answer waits for its first reader.
  };
  struct StatementHash {
    size_t operator()(const nal::Formula& f) const { return nal::StructuralHash(f); }
  };
  struct StatementEqual {
    bool operator()(const nal::Formula& a, const nal::Formula& b) const {
      return nal::Equals(a, b);
    }
  };
  using AuthorityMemo =
      std::unordered_map<nal::Formula, MemoEntry, StatementHash, StatementEqual>;

  // Consults the local authorities on `statement`: embedded ones, then
  // IPC-port ones. Returns the remote authority that must answer instead
  // when no local one handles it; otherwise sets *answer (a deny when no
  // authority evaluates the statement at all).
  Authority* ResolveLocally(const nal::Formula& statement, bool* answer);
  // One leaf's answer: the memoized one, else a fresh consultation (a
  // remote one as a round trip of one) recorded in `memo`.
  bool Consult(const nal::Formula& statement, AuthorityMemo* memo);

  // An item whose proof discharges its goal if every authority leaf it
  // recorded vouches: those leaves are leaves[first, end) of the batch's
  // record.
  struct WaitingItem {
    size_t item;
    size_t first;
    size_t end;
  };
  // Asks the remote-bound leaves of every waiting item (at most 64 per
  // proof) and folds the answers into `memo`: duplicates collapse, each
  // remote authority gets one Vouch, and every Vouch is issued before any
  // is waited on. A leaf an IPC-port authority answers first is answered
  // here too, since only its reply says whether it handles the leaf.
  void PrefetchRemoteLeaves(std::span<const nal::Formula> leaves,
                            std::span<const WaitingItem> waiting, AuthorityMemo* memo);

  // The goal-first check of one item: its proof against its goal with
  // every authority leaf appended to `leaves` instead of asked. Returns the
  // final verdict, or nullopt when the proof discharges the goal only if
  // the leaves it appended vouch (a final verdict appends none).
  std::optional<kernel::AuthzDecision> CheckImpl(const BatchItem& item,
                                                 std::vector<nal::Formula>* leaves);
  // The verdict of a waiting item: allowed iff each of `leaves` vouches,
  // asked in record order up to the first decline; never cacheable.
  kernel::AuthzDecision DecideByLeaves(const BatchItem& item,
                                       std::span<const nal::Formula> leaves,
                                       AuthorityMemo* memo);

  struct CacheEntry {
    CacheKey key;
    // The proof the verdict was checked under. ProofHash is not
    // cryptographic, so a hit must confirm ProofEquals before replaying
    // the verdict — an engineered 64-bit collision must cost a full
    // re-check, never an authorization. (Holding the proof also pins its
    // nodes, so a cached key can never refer to freed storage.)
    nal::Proof proof;
    bool verdict;
    kernel::ProcessId quota_root;
  };
  // One proof-check cache shard: LRU list + index + per-root usage, under
  // its own mutex. All state is soft (§2.9).
  struct CacheShard {
    std::mutex mu;
    std::list<CacheEntry> lru;
    std::map<CacheKey, std::list<CacheEntry>::iterator> index;
    std::map<kernel::ProcessId, size_t> root_usage;
  };
  static constexpr size_t kNumCacheShards = 16;

  CacheShard& ShardFor(kernel::ProcessId quota_root) {
    return cache_shards_[kernel::Mix64(quota_root) % kNumCacheShards];
  }
  // Caller holds shard.mu.
  void InsertCacheEntryLocked(CacheShard& shard, kernel::ProcessId quota_root,
                              const CacheKey& key, const nal::Proof& proof, bool verdict);

  kernel::Kernel* kernel_;
  Config config_;
  std::vector<Authority*> embedded_authorities_;
  std::vector<kernel::PortId> authority_ports_;
  std::vector<Authority*> remote_authorities_;

  CacheShard cache_shards_[kNumCacheShards];

  // Registry instruments ("guard.*"): relaxed-atomic tallies, never
  // synchronizing data.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "guard"};
  struct {
    metrics::Counter* checks;
    metrics::Counter* cache_hits;
    metrics::Counter* authority_queries;
    // Remote round trips: one per Vouch issued (however many statements
    // it carried).
    metrics::Counter* remote_queries;
    metrics::Counter* evictions;
    // Consultations saved by collapsing duplicate authority queries within
    // one Check or CheckBatch.
    metrics::Counter* batch_collapsed_queries;
  } stats_{metrics_.NewCounter("checks"),
           metrics_.NewCounter("cache_hits"),
           metrics_.NewCounter("authority_queries"),
           metrics_.NewCounter("remote_queries"),
           metrics_.NewCounter("evictions"),
           metrics_.NewCounter("batch_collapsed_queries")};
};

// A guard exposed as an IPC service (designated guards, Figure 1: the
// kernel upcalls `check(sbj, op, obj, proof, labels)` over IPC).
class GuardPortHandler : public kernel::PortHandler {
 public:
  GuardPortHandler(Guard* guard, const GoalStore* goals);
  kernel::IpcReply Handle(const kernel::IpcContext& context,
                          const kernel::IpcMessage& message) override;

 private:
  Guard* guard_;
  const GoalStore* goals_;
};

}  // namespace nexus::core

#endif  // NEXUS_CORE_GUARD_H_

// TraceAuditor: after-the-fact checking of concurrent authorization
// traces against the paper's single-threaded model.
//
// Inputs are the two observability streams the kernel already produces:
//   - FlightRecorder events, harvested per ring via the Drain() cursor API
//     (per-ring order is exact: timestamps are ring-local sequence
//     numbers, and a logical call's synchronous stages run on one thread,
//     so a trace occupies a CONTIGUOUS run of slots in its ring);
//   - MutationLog records, each stamped with the EXACT post-bump
//     per-shard decision-cache generations of the mutated subregion (read
//     under the same lock as the invalidation bump, so a stamp can never
//     overshoot a concurrent bump).
//
// Two families of checks:
//
// SERIALIZABILITY. Every verdict event carries the subregion generation
// it is valid under (the probe's on a cache hit; re-read after the engine
// returned on a miss). Joining [probe_gen, verdict_gen] against the
// mutation timeline for the verdict's (subregion-index, shard) yields the
// set of policy states a serial replay could have shown this call:
// every state in the window, plus the pair's next installed goal past the
// window (a mutation installs state BEFORE its generation bump lands, so
// an in-flight miss may legitimately observe it early — the same race the
// kernel's InsertIfUnchanged discipline handles). A verdict (or a guard's
// observed goal, stamped into kGuardCheck.generation) outside that
// admissible set is a serializability violation: no interleaving of the
// logged mutations replayed serially produces it.
//
// IBOS-STYLE STRUCTURAL INVARIANTS (the interposition surface):
//   - guard-present: a chain that evaluated an engine miss on an audited
//     (op, obj) — audited pairs always carry goals, so the bootstrap
//     DefaultPolicy never applies — must contain its guard-check (or
//     designated-guard upcall) stage;
//   - generation monotonicity: within one ring, generation stamps for one
//     (subregion, shard) never decrease (the counters only grow, and a
//     thread reads them in program order) — a verdict observed BELOW the
//     ring's high-water mark outlived an invalidation it should not have;
//   - interceptor traversal: every kCall event naming a port registered
//     as interposed must carry kTraceFlagInterposed.
//
// Drop tolerance: 256-slot rings wrap under load faster than any harvest
// cadence; the auditor treats the drained stream as a SAMPLE. Value
// checks apply to every verdict seen (verdict events are self-sufficient
// via their generation stamp); structural checks apply only to chains
// whose contiguity proves them complete. Dropped-event counts are
// reported so a run's coverage is explicit.
//
// Threading contract: one ingesting thread at a time (the driver's
// harvest thread); Finish() after ingestion stops. The auditor never
// touches the kernel — it can equally audit hand-built event sequences
// (the negative-path tests do).
#ifndef NEXUS_HARNESS_AUDITOR_H_
#define NEXUS_HARNESS_AUDITOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/decision_cache.h"
#include "kernel/trace.h"
#include "kernel/types.h"
#include "nal/interner.h"

namespace nexus::harness {

class TraceAuditor {
 public:
  struct Config {
    // Must mirror the audited kernel's DecisionCache::Config — the
    // auditor recomputes shard and subregion placement.
    size_t cache_shards = 8;
    size_t cache_subregions = 64;
  };

  // Violations kept verbatim in Report::samples (the rest are counted).
  static constexpr size_t kMaxViolationSamples = 32;

  struct Violation {
    std::string kind;    // "serializability" | "stale_generation" | ...
    std::string detail;  // Human-readable specifics.
  };

  struct Report {
    uint64_t events_ingested = 0;
    uint64_t mutations_ingested = 0;
    uint64_t events_dropped = 0;  // Ring wraparound (coverage, not error).
    uint64_t chains_finalized = 0;
    uint64_t complete_chains = 0;
    uint64_t verdicts_checked = 0;  // Audited-pair verdicts value-checked.
    uint64_t serializability_violations = 0;
    uint64_t stale_generation_violations = 0;
    uint64_t guard_bypass_violations = 0;
    uint64_t interposition_violations = 0;
    // A verdict served below a ring high-water mark raised by a REMOTE
    // invalidation (mesh cross-node coherence): the cached answer outlived
    // a peer's goal/proof change that should have retired it.
    uint64_t remote_invalidation_violations = 0;
    std::vector<Violation> samples;  // First kMaxViolationSamples.

    uint64_t total_violations() const {
      return serializability_violations + stale_generation_violations +
             guard_bypass_violations + interposition_violations +
             remote_invalidation_violations;
    }
    bool clean() const { return total_violations() == 0; }
    std::string Summary() const;
  };

  explicit TraceAuditor(Config config);

  // Registers an audited (op, obj) pair. `allow_goal_id` is the interned
  // goal formula under which proof holders are allowed; any other
  // installed goal denies everyone. `initial_goal_id` is the goal in
  // force before the first logged mutation. `proof_holders` is the fixed
  // set of subjects holding valid proofs for this pair (proofs must not
  // be mutated mid-audit; proof mutations are consumed for their
  // generation bumps only).
  void AuditPair(kernel::OpId op, kernel::ObjectId obj, nal::FormulaId allow_goal_id,
                 nal::FormulaId initial_goal_id,
                 std::span<const kernel::ProcessId> proof_holders);

  // Every complete chain whose kCall event names `port` must have
  // traversed an interceptor.
  void RequireInterposed(kernel::PortId port);

  // Feed one drained ring segment (events in ring order; `begin_seq` from
  // FlightRecorder::DrainedSegment detects front truncation between
  // visits, `lossless_start` whether anything was lost BEFORE this
  // segment — a cursor's first visit to a wrapped ring has no previous
  // position for begin_seq to be contiguous with, so the flag is the only
  // signal that the oldest retained chain may be missing its head).
  void IngestSegment(size_t ring, uint64_t begin_seq,
                     std::span<const kernel::TraceEvent> events,
                     bool lossless_start = true);
  // Feed mutation records (in seq order, as MutationLog::DrainFrom yields).
  void IngestMutations(std::span<const kernel::MutationRecord> records);
  void NoteDropped(uint64_t dropped);

  // Convenience: drain both global streams into this auditor using its
  // own cursors. Call repeatedly during a run; cheap when nothing is new.
  void Harvest();

  // Flushes pending per-ring tails (conservatively treated as truncated)
  // and deferred verdicts, then returns the report.
  Report Finish();

  const Report& report() const { return report_; }

 private:
  // One installed goal state for an audited pair, stamped with the exact
  // post-bump generation of every shard (straight from the mutation log).
  struct PairChange {
    nal::FormulaId goal_id = 0;  // 0 = goal cleared.
    std::vector<uint64_t> gens;  // Per shard.
  };
  // Per-subregion high-water mark of logged mutation stamps, per shard.
  // Distinct (op, obj) pairs hash into one subregion and share its
  // generation counters, so EVERY logged mutation in the subregion —
  // goal or proof, audited pair or not — raises the mark.
  struct Timeline {
    std::vector<uint64_t> max_gens;
  };
  struct AuditedPair {
    nal::FormulaId allow_goal_id = 0;
    nal::FormulaId initial_goal_id = 0;
    std::set<kernel::ProcessId> holders;
    size_t subregion = 0;
    // The pair's goal changes in log order. Installs on one pair are
    // serialized (the engine documents the requirement), so exact stamps
    // strictly increase across successive changes on EVERY shard axis —
    // the list is simultaneously sorted by gens[shard] for every shard,
    // and window queries binary-search it directly.
    std::vector<PairChange> changes;
  };
  // Per-ring chain assembly state.
  struct RingState {
    uint64_t expected_next = 0;  // Timestamp the next event should carry.
    bool truncated = false;      // Current run may be missing its head.
    std::vector<kernel::TraceEvent> run;  // Contiguous same-trace events.
  };
  // A verdict whose generation is past the newest logged mutation: the
  // mutation may simply not have been drained yet. Deferred to Finish().
  struct PendingVerdict {
    kernel::TraceEvent verdict;
    uint64_t probe_gen = 0;
    nal::FormulaId observed_goal = 0;
  };

  static uint64_t PairKey(kernel::OpId op, kernel::ObjectId obj) {
    return (static_cast<uint64_t>(op) << 32) | obj;
  }
  size_t ShardOf(kernel::ProcessId subject) const {
    return static_cast<size_t>(kernel::Mix64(subject) % config_.cache_shards);
  }
  size_t SubregionOf(kernel::OpId op, kernel::ObjectId obj) const {
    return kernel::DecisionCache::SubregionIndexOf(op, obj, config_.cache_subregions);
  }

  void AddViolation(uint64_t* counter, std::string_view kind, std::string detail);
  void FinalizeRun(size_t ring, RingState* state, bool complete_tail);
  void CheckChain(size_t ring, const std::vector<kernel::TraceEvent>& chain,
                  bool complete);
  void CheckRingMonotonicity(size_t ring, const kernel::TraceEvent& event);
  // Value-checks one audited-pair verdict against the mutation timeline,
  // or defers it. `observed_goal` is the chain's guard-check stamp (0 if
  // none survived).
  void CheckVerdict(const kernel::TraceEvent& verdict, uint64_t probe_gen,
                    nal::FormulaId observed_goal, bool defer_allowed);
  // The admissible goal-state set for `pair` over the generation window
  // [probe_gen, verdict_gen] on `shard`.
  std::vector<nal::FormulaId> AdmissibleGoals(const AuditedPair& pair, size_t shard,
                                              uint64_t probe_gen,
                                              uint64_t verdict_gen) const;

  Config config_;
  Report report_;
  bool finished_ = false;
  std::map<uint64_t, AuditedPair> audited_;        // By PairKey.
  std::set<kernel::PortId> interposed_ports_;
  std::map<size_t, Timeline> timelines_;           // By subregion index.
  std::map<size_t, RingState> ring_states_;        // By ring index.
  // Per ring: high-water generation per (subregion, shard), tagged with
  // whether a remote invalidation (mesh) was the last raiser — a verdict
  // below a remote-raised mark is a cross-node coherence violation, below
  // a locally-raised one a plain stale_generation.
  struct GenMark {
    uint64_t gen = 0;
    bool remote = false;
  };
  std::map<size_t, std::unordered_map<uint64_t, GenMark>> ring_gen_seen_;
  // Join table for kRemoteInvalidate EVENTS: (PairKey, epoch) -> the exact
  // per-shard post-bump generations their mutation record carried. One
  // trace event cannot hold per-shard vectors; the record can. Bounded.
  static constexpr size_t kMaxRemoteInvalJoin = 8192;
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>> remote_inval_gens_;
  std::vector<PendingVerdict> pending_;
  kernel::FlightRecorder::DrainCursor event_cursor_;
  uint64_t mutation_cursor_ = 0;
};

}  // namespace nexus::harness

#endif  // NEXUS_HARNESS_AUDITOR_H_

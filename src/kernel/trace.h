// The flight recorder: per-call decision provenance (ROADMAP "trace
// checking" substrate).
//
// Fixed-size per-thread ring buffers of POD TraceEvents, emitted at every
// stage an authorization decision passes through — Kernel::CallMany,
// the decision-cache probe, the engine miss, the guard check, designated-
// guard upcalls, and remote-authority vouches — and correlated by a
// per-call trace id threaded through the call (a thread-local scope plus
// the AuthzRequest.trace field). One interposed fileserver read therefore
// yields its full provenance chain: Call -> cache probe -> engine miss ->
// guard check -> verdict.
//
// Cost model: the recorder is OFF by default. Disabled, every emission
// site pays one relaxed atomic load (and TraceScope two thread-local
// moves). Enabled, an emit is ~10 atomic stores into the calling thread's
// own ring — no locks, no allocation, no cross-thread contention, and NO
// cycle-counter read: event timestamps are per-ring sequence numbers
// (exact order within a thread — and a trace's synchronous stages run on
// one thread — approximate across rings). rdtsc, which costs more than a
// whole emit on virtualized hosts, is paid only on paths that already
// cross the engine (miss evaluation, syscall dispatch), where its cost
// disappears into microseconds of real work. That is what keeps the
// traced fig7 kref-min overhead inside the <=5% budget.
//
// Concurrency: each ring has exactly one writer (its thread); readers
// (Recent(), the proc:/trace/recent node) validate each slot with a
// per-slot sequence word, seqlock-style, over all-atomic slot words — so
// a reader racing the writer drops the in-flight slot instead of tearing
// it, and TSan sees only atomics. Rings are owned by the recorder and
// recycled through a free list when threads exit; they are never freed,
// so a reader can never touch a dead ring.
#ifndef NEXUS_KERNEL_TRACE_H_
#define NEXUS_KERNEL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernel/types.h"
#include "util/cycles.h"

namespace nexus::kernel {

// Where in the decision pipeline an event was emitted.
enum class TraceStage : uint8_t {
  kCall = 1,        // Kernel::Call completed (aux = port).
  kSyscall,         // A syscall-port crossing admitted a message
                    // (aux = syscall number).
  kCacheProbe,      // Decision-cache lookup (generation = subregion gen).
  kEngineMiss,      // Engine::Authorize evaluating a miss.
  kGuardCheck,      // Guard::CheckImpl verdict (aux = consulted authorities,
                    // generation = goal FormulaId the guard evaluated).
  kGuardUpcall,     // Designated-guard IPC upcall (aux = guard port).
  kRemoteVouch,     // Remote-authority round trip (aux = statement count).
  kVerdict,         // Kernel::Authorize final answer (latency = miss-path
                    // evaluation cycles, 0 on a cache hit; generation = the
                    // subregion generation the verdict is valid under — the
                    // probe generation on a hit, re-read after the engine
                    // returned on a miss).
  kReplyInterpose,  // Reply-direction interceptor traversal completed
                    // (aux = port). Emitted AFTER the monitors ran, so the
                    // auditor can require it on every completed interposed
                    // call: a reply the chain never saw has no such event.
  kRemoteInvalidate,  // A peer instance's goal/proof mutation retired this
                      // instance's cached verdicts for (op, obj) (aux = the
                      // origin's invalidation epoch, generation = max
                      // post-bump subregion generation). Emitted AFTER the
                      // subregion bump, so any later verdict on the emitting
                      // thread observes at least the stamped generations —
                      // the ordering the auditor's stale-remote-verdict rule
                      // relies on (see harness/auditor.cc).
};

inline constexpr uint16_t kTraceFlagCacheHit = 1u << 0;
inline constexpr uint16_t kTraceFlagCacheMiss = 1u << 1;
inline constexpr uint16_t kTraceFlagRemote = 1u << 2;
inline constexpr uint16_t kTraceFlagInterposed = 1u << 3;
inline constexpr uint16_t kTraceFlagUpcall = 1u << 4;
inline constexpr uint16_t kTraceFlagDenied = 1u << 5;
inline constexpr uint16_t kTraceFlagProofCacheHit = 1u << 6;
inline constexpr uint16_t kTraceFlagUncacheable = 1u << 7;
// The call entered the kernel through a CallMany batch (one boundary
// crossing shared by every message carrying this flag's trace id).
inline constexpr uint16_t kTraceFlagBatched = 1u << 8;

// Verdict byte: 0 = not a verdict-carrying stage.
inline constexpr uint8_t kTraceVerdictNone = 0;
inline constexpr uint8_t kTraceVerdictAllow = 1;
inline constexpr uint8_t kTraceVerdictDeny = 2;

struct TraceEvent {
  uint64_t trace_id = 0;   // Correlates all stages of one call; 0 = untraced.
  uint64_t timestamp = 0;  // Per-ring sequence number assigned at emit
                           // (ordering key, not wall time; see file comment).
  ProcessId subject = 0;
  OpId op = 0;
  ObjectId obj = 0;
  uint64_t generation = 0;  // Cache subregion generation (kCacheProbe).
  uint64_t aux = 0;         // Stage-specific (see TraceStage).
  uint32_t latency = 0;     // Stage latency in cycles, 0 if not measured.
  uint16_t flags = 0;
  uint8_t verdict = kTraceVerdictNone;
  TraceStage stage = TraceStage::kCall;
};

std::string_view TraceStageName(TraceStage stage);
// Human/procfs rendering, one "trace=<id> stage=<name> ..." line per event.
std::string FormatTraceEvents(const std::vector<TraceEvent>& events);

class FlightRecorder {
 public:
  // Slots per ring; power of two. One slot is one 64-byte cache line, so
  // a ring is 16 KiB — deliberately smaller than L1d: the writer cycles
  // through it continuously, and a larger ring measurably taxes the
  // traced hot path by evicting the payload working set (the fig7 1500B
  // overhead nearly doubled with 64 KiB rings).
  static constexpr size_t kRingCapacity = 256;

  static FlightRecorder& Global();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Unique, not globally ordered: each thread takes a block of ids with
  // one fetch_add and hands them out locally — a locked RMW per traced
  // root call would cost as much as the emit itself on this host.
  uint64_t NewTraceId();

  // Records `event` into the calling thread's ring (no-op when disabled).
  void Emit(const TraceEvent& event);

  // Each ring's newest `max_per_ring` retained events, ring by ring, each
  // ring in its own order — the bounded tail proc:/trace/recent renders;
  // the default returns every retained event. Nothing is cut across rings:
  // timestamps are ring-local sequence numbers, so a merged "newest N"
  // would keep only the busiest ring's tail. A slot being overwritten
  // mid-read is dropped.
  std::vector<TraceEvent> Recent(size_t max_per_ring = kRingCapacity) const;
  // All retained events of one trace (from every ring), in timestamp order.
  std::vector<TraceEvent> ForTrace(uint64_t trace_id) const;

  // --- Cursor-based harvest (the auditor-facing drain API) -------------
  //
  // Recent() is a snapshot: a soak emitting millions of events through
  // 256-slot rings loses everything between two snapshots to wraparound.
  // Drain() instead remembers, per ring, the next sequence number to read
  // and returns only new events — called often enough it observes every
  // event; called too rarely it reports exactly how many were overwritten
  // (`dropped`) so the consumer knows its coverage.
  //
  // Events are returned per ring (one DrainedSegment per ring with news),
  // NOT merged: per-ring order is the only exact order the recorder has
  // (timestamps are ring-local sequence numbers), and the auditor's
  // chain-completeness and monotonicity checks depend on it. begin_seq is
  // the timestamp the segment's first event would carry if no slot was
  // skipped mid-write, so a consumer can detect front truncation.
  struct DrainedSegment {
    size_t ring = 0;          // Stable ring index (rings are never freed).
    uint64_t begin_seq = 0;   // Expected timestamp of events.front().
    // True when NOTHING was lost before begin_seq: the cursor is
    // contiguous with its previous visit, or the ring genuinely starts
    // here (seq 1 / deliberate Clear). False when the writer wrapped past
    // unread history — a cursor's FIRST visit to a busy ring may already
    // be missing the head of its oldest retained trace, which a consumer
    // cannot detect from begin_seq alone (there was no previous visit to
    // be contiguous with).
    bool lossless_start = false;
    std::vector<TraceEvent> events;
  };
  struct DrainStats {
    uint64_t drained = 0;  // Events appended to `out` by this call.
    uint64_t dropped = 0;  // Events overwritten before they could be read.
  };
  // Opaque per-consumer position; value-initialized cursor = "start now"
  // (the first Drain returns what the rings currently retain, with
  // nothing counted as dropped — history before the cursor existed is not
  // a drop). Each consumer owns its cursor; Drain itself is thread-safe.
  class DrainCursor {
   public:
    DrainCursor() = default;

   private:
    friend class FlightRecorder;
    std::vector<uint64_t> next_;  // Per ring: next sequence index to read.
  };
  DrainStats Drain(DrainCursor* cursor, std::vector<DrainedSegment>* out) const;

  // Logically drops all retained events (readers skip them; writers are
  // not disturbed).
  void Clear();

  // Total events ever emitted (including overwritten ones).
  uint64_t events_emitted() const;
  size_t ring_count() const;

 private:
  struct Slot {
    // Seqlock per slot: odd = write in progress, even 2*(n+1) = generation
    // of the n-th write. All-atomic payload words keep readers race-free;
    // a torn read is rejected by the sequence check, never observed.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> word[7] = {};
  };
  struct Ring {
    std::atomic<uint64_t> head{0};           // Next slot index (monotonic).
    std::atomic<uint64_t> cleared_below{0};  // Readers skip indices below.
    std::vector<Slot> slots{kRingCapacity};
  };

  FlightRecorder() = default;

  Ring* RingForThisThread();
  Ring* AcquireRing();
  void ReleaseRing(Ring* ring);
  // Seqlock-validated read of the ring's newest `max` retained events;
  // appends to out.
  void ReadRing(const Ring& ring, size_t max, std::vector<TraceEvent>* out) const;
  // Seqlock-validated read of ring indices [from, to); appends to out.
  void ReadRingRange(const Ring& ring, uint64_t from, uint64_t to,
                     std::vector<TraceEvent>* out) const;

  struct ThreadRingSlot;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_trace_id_{1};
  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;  // All rings ever created.
  std::vector<Ring*> free_rings_;             // Returned by exited threads.
};

// --- Mutation log -----------------------------------------------------
//
// The flight recorder captures the READ side of the decision plane; the
// mutation log captures the WRITE side: every SetGoal/ClearGoal/SetProof/
// ClearProof/Say the engine applies, stamped with the EXACT post-bump
// decision-cache subregion generations of its invalidation (captured
// under the bumping shard's lock, so stamps cannot overshoot concurrent
// bumps — see DecisionCache::InvalidateSubregion).
// A trace auditor joins the two by generation: a verdict event carrying
// generation g was computed against the state between the last mutation
// whose stamp is <= g and the next one — which is exactly what a
// single-threaded replay of the mutation sequence would have produced,
// so serializability is checkable after the fact.
//
// Mutations are control-plane rate (a setgoal per policy flip, not per
// call), so a mutex over a bounded deque is the right shape — no seqlock
// heroics. Off by default, like the recorder.

enum class MutationKind : uint8_t {
  kSetGoal = 1,
  kClearGoal,
  kSetProof,
  kClearProof,
  kSay,
  // A cross-node invalidation applied by the mesh (src/net/mesh): a peer's
  // goal/proof mutation, replayed here as a subregion clear. `detail` is
  // the origin's epoch; `generations` are the exact post-bump stamps, same
  // contract as local goal mutations. Not a goal CHANGE from the auditor's
  // perspective (the goal text lives on the origin node) — it only moves
  // the generation frontier.
  kRemoteInvalidate,
};

struct MutationRecord {
  uint64_t seq = 0;      // Log order, assigned by Append (1-based).
  MutationKind kind = MutationKind::kSetGoal;
  ProcessId subject = 0;  // Proof mutations; 0 otherwise.
  OpId op = 0;            // Subregion key (goal/proof mutations); 0 for Say.
  ObjectId obj = 0;
  uint64_t detail = 0;   // Goal FormulaId (kSetGoal), said FormulaId (kSay).
  // Exact post-bump decision-cache generation of the mutated subregion,
  // per shard (for single-entry proof invalidations, exact on the
  // subject's shard; best-effort elsewhere). Empty for kSay (labels are
  // append-only and do not invalidate cached verdicts).
  std::vector<uint64_t> generations;
};

class MutationLog {
 public:
  // Records retained; over it the oldest are dropped.
  static constexpr size_t kCapacity = size_t{1} << 16;

  static MutationLog& Global();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Appends (assigns record.seq). Over capacity the oldest records are
  // dropped. Thread-safe.
  uint64_t Append(MutationRecord record);

  // Appends every record with seq > *cursor to `out` and advances the
  // cursor. A value-initialized cursor (0) drains from the oldest retained
  // record. The work is proportional to the records drained, not to the
  // records retained. Thread-safe; each consumer owns its cursor.
  size_t DrainFrom(uint64_t* cursor, std::vector<MutationRecord>* out) const;

  void Clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  // Seq-contiguous: Append pushes the next seq at the back and eviction
  // and Clear only remove from the front.
  std::deque<MutationRecord> records_;
  uint64_t next_seq_ = 1;
};

// The calling thread's active trace id (0 outside any traced call).
uint64_t CurrentTraceId();

// RAII trace correlation for a kernel entry point: when the recorder is
// enabled, adopts the surrounding trace id (nested Calls share the root's
// id) or allocates a fresh one at the root. Disabled, it costs one relaxed
// load and two thread-local moves; enabled, it adds only the id handling —
// deliberately no cycle read (see the cost model above). Sites that want a
// stage latency read the counter themselves on their slow path.
class TraceScope {
 public:
  TraceScope();
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool active() const { return id_ != 0; }
  uint64_t id() const { return id_; }

 private:
  uint64_t saved_ = 0;
  uint64_t id_ = 0;
};

}  // namespace nexus::kernel

#endif  // NEXUS_KERNEL_TRACE_H_

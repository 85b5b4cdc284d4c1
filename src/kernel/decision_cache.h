// The kernel decision cache (§2.8).
//
// Caches guard verdicts keyed by the access-control tuple (subject,
// operation, object). The tuple is interned: lookups hash three integers,
// never strings (string-taking overloads intern-and-forward). Two
// invalidation granularities exist:
//   - a proof update clears the single affected entry;
//   - a setgoal may affect many entries, so the hash function places all
//     entries with the same (operation, object) into the same *subregion*
//     and setgoal clears that subregion.
// Subregion size is configurable and trades invalidation cost against
// collision rate (an ablation benchmark sweeps it).
//
// The cache is SHARDED by Mix64(subject) so a multi-worker authorization
// frontend scales: each shard holds its own subregion array, counters,
// mutex and sequence word. Because the shard function ignores (operation,
// object), a setgoal invalidation broadcasts the subregion clear to every
// shard; metrics().Value sums the per-shard counters.
//
// A lookup stores nothing shared. It is a seqlock reader: it reads the
// subregion generation and probes the entries between two reads of the
// shard's sequence word, and retries if a writer was inside (the word was
// odd) or came and went (the word changed). Writers take the shard mutex;
// an insert makes the word odd around its entry stores. A reader that
// keeps finding a writer inside takes the mutex instead of spinning.
//
// Every (shard, subregion) carries a GENERATION, bumped on invalidation,
// Clear, and Resize. An entry is live only while its stamp equals the
// generation the reader read, so a bump retires entries without touching
// the sequence word. A caller computing a verdict outside the cache lock
// (the kernel's engine upcall) takes the generation its miss read and
// inserts with InsertIfUnchanged: a concurrent setgoal/setproof that
// invalidated the subregion in between bumps the generation and the stale
// verdict is dropped instead of cached — preserving the serial decision
// order the flush-boundary discipline defines.
#ifndef NEXUS_KERNEL_DECISION_CACHE_H_
#define NEXUS_KERNEL_DECISION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "kernel/types.h"
#include "util/metrics.h"

namespace nexus::kernel {

class DecisionCache {
 public:
  struct Config {
    // Per shard; total capacity is num_shards * num_subregions *
    // entries_per_subregion. (num_shards is last so legacy positional
    // initializers keep their meaning.)
    size_t num_subregions = 64;
    size_t entries_per_subregion = 64;
    size_t num_shards = 8;
  };

  DecisionCache();
  explicit DecisionCache(const Config& config);

  // Returns the cached verdict, if any. Thread-safe; takes no lock unless
  // a writer keeps the shard busy. When `generation` is non-null it
  // receives the subregion generation the probe ran under: a hit's entry
  // carries exactly that stamp, and a miss may use it as the snapshot
  // for InsertIfUnchanged.
  std::optional<bool> Lookup(const AuthzRequest& request, uint64_t* generation = nullptr);
  std::optional<bool> Lookup(ProcessId subject, std::string_view operation,
                             std::string_view object) {
    return Lookup(AuthzRequest::Of(subject, operation, object));
  }

  // Records a verdict (only cacheable decisions should be inserted).
  // Thread-safe.
  void Insert(const AuthzRequest& request, bool allow);
  void Insert(ProcessId subject, std::string_view operation, std::string_view object,
              bool allow) {
    Insert(AuthzRequest::Of(subject, operation, object), allow);
  }

  // The current generation of the subregion holding `request`. Snapshot it
  // before computing a verdict outside the cache lock; pass it to
  // InsertIfUnchanged to drop the verdict if an invalidation raced it.
  uint64_t Generation(const AuthzRequest& request) const;

  // The generation of (op, obj)'s subregion in EVERY shard, in shard
  // order. This is the mutation log's stamp: read after an invalidation
  // bump it tells a trace auditor exactly which cached-verdict window the
  // mutation retired, per shard. Each shard is read in turn (not a
  // global snapshot; generations only grow, which is all the auditor
  // needs).
  std::vector<uint64_t> SubregionGenerations(OpId op, ObjectId obj) const;

  // The subregion index function, exposed so an external auditor can
  // compute which subregion a (op, obj) pair lands in. Subject is
  // deliberately excluded (see SubregionIndex in the .cc).
  static size_t SubregionIndexOf(OpId op, ObjectId obj, size_t num_subregions);

  // Inserts `allow` only if the subregion generation still equals
  // `generation` (no invalidation landed since the snapshot). Returns
  // whether the insert happened. Thread-safe.
  bool InsertIfUnchanged(const AuthzRequest& request, bool allow, uint64_t generation);

  // Proof update: clears the single matching entry (it lives only in the
  // subject's shard) and bumps that subregion's generation. Thread-safe.
  // When `post_gen` is non-null it receives the EXACT post-bump generation
  // of the bumped (shard, subregion) — read under the same lock as the
  // bump, so it cannot overshoot (the mutation-log auditor depends on
  // exact stamps to order mutations on the generation axis).
  void InvalidateEntry(const AuthzRequest& request, uint64_t* post_gen = nullptr);
  void InvalidateEntry(ProcessId subject, std::string_view operation,
                       std::string_view object) {
    InvalidateEntry(AuthzRequest::Of(subject, operation, object));
  }

  // setgoal: clears the subregion holding all entries for (operation,
  // object) in EVERY shard (subjects hash across shards). Thread-safe.
  // `post_gens`, when non-null, receives the exact post-bump generation of
  // every shard (same exactness contract as InvalidateEntry).
  void InvalidateSubregion(OpId op, ObjectId obj,
                           std::vector<uint64_t>* post_gens = nullptr);
  void InvalidateSubregion(std::string_view operation, std::string_view object) {
    InvalidateSubregion(InternOp(operation), InternObject(object));
  }

  // Drops everything (the cache is soft state; this is always safe).
  void Clear();

  // Runtime resize (any field, including the shard count); drops contents.
  // Not safe concurrently with other operations — quiesce the frontend
  // first (the cache is reconfigured, not just mutated).
  void Resize(const Config& config);

  // "cache.*" counters, summed over shards by Value. Cumulative from
  // construction: a Resize keeps counting (a fresh cache reads zero).
  const metrics::MetricGroup& metrics() const { return metrics_; }
  // Which shard `subject`'s entries live in.
  size_t ShardOf(ProcessId subject) const;

  const Config& config() const { return config_; }

 private:
  // Fields are atomics: a lookup reads them while an insert under the
  // shard mutex may be storing them, and the sequence word, not the field,
  // tells the reader whether what it read is whole (Lookup in the .cc
  // gives the ordering).
  struct Entry {
    // The subregion generation this entry was inserted under; the entry is
    // live iff it equals the current generation (epoch invalidation:
    // clearing a subregion is one counter bump, not an entry walk).
    // Generations start at 1, so a zero-initialized entry is never live.
    std::atomic<uint64_t> generation{0};
    std::atomic<bool> allow{false};
    std::atomic<ProcessId> subject{0};
    std::atomic<OpId> op{0};
    std::atomic<ObjectId> obj{0};
  };

  // Tallies are registry instruments (metrics plane, "cache.*"), one set
  // per shard; metrics().Value and the registry snapshot sum them. A shard
  // starts on its own cache line so its sequence word and mutex share no
  // line with a neighbouring shard's. (The entries and generations are
  // separate heap buffers; the alignment does not place them.)
  struct alignas(64) Shard {
    Shard(size_t num_entries, size_t num_subregions);

    // Odd while an insert is storing an entry. Written only under `mu`.
    std::atomic<uint64_t> seq{0};
    mutable std::mutex mu;
    std::vector<Entry> entries;  // num_subregions * entries_per_subregion
    std::vector<std::atomic<uint64_t>> generations;  // per subregion
    metrics::Counter* hits = nullptr;
    metrics::Counter* misses = nullptr;
    metrics::Counter* insertions = nullptr;
    metrics::Counter* invalidated_entries = nullptr;
    metrics::Counter* subregion_invalidations = nullptr;
  };

  size_t SubregionIndex(OpId op, ObjectId obj) const;
  // The entry matching `request` among those stamped `generation` in
  // subregion `sub`, or nullptr. Either the caller holds shard.mu, or it
  // is a seqlock reader that discards the result if the sequence word
  // moved.
  const Entry* Find(const Shard& shard, size_t sub, uint64_t generation,
                    const AuthzRequest& request) const;
  void InsertLocked(Shard& shard, const AuthzRequest& request, bool allow);

  Config config_;
  // Declared before shards_: shard counters live in the group and must
  // outlive them (destruction runs in reverse order).
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "cache"};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nexus::kernel

#endif  // NEXUS_KERNEL_DECISION_CACHE_H_

// The kernel-wide metrics plane.
//
// Named lock-free instruments cheap enough for the authorization hot path:
// counters are per-thread cells of relaxed atomics summed on read, gauges
// are single relaxed atomics, histograms are log2-
// bucketed tallies fed cycle counts from util/cycles.h. A MetricGroup is
// the only place a component keeps a tally and the only way anything reads
// one: per instance through the group (MetricGroup::Value — a fresh Guard
// reads zero), or process-wide through the global Registry, whose
// snapshot aggregates same-named instruments across instances.
//
// Lifetime: instruments live inside their MetricGroup (deque-backed, so
// pointers handed to the owning component stay stable). When a group is
// destroyed — its component died — the final values are RETIRED into the
// registry's accumulation map instead of vanishing, so a process-lifetime
// snapshot (the bench JSON dump, /stats reads after component churn) still
// reports everything that ever happened.
//
// Threading: Increment/Set/Record are wait-free relaxed atomics — they
// never synchronize data, only tally. Snapshot/Render take the registry
// mutex, then each group's mutex (always in that order; group
// construction/destruction takes the registry mutex without holding its
// own). Counter reads in a snapshot are relaxed loads of each cell: a
// snapshot racing live increments reads a total between the counter's
// values when the read began and when it ended, never a torn one.
#ifndef NEXUS_UTIL_METRICS_H_
#define NEXUS_UTIL_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace nexus::metrics {

// A counter is kCells cache-line cells. A thread adds into the cell it was
// dealt on its first increment, round-robin across threads, so any kCells
// threads that first count one after another bump the same counter on
// different lines; Value sums the cells.
class Counter {
 public:
  static constexpr size_t kCells = 4;

  void Increment(uint64_t delta = 1) {
    cells_[ThreadCell()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  static size_t ThreadCell() {
    static std::atomic<size_t> next{0};
    thread_local const size_t cell = next.fetch_add(1, std::memory_order_relaxed) % kCells;
    return cell;
  }

  Cell cells_[kCells];
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log2-bucketed latency histogram: bucket i counts samples whose bit width
// is i (i.e. sample in [2^(i-1), 2^i)), bucket 0 counts zeros. Recording is
// three relaxed increments; quantiles are estimated from bucket upper
// bounds, which is as exact as a power-of-two binning can be and plenty for
// "did tracing add 5%?" questions.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;  // bit_width(uint64_t) in 0..64.

  void Record(uint64_t sample) {
    buckets_[std::bit_width(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t bucket) const {
    return bucket < kNumBuckets ? buckets_[bucket].load(std::memory_order_relaxed) : 0;
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// One instrument's value in a snapshot. Histograms carry their full bucket
// vector so snapshots merge losslessly across instances and retirements.
struct InstrumentValue {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  int64_t value = 0;           // Counter / gauge.
  uint64_t count = 0;          // Histogram.
  uint64_t sum = 0;            // Histogram.
  std::vector<uint64_t> buckets;  // Histogram (kNumBuckets entries).

  void MergeFrom(const InstrumentValue& other);
  // Smallest power-of-two upper bound covering quantile `q` (0..1).
  uint64_t ApproxQuantile(double q) const;
};

using Snapshot = std::map<std::string, InstrumentValue>;

class MetricGroup;

// The process-global instrument index. Components register MetricGroups;
// Snapshot() merges every live group's instruments with the retired totals
// of dead ones, keyed by "<group prefix>.<instrument name>".
class Registry {
 public:
  static Registry& Global();

  // All instruments whose full name starts with `prefix` ("" = everything).
  Snapshot TakeSnapshot(std::string_view prefix = {}) const;

  // procfs-friendly rendering: one "name value" line per instrument,
  // histograms as "name count=N sum=S p50=X p99=Y".
  std::string RenderText(std::string_view prefix = {}) const;
  // Flat JSON object for the bench artifact dump: counters/gauges as
  // numbers, histograms as {"count":..,"sum":..,"p50":..,"p99":..}.
  std::string RenderJson() const;

 private:
  friend class MetricGroup;
  void Register(MetricGroup* group);
  void Unregister(MetricGroup* group);  // Retires the group's final values.

  mutable std::mutex mu_;
  std::set<MetricGroup*> groups_;
  Snapshot retired_;
};

// A component's named instruments under one prefix ("guard", "cache", ...).
// NewCounter/NewGauge/NewHistogram return stable pointers owned by the
// group; creation is thread-safe but intended for construction time.
// Destruction retires final values into the registry (see file comment).
class MetricGroup {
 public:
  MetricGroup(Registry* registry, std::string prefix);
  ~MetricGroup();

  MetricGroup(const MetricGroup&) = delete;
  MetricGroup& operator=(const MetricGroup&) = delete;

  Counter* NewCounter(std::string_view name);
  Gauge* NewGauge(std::string_view name);
  Histogram* NewHistogram(std::string_view name);

  // The per-instance read: the sum of this group's counters named `name`
  // (a component may keep one per shard). NotFound for a name the group
  // never created, so a misspelt name fails instead of reading 0.
  Result<uint64_t> Value(std::string_view name) const;

  const std::string& prefix() const { return prefix_; }

 private:
  friend class Registry;
  // Merges this group's current values into `out`. Caller holds the
  // registry mutex; takes the group mutex (registry -> group order).
  void CollectInto(Snapshot* out) const;

  Registry* registry_;
  std::string prefix_;
  mutable std::mutex mu_;
  // deques: instrument addresses never move after NewX returns them.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
};

// Writes Registry::Global().RenderJson() to the path named by the
// NEXUS_METRICS_OUT environment variable, if set. Benchmark mains call
// this at exit so CI archives a metrics snapshot next to each bench
// artifact (and can fail if hot-path counters are all zero).
void DumpRegistryToEnvPath();

}  // namespace nexus::metrics

#endif  // NEXUS_UTIL_METRICS_H_

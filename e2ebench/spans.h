// Benchmark-side spans, timed from outside the program: one around each
// public call a client makes (Kernel::Authorize, Call, CallMany, the
// scenario's goal flip and process churn) and one around each engine
// upcall, through the forwarding engine in bench_e2e.cc. A span's self
// time is its duration minus the time its child spans cover.
#ifndef NEXUS_E2EBENCH_SPANS_H_
#define NEXUS_E2EBENCH_SPANS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "latency.h"

namespace e2e {

enum class SpanName : uint8_t { kAuthorize, kCall, kCallMany, kSetGoal, kLifecycle, kEngine };
inline constexpr size_t kSpanNameCount = 6;
inline constexpr const char* kSpanNameText[kSpanNameCount] = {
    "kernel.authorize", "kernel.call",      "kernel.callmany",
    "core.setgoal",     "kernel.lifecycle", "core.engine"};

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a top-level span.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanName name = SpanName::kAuthorize;
};

// One client thread's spans. Every span is folded into per-name totals as
// it closes; the first kKept raw records are also kept for the spans file,
// so memory stays bounded however long the run. Single writer; read only
// after the writing thread has been joined.
class SpanLog {
 public:
  struct Totals {
    LatencyHistogram duration;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    uint64_t count = 0;
  };
  static constexpr size_t kKept = 20000;

  // Ids are next_id + 1, next_id + 2, ...: give each log a disjoint base.
  explicit SpanLog(uint64_t id_base) : next_id_(id_base) {}

  void Begin(SpanName name, uint64_t now_ns) {
    const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    stack_.push_back(Open{name, ++next_id_, parent, now_ns, 0});
  }

  void End(uint64_t now_ns) {
    const Open open = stack_.back();
    stack_.pop_back();
    const uint64_t duration = now_ns - open.start_ns;
    Totals& totals = totals_[static_cast<size_t>(open.name)];
    totals.duration.Record(duration);
    totals.total_ns += duration;
    totals.self_ns += duration - std::min(open.child_ns, duration);
    ++totals.count;
    if (stack_.empty()) {
      top_level_ns_ += duration;
    } else {
      stack_.back().child_ns += duration;
    }
    if (kept_.size() < kKept) {
      kept_.push_back(SpanRecord{open.id, open.parent, open.start_ns, now_ns, open.name});
    }
  }

  const Totals& totals(SpanName name) const { return totals_[static_cast<size_t>(name)]; }
  // Time covered by top-level spans, i.e. by the clients' calls.
  uint64_t top_level_ns() const { return top_level_ns_; }
  const std::vector<SpanRecord>& kept() const { return kept_; }

 private:
  struct Open {
    SpanName name;
    uint64_t id;
    uint64_t parent;
    uint64_t start_ns;
    uint64_t child_ns;
  };

  uint64_t next_id_;
  std::vector<Open> stack_;
  std::array<Totals, kSpanNameCount> totals_;
  uint64_t top_level_ns_ = 0;
  std::vector<SpanRecord> kept_;
};

// The calling client thread's log during a traced window; null otherwise.
inline thread_local SpanLog* t_span_log = nullptr;

}  // namespace e2e

#endif  // NEXUS_E2EBENCH_SPANS_H_

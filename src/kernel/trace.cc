#include "kernel/trace.h"

#include <algorithm>

namespace nexus::kernel {

namespace {

thread_local uint64_t tls_current_trace_id = 0;

// Slot word packing (7 payload words per event):
//   w0 trace_id   w1 timestamp   w2 subject   w3 (op << 32) | obj
//   w4 generation w5 aux         w6 (latency << 32) | (flags << 16) |
//                                   (verdict << 8) | stage
uint64_t PackW3(const TraceEvent& e) {
  return (static_cast<uint64_t>(e.op) << 32) | e.obj;
}
uint64_t PackW6(const TraceEvent& e) {
  return (static_cast<uint64_t>(e.latency) << 32) | (static_cast<uint64_t>(e.flags) << 16) |
         (static_cast<uint64_t>(e.verdict) << 8) | static_cast<uint64_t>(e.stage);
}
TraceEvent Unpack(const uint64_t w[7]) {
  TraceEvent e;
  e.trace_id = w[0];
  e.timestamp = w[1];
  e.subject = w[2];
  e.op = static_cast<OpId>(w[3] >> 32);
  e.obj = static_cast<ObjectId>(w[3] & 0xffffffffULL);
  e.generation = w[4];
  e.aux = w[5];
  e.latency = static_cast<uint32_t>(w[6] >> 32);
  e.flags = static_cast<uint16_t>((w[6] >> 16) & 0xffff);
  e.verdict = static_cast<uint8_t>((w[6] >> 8) & 0xff);
  e.stage = static_cast<TraceStage>(w[6] & 0xff);
  return e;
}

void SortByTimestamp(std::vector<TraceEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.timestamp < b.timestamp; });
}

}  // namespace

std::string_view TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kCall:
      return "call";
    case TraceStage::kSyscall:
      return "syscall";
    case TraceStage::kCacheProbe:
      return "cache_probe";
    case TraceStage::kEngineMiss:
      return "engine_miss";
    case TraceStage::kGuardCheck:
      return "guard_check";
    case TraceStage::kGuardUpcall:
      return "guard_upcall";
    case TraceStage::kRemoteVouch:
      return "remote_vouch";
    case TraceStage::kVerdict:
      return "verdict";
    case TraceStage::kReplyInterpose:
      return "reply_interpose";
    case TraceStage::kRemoteInvalidate:
      return "remote_invalidate";
  }
  return "unknown";
}

std::string FormatTraceEvents(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) {
    out += "trace=" + std::to_string(e.trace_id);
    out += " stage=";
    out += TraceStageName(e.stage);
    out += " subj=" + std::to_string(e.subject);
    std::string_view op = OpName(e.op);
    out += " op=" + (op.empty() ? std::to_string(e.op) : std::string(op));
    std::string_view obj = ObjectName(e.obj);
    out += " obj=" + (obj.empty() ? std::to_string(e.obj) : std::string(obj));
    if (e.verdict != kTraceVerdictNone) {
      out += e.verdict == kTraceVerdictAllow ? " verdict=allow" : " verdict=deny";
    }
    if (e.flags != 0) {
      out += " flags=";
      bool first = true;
      auto flag = [&](uint16_t bit, const char* name) {
        if ((e.flags & bit) != 0) {
          if (!first) {
            out += '|';
          }
          out += name;
          first = false;
        }
      };
      flag(kTraceFlagCacheHit, "hit");
      flag(kTraceFlagCacheMiss, "miss");
      flag(kTraceFlagRemote, "remote");
      flag(kTraceFlagInterposed, "interposed");
      flag(kTraceFlagUpcall, "upcall");
      flag(kTraceFlagDenied, "denied");
      flag(kTraceFlagProofCacheHit, "proof_hit");
      flag(kTraceFlagUncacheable, "uncacheable");
    }
    if (e.generation != 0) {
      out += " gen=" + std::to_string(e.generation);
    }
    if (e.aux != 0) {
      out += " aux=" + std::to_string(e.aux);
    }
    if (e.latency != 0) {
      out += " lat=" + std::to_string(e.latency);
    }
    out += '\n';
  }
  return out;
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked: thread_local ring-release destructors may run after static
  // teardown would have destroyed a function-local static.
  static FlightRecorder* global = new FlightRecorder();
  return *global;
}

struct FlightRecorder::ThreadRingSlot {
  Ring* ring = nullptr;
  ~ThreadRingSlot() {
    if (ring != nullptr) {
      FlightRecorder::Global().ReleaseRing(ring);
    }
  }
};

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  thread_local ThreadRingSlot slot;
  if (slot.ring == nullptr) {
    slot.ring = AcquireRing();
  }
  return slot.ring;
}

FlightRecorder::Ring* FlightRecorder::AcquireRing() {
  std::lock_guard<std::mutex> lock(rings_mu_);
  if (!free_rings_.empty()) {
    Ring* ring = free_rings_.back();
    free_rings_.pop_back();
    return ring;
  }
  rings_.push_back(std::make_unique<Ring>());
  return rings_.back().get();
}

void FlightRecorder::ReleaseRing(Ring* ring) {
  // The ring (and its retained events) stays owned by the recorder; a new
  // thread simply continues where the departed one stopped.
  std::lock_guard<std::mutex> lock(rings_mu_);
  free_rings_.push_back(ring);
}

void FlightRecorder::Emit(const TraceEvent& event) {
  if (!enabled()) {
    return;
  }
  Ring* ring = RingForThisThread();
  uint64_t h = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[h & (kRingCapacity - 1)];
  // Seqlock write: mark in-progress (odd), store the payload, publish the
  // new even generation with release so a reader that sees it also sees
  // the payload. Readers validate before AND after, so the rare torn
  // window (ring wrapped mid-read) is dropped, not observed.
  slot.seq.store(2 * h + 1, std::memory_order_release);
  slot.word[0].store(event.trace_id, std::memory_order_relaxed);
  // Default timestamp: the ring's own monotonic index (h+1, so a stamped
  // event is never confused with an unwritten slot). Exact order within
  // this thread; no cycle-counter read on the emit path.
  slot.word[1].store(event.timestamp != 0 ? event.timestamp : h + 1,
                     std::memory_order_relaxed);
  slot.word[2].store(event.subject, std::memory_order_relaxed);
  slot.word[3].store(PackW3(event), std::memory_order_relaxed);
  slot.word[4].store(event.generation, std::memory_order_relaxed);
  slot.word[5].store(event.aux, std::memory_order_relaxed);
  slot.word[6].store(PackW6(event), std::memory_order_relaxed);
  slot.seq.store(2 * h + 2, std::memory_order_release);
  ring->head.store(h + 1, std::memory_order_release);
}

void FlightRecorder::ReadRing(const Ring& ring, size_t max,
                              std::vector<TraceEvent>* out) const {
  uint64_t head = ring.head.load(std::memory_order_acquire);
  uint64_t floor = ring.cleared_below.load(std::memory_order_relaxed);
  uint64_t keep = std::min<uint64_t>(max, kRingCapacity);
  uint64_t from = head > keep ? head - keep : 0;
  if (from < floor) {
    from = floor;
  }
  ReadRingRange(ring, from, head, out);
}

void FlightRecorder::ReadRingRange(const Ring& ring, uint64_t from, uint64_t to,
                                   std::vector<TraceEvent>* out) const {
  for (uint64_t i = from; i < to; ++i) {
    const Slot& slot = ring.slots[i & (kRingCapacity - 1)];
    uint64_t expected = 2 * i + 2;
    if (slot.seq.load(std::memory_order_acquire) != expected) {
      continue;  // Overwritten (or mid-write): drop, never tear.
    }
    uint64_t w[7];
    for (size_t k = 0; k < 7; ++k) {
      w[k] = slot.word[k].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != expected) {
      continue;
    }
    out->push_back(Unpack(w));
  }
}

FlightRecorder::DrainStats FlightRecorder::Drain(DrainCursor* cursor,
                                                 std::vector<DrainedSegment>* out) const {
  // Sentinel for "this cursor has never visited this ring": whatever the
  // ring retains is returned, and older (already overwritten) history is
  // not counted as dropped — a cursor cannot lose what predates it.
  constexpr uint64_t kFresh = ~uint64_t{0};
  DrainStats stats;
  std::lock_guard<std::mutex> lock(rings_mu_);
  if (cursor->next_.size() < rings_.size()) {
    cursor->next_.resize(rings_.size(), kFresh);
  }
  for (size_t r = 0; r < rings_.size(); ++r) {
    const Ring& ring = *rings_[r];
    uint64_t head = ring.head.load(std::memory_order_acquire);
    uint64_t floor = head > kRingCapacity ? head - kRingCapacity : 0;
    uint64_t cleared = ring.cleared_below.load(std::memory_order_relaxed);
    uint64_t start = cursor->next_[r];
    bool lossless = true;
    if (start == kFresh) {
      start = floor;
      // A fresh cursor on a wrapped ring starts mid-history: the head of
      // the oldest retained trace may already be overwritten.
      lossless = floor == 0;
    } else if (start < floor) {
      // The writer lapped the cursor: events in [start, floor) are gone.
      stats.dropped += floor - start;
      start = floor;
      lossless = false;
    }
    if (start < cleared) {
      start = cleared;  // Clear() is deliberate: skipped, not "dropped".
      lossless = true;
    }
    if (start >= head) {
      cursor->next_[r] = head;
      continue;
    }
    DrainedSegment segment;
    segment.ring = r;
    segment.begin_seq = start + 1;  // Emit stamps timestamp = index + 1.
    segment.lossless_start = lossless;
    ReadRingRange(ring, start, head, &segment.events);
    // Slots invalidated mid-read (writer advanced while we scanned) were
    // skipped by the seqlock check; they are drops the next cursor
    // position already accounts past.
    stats.dropped += (head - start) - segment.events.size();
    stats.drained += segment.events.size();
    cursor->next_[r] = head;
    if (!segment.events.empty()) {
      out->push_back(std::move(segment));
    }
  }
  return stats;
}

std::vector<TraceEvent> FlightRecorder::Recent(size_t max_per_ring) const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    ReadRing(*ring, max_per_ring, &events);
  }
  return events;
}

std::vector<TraceEvent> FlightRecorder::ForTrace(uint64_t trace_id) const {
  std::vector<TraceEvent> events = Recent();
  std::erase_if(events, [trace_id](const TraceEvent& e) { return e.trace_id != trace_id; });
  SortByTimestamp(events);
  return events;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const auto& ring : rings_) {
    ring->cleared_below.store(ring->head.load(std::memory_order_acquire),
                              std::memory_order_relaxed);
  }
}

uint64_t FlightRecorder::events_emitted() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  return rings_.size();
}

uint64_t FlightRecorder::NewTraceId() {
  constexpr uint64_t kBlock = 256;
  thread_local uint64_t tls_next = 0;
  thread_local uint64_t tls_end = 0;
  if (tls_next == tls_end) {
    tls_next = next_trace_id_.fetch_add(kBlock, std::memory_order_relaxed);
    tls_end = tls_next + kBlock;
  }
  return tls_next++;
}

MutationLog& MutationLog::Global() {
  // Leaked for the same teardown-order reason as the recorder.
  static MutationLog* global = new MutationLog();
  return *global;
}

uint64_t MutationLog::Append(MutationRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.seq = next_seq_++;
  uint64_t seq = record.seq;
  records_.push_back(std::move(record));
  if (records_.size() > kCapacity) {
    records_.pop_front();
  }
  return seq;
}

size_t MutationLog::DrainFrom(uint64_t* cursor, std::vector<MutationRecord>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.empty()) {
    return 0;
  }
  // Records are seq-contiguous from the front, so the first one past the
  // cursor sits at a computed index: no scan under the lock.
  uint64_t front = records_.front().seq;
  size_t start = *cursor < front ? 0 : std::min<uint64_t>(*cursor - front + 1, records_.size());
  out->insert(out->end(), records_.begin() + static_cast<ptrdiff_t>(start), records_.end());
  *cursor = std::max(*cursor, records_.back().seq);
  return records_.size() - start;
}

void MutationLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  // seq keeps counting: cursors held by consumers stay valid.
}

uint64_t CurrentTraceId() { return tls_current_trace_id; }

TraceScope::TraceScope() : saved_(tls_current_trace_id) {
  FlightRecorder& recorder = FlightRecorder::Global();
  if (recorder.enabled()) {
    id_ = saved_ != 0 ? saved_ : recorder.NewTraceId();
    tls_current_trace_id = id_;
  }
}

TraceScope::~TraceScope() { tls_current_trace_id = saved_; }

}  // namespace nexus::kernel

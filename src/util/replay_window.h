// Exactly-once acceptance of sequence numbers within a sliding window.
//
// The one replay filter behind an attested channel's data frames and the
// mesh's per-origin invalidation epochs. It keeps the highest number
// accepted so far, max_seen, and one bit per number in the window
// (max_seen - kSpan, max_seen]: bit n % kSpan is set iff n was accepted.
// A number is accepted iff seq + kSpan > max_seen and its bit is clear, so
// numbers arrive in any order but count once. A number at or below
// max_seen - kSpan is rejected outright, which bounds the state at kSpan
// bits however long the stream runs. Raising max_seen clears the slots of
// the numbers that leave the window.
//
// Not synchronized: the owner serializes calls.
#ifndef NEXUS_UTIL_REPLAY_WINDOW_H_
#define NEXUS_UTIL_REPLAY_WINDOW_H_

#include <array>
#include <cstdint>

namespace nexus {

class ReplayWindow {
 public:
  static constexpr uint64_t kSpan = 4096;

  // Records `seq` and returns true iff it is inside or above the window
  // and was not accepted before.
  bool Accept(uint64_t seq) {
    if (seq > max_seen_) {
      // The slots of (max_seen, seq] held numbers that now leave the
      // window. Clear them; seq's own slot is set below.
      if (seq - max_seen_ >= kSpan) {
        bits_.fill(0);
      } else {
        for (uint64_t n = max_seen_ + 1; n < seq; ++n) {
          bits_[Word(n)] &= ~Bit(n);
        }
      }
      max_seen_ = seq;
    } else if (max_seen_ - seq >= kSpan || (bits_[Word(seq)] & Bit(seq)) != 0) {
      return false;  // Below the window, or a duplicate.
    }
    bits_[Word(seq)] |= Bit(seq);
    return true;
  }

  // The highest number accepted; 0 before the first.
  uint64_t max_seen() const { return max_seen_; }

 private:
  static size_t Word(uint64_t seq) { return (seq % kSpan) / 64; }
  static uint64_t Bit(uint64_t seq) { return uint64_t{1} << (seq % 64); }

  uint64_t max_seen_ = 0;
  std::array<uint64_t, kSpan / 64> bits_{};
};

}  // namespace nexus

#endif  // NEXUS_UTIL_REPLAY_WINDOW_H_

// Log-linear latency histogram for the end-to-end benchmark.
//
// Values below 256 get one bucket each; above that every power of two is
// split into 128 equal sub-buckets, so a bucket is never wider than 1/128
// (< 0.8%) of the values it holds. Quantiles interpolate linearly inside
// the bucket that holds the requested rank. The kernel's metrics::Histogram
// is log2-bucketed (a p50 of 300 ns and one of 500 ns both read 511), which
// is why the benchmark keeps its own.
//
// Not thread-safe: each client thread records into its own instance and
// the main thread merges them after joining.
#ifndef NEXUS_E2EBENCH_LATENCY_H_
#define NEXUS_E2EBENCH_LATENCY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

class LatencyHistogram {
 public:
  void Record(uint64_t value) {
    ++counts_[IndexOf(value)];
    ++count_;
    sum_ += value;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }

  // The value at quantile `q` in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(count_);
    uint64_t below = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t here = counts_[i];
      if (here == 0) {
        continue;
      }
      if (static_cast<double>(below + here) >= rank) {
        const double fraction = (rank - static_cast<double>(below)) / static_cast<double>(here);
        return static_cast<double>(LowerOf(i)) +
               (fraction < 0 ? 0.0 : fraction) * static_cast<double>(WidthOf(i));
      }
      below += here;
    }
    return static_cast<double>(LowerOf(kBuckets - 1));
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = 2 * kSub + (64 - kSubBits - 1) * kSub;

  static size_t IndexOf(uint64_t value) {
    if (value < 2 * kSub) {
      return static_cast<size_t>(value);
    }
    // value >> shift lands in [kSub, 2 * kSub).
    const int shift = std::bit_width(value) - (kSubBits + 1);
    return static_cast<size_t>(2 * kSub + static_cast<uint64_t>(shift - 1) * kSub +
                               ((value >> shift) - kSub));
  }
  static uint64_t LowerOf(size_t index) {
    if (index < 2 * kSub) {
      return index;
    }
    const uint64_t j = index - 2 * kSub;
    return (kSub + j % kSub) << (j / kSub + 1);
  }
  static uint64_t WidthOf(size_t index) {
    return index < 2 * kSub ? 1 : uint64_t{1} << ((index - 2 * kSub) / kSub + 1);
  }

  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace e2e

#endif  // NEXUS_E2EBENCH_LATENCY_H_

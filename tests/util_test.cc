#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "util/bytes.h"
#include "util/metrics.h"
#include "util/replay_window.h"
#include "util/rng.h"
#include "util/status.h"

namespace nexus {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = PermissionDenied("proof does not discharge goal");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(s.ToString(), "PERMISSION_DENIED: proof does not discharge goal");
}

TEST(StatusTest, AllErrorCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(i)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("no such label");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(BytesTest, RoundTripStringConversion) {
  Bytes b = ToBytes("nexus");
  EXPECT_EQ(ToString(b), "nexus");
}

TEST(BytesTest, HexEncode) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(b), "0001abff");
}

TEST(BytesTest, HexDecodeRoundTrip) {
  Result<Bytes> decoded = HexDecode("0001abff");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (Bytes{0x00, 0x01, 0xab, 0xff}));
}

TEST(BytesTest, HexDecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(BytesTest, HexDecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(BytesTest, HexDecodeAcceptsUpperCase) {
  Result<Bytes> decoded = HexDecode("ABFF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (Bytes{0xab, 0xff}));
}

TEST(BytesTest, ConstantTimeEquals) {
  Bytes a = ToBytes("secret");
  Bytes b = ToBytes("secret");
  Bytes c = ToBytes("secreT");
  Bytes d = ToBytes("secre");
  EXPECT_TRUE(ConstantTimeEquals(a, b));
  EXPECT_FALSE(ConstantTimeEquals(a, c));
  EXPECT_FALSE(ConstantTimeEquals(a, d));
}

TEST(BytesTest, U32RoundTrip) {
  Bytes buf;
  AppendU32(buf, 0xdeadbeef);
  ByteReader reader(buf);
  Result<uint32_t> v = reader.ReadU32();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xdeadbeefu);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, U64RoundTrip) {
  Bytes buf;
  AppendU64(buf, 0x0123456789abcdefULL);
  ByteReader reader(buf);
  Result<uint64_t> v = reader.ReadU64();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0x0123456789abcdefULL);
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  Bytes buf;
  AppendLengthPrefixed(buf, ToBytes("alpha"));
  AppendLengthPrefixed(buf, ToBytes(""));
  AppendLengthPrefixed(buf, ToBytes("beta"));
  ByteReader reader(buf);
  EXPECT_EQ(ToString(*reader.ReadLengthPrefixed()), "alpha");
  EXPECT_EQ(ToString(*reader.ReadLengthPrefixed()), "");
  EXPECT_EQ(ToString(*reader.ReadLengthPrefixed()), "beta");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, ReaderRejectsTruncatedInput) {
  Bytes buf = {0x00, 0x00, 0x00, 0x08, 0x01};  // Claims 8 bytes, has 1.
  ByteReader reader(buf);
  EXPECT_FALSE(reader.ReadLengthPrefixed().ok());
  ByteReader view_reader(buf);
  EXPECT_FALSE(view_reader.ReadLengthPrefixedView().ok());
}

TEST(BytesTest, LengthPrefixedViewPointsIntoTheBuffer) {
  Bytes buf;
  AppendLengthPrefixed(buf, ToBytes("alpha"));
  AppendLengthPrefixed(buf, ToBytes("beta"));
  ByteReader reader(buf);
  Result<ByteView> alpha = reader.ReadLengthPrefixedView();
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha->data(), buf.data() + 4);
  EXPECT_EQ(ToString(Bytes(alpha->begin(), alpha->end())), "alpha");
  EXPECT_EQ(ToString(*reader.ReadLengthPrefixed()), "beta");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BytesTest, LengthPrefixedListRoundTripsAndRejectsImpossibleCounts) {
  Bytes buf;
  AppendU32(buf, 2);
  AppendLengthPrefixed(buf, ToBytes("alpha"));
  AppendLengthPrefixed(buf, ToBytes(""));
  ByteReader reader(buf);
  Result<std::vector<Bytes>> chunks = reader.ReadLengthPrefixedList();
  ASSERT_TRUE(chunks.ok());
  ASSERT_EQ(chunks->size(), 2u);
  EXPECT_EQ(ToString((*chunks)[0]), "alpha");
  EXPECT_TRUE((*chunks)[1].empty());
  EXPECT_TRUE(reader.AtEnd());

  // Three chunks cannot fit in the 8 bytes after the count.
  Bytes too_many;
  AppendU32(too_many, 3);
  AppendLengthPrefixed(too_many, ToBytes("abcd"));
  ByteReader overcount(too_many);
  EXPECT_FALSE(overcount.ReadLengthPrefixedList().ok());

  // A chunk cut short fails the whole list.
  Bytes cut = buf;
  cut.back() = 0x01;  // The empty chunk's length now claims a missing byte.
  ByteReader truncated(cut);
  EXPECT_FALSE(truncated.ReadLengthPrefixedList().ok());
}

TEST(BytesTest, ReaderRejectsShortU32) {
  Bytes buf = {0x01, 0x02};
  ByteReader reader(buf);
  EXPECT_FALSE(reader.ReadU32().ok());
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(7);
  bool seen[5] = {false};
  for (int i = 0; i < 200; ++i) {
    seen[rng.NextBelow(5)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoolProbabilityExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, RandomBytesLength) {
  Rng rng(11);
  EXPECT_EQ(rng.RandomBytes(0).size(), 0u);
  EXPECT_EQ(rng.RandomBytes(1).size(), 1u);
  EXPECT_EQ(rng.RandomBytes(33).size(), 33u);
}

// ------------------------------------------------------------ metrics

TEST(MetricsTest, CounterAndGaugeBasics) {
  metrics::Registry registry;
  metrics::MetricGroup group(&registry, "test");
  metrics::Counter* c = group.NewCounter("hits");
  metrics::Gauge* g = group.NewGauge("depth");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 5);

  metrics::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.at("test.hits").value, 42);
  EXPECT_EQ(snap.at("test.depth").value, 5);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  metrics::Histogram h;
  h.Record(0);    // bucket 0
  h.Record(1);    // bucket 1
  h.Record(5);    // bucket 3: [4, 8)
  h.Record(5);
  h.Record(900);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 911u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(h.BucketCount(10), 1u);
}

TEST(MetricsTest, SnapshotAggregatesAcrossInstancesAndRetirement) {
  metrics::Registry registry;
  metrics::MetricGroup a(&registry, "guard");
  a.NewCounter("checks")->Increment(10);
  {
    // A second instance with the same prefix: the registry view sums them,
    // while each instance's own pointer still reads its private tally.
    metrics::MetricGroup b(&registry, "guard");
    metrics::Counter* b_checks = b.NewCounter("checks");
    b_checks->Increment(5);
    EXPECT_EQ(b_checks->Value(), 5u);
    EXPECT_EQ(registry.TakeSnapshot().at("guard.checks").value, 15);
  }
  // `b` died; its total is retired, not lost.
  EXPECT_EQ(registry.TakeSnapshot().at("guard.checks").value, 15);
}

TEST(MetricsTest, ValueSumsSameNamedCountersOfOneGroup) {
  metrics::Registry registry;
  metrics::MetricGroup group(&registry, "cache");
  // Two same-named counters, as a sharded component keeps one per shard.
  group.NewCounter("hits")->Increment(3);
  group.NewCounter("hits")->Increment(4);
  group.NewCounter("misses");
  group.NewGauge("depth")->Set(9);
  // Another instance under the same prefix is not this group's share.
  metrics::MetricGroup other(&registry, "cache");
  other.NewCounter("hits")->Increment(100);

  Result<uint64_t> hits = group.Value("hits");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, 7u);
  EXPECT_EQ(*group.Value("misses"), 0u);
  EXPECT_EQ(*other.Value("hits"), 100u);
  // A name the group never created as a counter is an error, not a zero.
  EXPECT_EQ(group.Value("hit").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(group.Value("depth").status().code(), ErrorCode::kNotFound);

  // The per-instance reads are each group's share of the registry view.
  EXPECT_EQ(registry.TakeSnapshot().at("cache.hits").value,
            static_cast<int64_t>(*group.Value("hits") + *other.Value("hits")));
}

TEST(MetricsTest, ConcurrentIncrementsSumExactly) {
  metrics::Registry registry;
  metrics::MetricGroup group(&registry, "mt");
  metrics::Counter* first = group.NewCounter("calls");
  metrics::Counter* second = group.NewCounter("calls");
  // More threads than a counter has cells: while more than kCells run,
  // some share a cell.
  constexpr uint64_t kThreads = metrics::Counter::kCells + 2;
  constexpr uint64_t kIncrements = 20000;
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        first->Increment();
        second->Increment(2);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(first->Value(), kThreads * kIncrements);
  EXPECT_EQ(second->Value(), 2 * kThreads * kIncrements);
  EXPECT_EQ(*group.Value("calls"), 3 * kThreads * kIncrements);
  EXPECT_EQ(registry.TakeSnapshot().at("mt.calls").value,
            static_cast<int64_t>(3 * kThreads * kIncrements));
}

TEST(MetricsTest, SnapshotPrefixFilters) {
  metrics::Registry registry;
  metrics::MetricGroup cache(&registry, "cache");
  metrics::MetricGroup engine(&registry, "engine");
  cache.NewCounter("hits")->Increment();
  engine.NewCounter("misses")->Increment();
  metrics::Snapshot snap = registry.TakeSnapshot("cache");
  EXPECT_TRUE(snap.contains("cache.hits"));
  EXPECT_FALSE(snap.contains("engine.misses"));
}

TEST(MetricsTest, RenderTextAndJson) {
  metrics::Registry registry;
  metrics::MetricGroup group(&registry, "kernel");
  group.NewCounter("calls")->Increment(3);
  metrics::Histogram* lat = group.NewHistogram("cycles");
  for (int i = 0; i < 100; ++i) {
    lat->Record(1000);
  }
  std::string text = registry.RenderText("kernel");
  EXPECT_NE(text.find("kernel.calls 3"), std::string::npos);
  EXPECT_NE(text.find("kernel.cycles count=100"), std::string::npos);
  // 1000 has bit width 10, so every quantile reports the 2^10-1 bound.
  EXPECT_NE(text.find("p99=1023"), std::string::npos);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"kernel.calls\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"kernel.cycles\": {\"count\": 100"), std::string::npos);
}

TEST(MetricsTest, ApproxQuantileWalksBuckets) {
  metrics::Registry registry;
  metrics::MetricGroup group(&registry, "q");
  metrics::Histogram* h = group.NewHistogram("h");
  for (int i = 0; i < 90; ++i) {
    h->Record(3);  // bucket 2, bound 3.
  }
  for (int i = 0; i < 10; ++i) {
    h->Record(1 << 20);  // bucket 21.
  }
  metrics::InstrumentValue v = registry.TakeSnapshot().at("q.h");
  EXPECT_EQ(v.ApproxQuantile(0.5), 3u);
  EXPECT_GT(v.ApproxQuantile(0.99), 1u << 19);
}

// --------------------------------------------------------- ReplayWindow

// The reference the bitmap must match: a set of every number seen inside
// the window, pruned as the window slides.
class SetReplayModel {
 public:
  bool Accept(uint64_t seq) {
    if (seq + ReplayWindow::kSpan <= max_seen_ || !seen_.insert(seq).second) {
      return false;
    }
    if (seq > max_seen_) {
      max_seen_ = seq;
      while (*seen_.begin() + ReplayWindow::kSpan <= max_seen_) {
        seen_.erase(seen_.begin());
      }
    }
    return true;
  }
  uint64_t max_seen() const { return max_seen_; }

 private:
  std::set<uint64_t> seen_;
  uint64_t max_seen_ = 0;
};

// Feeds `seqs` to a fresh window and a fresh model; every verdict and every
// max_seen must agree. Returns the verdicts.
std::vector<bool> Differential(const std::vector<uint64_t>& seqs) {
  ReplayWindow window;
  SetReplayModel model;
  std::vector<bool> verdicts;
  for (size_t i = 0; i < seqs.size(); ++i) {
    bool accepted = window.Accept(seqs[i]);
    EXPECT_EQ(accepted, model.Accept(seqs[i])) << "step " << i << " seq " << seqs[i];
    EXPECT_EQ(window.max_seen(), model.max_seen()) << "step " << i;
    verdicts.push_back(accepted);
  }
  return verdicts;
}

constexpr uint64_t kW = ReplayWindow::kSpan;

TEST(ReplayWindowTest, FirstNumberZeroOrOne) {
  EXPECT_EQ(Differential({0, 0, 1, 0}), (std::vector<bool>{true, false, true, false}));
  EXPECT_EQ(Differential({1, 0, 1, 0}), (std::vector<bool>{true, true, false, false}));
}

TEST(ReplayWindowTest, InOrderDuplicateAndReordered) {
  std::vector<uint64_t> seqs;
  for (uint64_t s = 1; s <= 3 * kW; ++s) {
    seqs.push_back(s);
    seqs.push_back(s);  // Every number duplicated at once...
    if (s > 10) {
      seqs.push_back(s - 10);  // ...and again, late but inside the window.
    }
  }
  std::vector<bool> verdicts = Differential(seqs);
  size_t accepted = 0;
  for (bool v : verdicts) {
    accepted += v ? 1 : 0;
  }
  EXPECT_EQ(accepted, 3 * kW);

  // Out of order within the window: each number once, in any order.
  EXPECT_EQ(Differential({100, 50, 99, 1, 50, 100, 2}),
            (std::vector<bool>{true, true, true, true, false, false, true}));
}

TEST(ReplayWindowTest, WindowEdges) {
  const uint64_t max = 3 * kW + 17;
  // max - W is just outside the window, max - W + 1 just inside.
  EXPECT_EQ(Differential({max, max - kW, max - kW + 1, max - kW + 1}),
            (std::vector<bool>{true, false, true, false}));
  // A slot reused across laps: n and n + W share a bit.
  EXPECT_EQ(Differential({5, 5 + kW, 5, 6, 6 + kW}),
            (std::vector<bool>{true, true, false, true, true}));
  // A slide shorter than the span frees the slots it passes over: 10's
  // bit must not shadow 10 + W once 10 has left the window.
  EXPECT_EQ(Differential({10, 20, 10 + kW + 5, 10 + kW, 10}),
            (std::vector<bool>{true, true, true, true, false}));
}

TEST(ReplayWindowTest, JumpsOfAtLeastTheSpan) {
  for (uint64_t jump : {kW - 1, kW, kW + 1, 10 * kW + 3}) {
    const uint64_t far = 40 + jump;
    std::vector<uint64_t> seqs = {40, 39, far, 40, 39, far - kW + 1, far - 1, far};
    Differential(seqs);
  }
}

TEST(ReplayWindowTest, SeededRandomStreamsMatchTheSetModel) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<uint64_t> seqs;
    uint64_t head = rng.NextBelow(3);
    for (int i = 0; i < 20000; ++i) {
      uint64_t roll = rng.NextBelow(100);
      if (roll < 60) {
        head += 1 + rng.NextBelow(3);  // Mostly forward, with small gaps.
        seqs.push_back(head);
      } else if (roll < 95) {
        // A late or repeated number around the window's trailing edge.
        uint64_t back = rng.NextBelow(kW + 64);
        seqs.push_back(back > head ? head : head - back);
      } else {
        head += rng.NextBelow(2 * kW);  // Occasionally a long jump.
        seqs.push_back(head);
      }
    }
    Differential(seqs);
  }
}

}  // namespace
}  // namespace nexus

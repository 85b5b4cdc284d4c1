// Workload harness + trace auditor tests.
//
// Three layers:
//   1. Plumbing: FlightRecorder::Drain cursors (incremental harvest, drop
//      accounting on wraparound), MutationLog drain, zipf determinism.
//   2. Auditor negative paths on HAND-BUILT event streams — each violation
//      family (stale generation, non-serializable verdict, guard bypass,
//      interposition bypass, future generation) is flagged, and the
//      corresponding clean stream is not. The auditor never touches the
//      kernel here, so each check's trigger condition is exact.
//   3. End-to-end: the WorkloadDriver soaking real scenarios with
//      goal-flip churn stays violation-free, and injected faults are
//      caught. The soak scales via NEXUS_SOAK_* env vars (CI runs the
//      acceptance shape: 4 threads / 100k calls / 1M subjects).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/scenario_adapters.h"
#include "harness/auditor.h"
#include "harness/workload.h"
#include "harness/zipf.h"
#include "kernel/trace.h"
#include "kernel/types.h"
#include "util/rng.h"

namespace nexus {
namespace {

using harness::TraceAuditor;
using harness::WorkloadConfig;
using harness::WorkloadDriver;
using harness::WorkloadReport;
using harness::ZipfSampler;
using kernel::FlightRecorder;
using kernel::MutationLog;
using kernel::MutationRecord;
using kernel::TraceEvent;
using kernel::TraceStage;

std::string SampleDump(const TraceAuditor::Report& report) {
  std::string out = report.Summary();
  for (const TraceAuditor::Violation& v : report.samples) {
    out += "\n  [" + v.kind + "] " + v.detail;
  }
  return out;
}

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::strtoull(value, nullptr, 10)
                                            : fallback;
}

// ---------------------------------------------------------------- Zipf

TEST(ZipfSamplerTest, DeterministicFromSeed) {
  ZipfSampler zipf(1000, 0.99);
  Rng a(12345), b(12345);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(zipf.Sample(a), zipf.Sample(b));
  }
}

TEST(ZipfSamplerTest, SkewFavorsLowRanksAndStaysBounded) {
  const uint64_t n = 100;
  ZipfSampler skewed(n, 0.99);
  ZipfSampler uniform(n, 0.0);
  Rng rng(7);
  uint64_t hot_skewed = 0, hot_uniform = 0;
  const int kSamples = 10'000;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t s = skewed.Sample(rng);
    ASSERT_LT(s, n);
    if (s == 0) {
      ++hot_skewed;
    }
    uint64_t u = uniform.Sample(rng);
    ASSERT_LT(u, n);
    if (u == 0) {
      ++hot_uniform;
    }
  }
  // Rank 0 carries ~19% of mass at theta=.99/n=100, ~1% uniform.
  EXPECT_GT(hot_skewed, kSamples / 10);
  EXPECT_LT(hot_uniform, kSamples / 20);
}

// ------------------------------------------------- FlightRecorder drain

TEST(FlightRecorderDrainTest, IncrementalCursorThenWraparoundDropAccounting) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  recorder.set_enabled(true);

  FlightRecorder::DrainCursor cursor;
  std::vector<FlightRecorder::DrainedSegment> segments;
  recorder.Drain(&cursor, &segments);  // Position past any prior tests' events.

  const kernel::ProcessId kMarker = 0xD0A1'0001;
  auto emit = [&](uint64_t count) {
    kernel::TraceScope scope;
    ASSERT_TRUE(scope.active());
    for (uint64_t i = 0; i < count; ++i) {
      TraceEvent e;
      e.trace_id = scope.id();
      e.subject = kMarker;
      e.op = static_cast<kernel::OpId>(i);
      e.stage = TraceStage::kSyscall;
      recorder.Emit(e);
    }
  };

  emit(10);
  segments.clear();
  FlightRecorder::DrainStats stats = recorder.Drain(&cursor, &segments);
  uint64_t mine = 0;
  for (const auto& segment : segments) {
    for (const TraceEvent& e : segment.events) {
      if (e.subject == kMarker) {
        ++mine;
      }
    }
  }
  EXPECT_EQ(mine, 10u);
  EXPECT_EQ(stats.dropped, 0u);

  // Nothing new: the cursor holds its position.
  segments.clear();
  stats = recorder.Drain(&cursor, &segments);
  for (const auto& segment : segments) {
    for (const TraceEvent& e : segment.events) {
      EXPECT_NE(e.subject, kMarker);
    }
  }

  // Overrun this thread's 256-slot ring: the drain recovers the newest
  // capacity-ful and reports the overwritten remainder as dropped.
  const uint64_t kBurst = FlightRecorder::kRingCapacity + 100;
  emit(kBurst);
  segments.clear();
  stats = recorder.Drain(&cursor, &segments);
  mine = 0;
  for (const auto& segment : segments) {
    for (const TraceEvent& e : segment.events) {
      if (e.subject == kMarker) {
        ++mine;
      }
    }
  }
  EXPECT_EQ(mine, FlightRecorder::kRingCapacity);
  EXPECT_GE(stats.dropped, kBurst - FlightRecorder::kRingCapacity);

  recorder.set_enabled(false);
}

TEST(MutationLogTest, DrainFromIsIncremental) {
  MutationLog& log = MutationLog::Global();
  log.Clear();
  log.set_enabled(true);
  auto append = [&](kernel::OpId op) {
    MutationRecord r;
    r.kind = kernel::MutationKind::kSetGoal;
    r.op = op;
    r.obj = 1;
    r.generations = {1};
    log.Append(std::move(r));
  };
  append(1);
  append(2);
  append(3);
  uint64_t cursor = 0;
  std::vector<MutationRecord> drained;
  log.DrainFrom(&cursor, &drained);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_LT(drained[0].seq, drained[2].seq);
  append(4);
  drained.clear();
  log.DrainFrom(&cursor, &drained);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].op, 4u);
  log.set_enabled(false);
}

TEST(MutationLogTest, DrainAfterClearAndEvictionGetsExactlyTheNewRecords) {
  MutationLog log;  // A private log: this test fills it past kCapacity.
  auto append = [&log](uint64_t detail) {
    MutationRecord r;
    r.kind = kernel::MutationKind::kSay;
    r.detail = detail;
    log.Append(std::move(r));
  };
  // Drains and checks that exactly seqs [first, last] arrived, in order.
  auto expect_drain = [&log](uint64_t* cursor, uint64_t first, uint64_t last) {
    std::vector<MutationRecord> drained;
    EXPECT_EQ(log.DrainFrom(cursor, &drained), last - first + 1);
    ASSERT_EQ(drained.size(), last - first + 1);
    for (size_t i = 0; i < drained.size(); ++i) {
      ASSERT_EQ(drained[i].seq, first + i);
      ASSERT_EQ(drained[i].detail, first + i);
    }
    EXPECT_EQ(*cursor, last);
  };
  uint64_t cursor = 0;
  for (uint64_t seq = 1; seq <= 10; ++seq) {
    append(seq);  // The log numbers records from 1, so detail == seq.
  }
  expect_drain(&cursor, 1, 10);

  // Clear keeps the numbering: the held cursor drains exactly the records
  // appended since, and a second drain finds nothing.
  log.Clear();
  for (uint64_t seq = 11; seq <= 15; ++seq) {
    append(seq);
  }
  expect_drain(&cursor, 11, 15);
  std::vector<MutationRecord> none;
  EXPECT_EQ(log.DrainFrom(&cursor, &none), 0u);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(cursor, 15u);

  // Eviction past the capacity: a cursor behind the oldest retained record
  // drains everything retained, oldest first.
  const uint64_t full = 15 + MutationLog::kCapacity + 100;
  for (uint64_t seq = 16; seq <= full; ++seq) {
    append(seq);
  }
  expect_drain(&cursor, full - MutationLog::kCapacity + 1, full);

  // From a full log, a cursor inside the retained window gets only what is
  // past it; a fresh cursor gets the oldest retained record on.
  for (uint64_t seq = full + 1; seq <= full + 100; ++seq) {
    append(seq);
  }
  expect_drain(&cursor, full + 1, full + 100);
  uint64_t fresh = 0;
  expect_drain(&fresh, full + 100 - MutationLog::kCapacity + 1, full + 100);
}

// ----------------------------------------------- Auditor negative paths

constexpr kernel::OpId kOp = 11;
constexpr kernel::ObjectId kObj = 22;
constexpr nal::FormulaId kAllowGoal = 42;
constexpr nal::FormulaId kDenyGoal = 43;
constexpr kernel::ProcessId kHolder = 7;
constexpr kernel::ProcessId kStranger = 99;

TraceAuditor::Config SmallConfig() {
  TraceAuditor::Config config;
  config.cache_shards = 2;
  config.cache_subregions = 4;
  return config;
}

TraceAuditor MakeAuditor(TraceAuditor::Config config = TraceAuditor::Config()) {
  TraceAuditor auditor(config);
  const kernel::ProcessId holders[] = {kHolder};
  auditor.AuditPair(kOp, kObj, kAllowGoal, /*initial_goal_id=*/0, holders);
  return auditor;
}

MutationRecord GoalMutation(uint64_t seq, nal::FormulaId goal, uint64_t gen) {
  MutationRecord r;
  r.seq = seq;
  r.kind = kernel::MutationKind::kSetGoal;
  r.subject = 1;
  r.op = kOp;
  r.obj = kObj;
  r.detail = goal;
  r.generations = {gen, gen};  // Both shards of SmallConfig.
  return r;
}

TraceEvent Ev(uint64_t trace, uint64_t ts, TraceStage stage, kernel::ProcessId subject,
              uint64_t gen, uint8_t verdict = kernel::kTraceVerdictNone,
              uint16_t flags = 0, uint64_t aux = 0) {
  TraceEvent e;
  e.trace_id = trace;
  e.timestamp = ts;
  e.subject = subject;
  e.op = kOp;
  e.obj = kObj;
  e.generation = gen;
  e.verdict = verdict;
  e.flags = flags;
  e.aux = aux;
  e.stage = stage;
  return e;
}

TEST(TraceAuditorTest, CleanChainPassesAllChecks) {
  TraceAuditor auditor = MakeAuditor(SmallConfig());
  const MutationRecord mutations[] = {GoalMutation(1, kAllowGoal, 2)};
  auditor.IngestMutations(mutations);
  const TraceEvent events[] = {
      Ev(100, 1, TraceStage::kCacheProbe, kHolder, 2, 0, kernel::kTraceFlagCacheMiss),
      Ev(100, 2, TraceStage::kEngineMiss, kHolder, 0),
      Ev(100, 3, TraceStage::kGuardCheck, kHolder, kAllowGoal),
      Ev(100, 4, TraceStage::kVerdict, kHolder, 2, kernel::kTraceVerdictAllow),
      Ev(101, 5, TraceStage::kSyscall, kHolder, 0),  // Terminator: chain complete.
  };
  auditor.IngestSegment(0, 1, events);
  TraceAuditor::Report report = auditor.Finish();
  EXPECT_TRUE(report.clean()) << report.Summary();
  EXPECT_EQ(report.verdicts_checked, 1u);
  EXPECT_GE(report.complete_chains, 1u);
}

TEST(TraceAuditorTest, StaleGenerationVerdictFlagged) {
  TraceAuditor auditor = MakeAuditor(SmallConfig());
  const MutationRecord mutations[] = {GoalMutation(1, kAllowGoal, 2),
                                      GoalMutation(2, kDenyGoal, 5)};
  auditor.IngestMutations(mutations);
  // Chain A observes generation 5; chain B on the SAME ring then reports a
  // verdict at generation 2 — it outlived the invalidation.
  const TraceEvent events[] = {
      Ev(100, 1, TraceStage::kCacheProbe, kHolder, 5, 0, kernel::kTraceFlagCacheMiss),
      Ev(100, 2, TraceStage::kVerdict, kHolder, 5, kernel::kTraceVerdictDeny),
      Ev(101, 3, TraceStage::kCacheProbe, kHolder, 2, 0, kernel::kTraceFlagCacheHit),
      Ev(101, 4, TraceStage::kVerdict, kHolder, 2, kernel::kTraceVerdictAllow),
  };
  auditor.IngestSegment(0, 1, events);
  TraceAuditor::Report report = auditor.Finish();
  EXPECT_GE(report.stale_generation_violations, 1u) << report.Summary();
}

TEST(TraceAuditorTest, NonSerializableVerdictsFlagged) {
  TraceAuditor auditor = MakeAuditor(SmallConfig());
  const MutationRecord mutations[] = {GoalMutation(1, kAllowGoal, 2)};
  auditor.IngestMutations(mutations);
  // An allow for a subject holding no proof: no serial replay produces it.
  const TraceEvent stranger_allow[] = {
      Ev(100, 1, TraceStage::kCacheProbe, kStranger, 2, 0, kernel::kTraceFlagCacheMiss),
      Ev(100, 2, TraceStage::kVerdict, kStranger, 2, kernel::kTraceVerdictAllow),
      // A deny for a holder while the allow goal is the only admissible
      // state: equally non-serializable.
      Ev(101, 3, TraceStage::kCacheProbe, kHolder, 2, 0, kernel::kTraceFlagCacheHit),
      Ev(101, 4, TraceStage::kVerdict, kHolder, 2, kernel::kTraceVerdictDeny),
  };
  auditor.IngestSegment(0, 1, stranger_allow);
  TraceAuditor::Report report = auditor.Finish();
  EXPECT_EQ(report.serializability_violations, 2u) << report.Summary();
}

TEST(TraceAuditorTest, GoalFlipWindowAdmitsBothStates) {
  // A verdict whose window spans a goal flip may legitimately show either
  // state — and the install-before-bump successor is admissible too.
  TraceAuditor auditor = MakeAuditor(SmallConfig());
  const MutationRecord mutations[] = {GoalMutation(1, kAllowGoal, 2),
                                      GoalMutation(2, kDenyGoal, 5)};
  auditor.IngestMutations(mutations);
  // Each chain on its own ring: this test is about window admissibility,
  // and generation stamps within ONE ring must be monotone (a chain
  // observing gen 2 after its ring saw gen 5 is a real violation).
  const TraceEvent allow_in_window[] = {
      // Window [2, 5]: allow (state at 2) and deny (flip inside) both OK.
      Ev(100, 1, TraceStage::kCacheProbe, kHolder, 2, 0, kernel::kTraceFlagCacheMiss),
      Ev(100, 2, TraceStage::kVerdict, kHolder, 5, kernel::kTraceVerdictAllow),
  };
  const TraceEvent deny_in_window[] = {
      Ev(101, 1, TraceStage::kCacheProbe, kHolder, 2, 0, kernel::kTraceFlagCacheMiss),
      Ev(101, 2, TraceStage::kVerdict, kHolder, 5, kernel::kTraceVerdictDeny),
  };
  const TraceEvent deny_successor[] = {
      // Window [2, 2] but the deny-goal install (gen 5) is the one
      // not-yet-stamped successor: deny admissible here as well.
      Ev(102, 1, TraceStage::kCacheProbe, kHolder, 2, 0, kernel::kTraceFlagCacheMiss),
      Ev(102, 2, TraceStage::kVerdict, kHolder, 2, kernel::kTraceVerdictDeny),
  };
  auditor.IngestSegment(0, 1, allow_in_window);
  auditor.IngestSegment(1, 1, deny_in_window);
  auditor.IngestSegment(2, 1, deny_successor);
  TraceAuditor::Report report = auditor.Finish();
  EXPECT_TRUE(report.clean()) << report.Summary();
  EXPECT_EQ(report.verdicts_checked, 3u);
}

TEST(TraceAuditorTest, GuardBypassOnCompleteChainFlagged) {
  TraceAuditor auditor = MakeAuditor(SmallConfig());
  const MutationRecord mutations[] = {GoalMutation(1, kAllowGoal, 2)};
  auditor.IngestMutations(mutations);
  // Complete chain, engine miss on an audited pair, no guard stage.
  const TraceEvent events[] = {
      Ev(100, 1, TraceStage::kCacheProbe, kStranger, 2, 0, kernel::kTraceFlagCacheMiss),
      Ev(100, 2, TraceStage::kEngineMiss, kStranger, 0),
      Ev(100, 3, TraceStage::kVerdict, kStranger, 2, kernel::kTraceVerdictDeny),
      Ev(101, 4, TraceStage::kSyscall, kStranger, 0),
  };
  auditor.IngestSegment(0, 1, events);
  TraceAuditor::Report report = auditor.Finish();
  EXPECT_EQ(report.guard_bypass_violations, 1u) << report.Summary();
  EXPECT_EQ(report.serializability_violations, 0u);
}

TEST(TraceAuditorTest, TruncatedChainSkipsStructuralChecks) {
  // The same guard-less miss chain, but with a drain gap in front of it:
  // completeness cannot be proven, so no structural claim is made.
  TraceAuditor auditor = MakeAuditor(SmallConfig());
  const MutationRecord mutations[] = {GoalMutation(1, kAllowGoal, 2)};
  auditor.IngestMutations(mutations);
  const TraceEvent first[] = {
      Ev(100, 1, TraceStage::kSyscall, kStranger, 0),
  };
  auditor.IngestSegment(0, 1, first);
  const TraceEvent after_gap[] = {
      Ev(200, 10, TraceStage::kEngineMiss, kStranger, 0),
      Ev(200, 11, TraceStage::kVerdict, kStranger, 2, kernel::kTraceVerdictDeny),
      Ev(201, 12, TraceStage::kSyscall, kStranger, 0),
  };
  auditor.IngestSegment(0, 10, after_gap);  // begin_seq jump = wraparound.
  TraceAuditor::Report report = auditor.Finish();
  EXPECT_EQ(report.guard_bypass_violations, 0u) << report.Summary();
  EXPECT_EQ(report.verdicts_checked, 1u);  // Value checks still run.
}

TEST(TraceAuditorTest, InterpositionBypassFlagged) {
  const kernel::PortId kPort = 77;
  for (bool traversed : {true, false}) {
    TraceAuditor auditor = MakeAuditor(SmallConfig());
    auditor.RequireInterposed(kPort);
    // A correct interposed chain carries BOTH direction stages: the flagged
    // kCall and the kReplyInterpose for the same port.
    const TraceEvent events[] = {
        Ev(100, 1, TraceStage::kReplyInterpose, kHolder, 0,
           kernel::kTraceVerdictNone, kernel::kTraceFlagInterposed, kPort),
        Ev(100, 2, TraceStage::kCall, kHolder, 0, kernel::kTraceVerdictAllow,
           traversed ? kernel::kTraceFlagInterposed : uint16_t{0}, kPort),
        Ev(101, 3, TraceStage::kSyscall, kHolder, 0),
    };
    auditor.IngestSegment(0, 1, events);
    TraceAuditor::Report report = auditor.Finish();
    EXPECT_EQ(report.interposition_violations, traversed ? 0u : 1u)
        << "traversed=" << traversed << " " << report.Summary();
  }
}

TEST(TraceAuditorTest, ReplyBypassFlagged) {
  // The reply-direction half of the interposition invariant: a completed,
  // non-denied call through an interposed port whose chain has NO
  // kReplyInterpose stage means the reply skipped the monitor chain.
  const kernel::PortId kPort = 77;
  for (bool reply_traversed : {true, false}) {
    TraceAuditor auditor = MakeAuditor(SmallConfig());
    auditor.RequireInterposed(kPort);
    std::vector<TraceEvent> events;
    if (reply_traversed) {
      events.push_back(Ev(100, 1, TraceStage::kReplyInterpose, kHolder, 0,
                          kernel::kTraceVerdictNone,
                          kernel::kTraceFlagInterposed, kPort));
    }
    events.push_back(Ev(100, 2, TraceStage::kCall, kHolder, 0,
                        kernel::kTraceVerdictAllow,
                        kernel::kTraceFlagInterposed, kPort));
    events.push_back(Ev(101, 3, TraceStage::kSyscall, kHolder, 0));
    auditor.IngestSegment(0, 1, events);
    TraceAuditor::Report report = auditor.Finish();
    EXPECT_EQ(report.interposition_violations, reply_traversed ? 0u : 1u)
        << "reply_traversed=" << reply_traversed << " " << report.Summary();
  }
}

TEST(TraceAuditorTest, DeniedCallNeedsNoReplyStage) {
  // A call the monitor blocked never produced a reply, so the missing
  // kReplyInterpose stage is NOT a violation there.
  const kernel::PortId kPort = 77;
  TraceAuditor auditor = MakeAuditor(SmallConfig());
  auditor.RequireInterposed(kPort);
  const TraceEvent events[] = {
      Ev(100, 1, TraceStage::kCall, kHolder, 0, kernel::kTraceVerdictDeny,
         static_cast<uint16_t>(kernel::kTraceFlagInterposed |
                               kernel::kTraceFlagDenied),
         kPort),
      Ev(101, 2, TraceStage::kSyscall, kHolder, 0),
  };
  auditor.IngestSegment(0, 1, events);
  TraceAuditor::Report report = auditor.Finish();
  EXPECT_EQ(report.interposition_violations, 0u) << report.Summary();
}

TEST(TraceAuditorTest, GenerationFromTheFutureFlagged) {
  TraceAuditor auditor = MakeAuditor(SmallConfig());
  const MutationRecord mutations[] = {GoalMutation(1, kAllowGoal, 2)};
  auditor.IngestMutations(mutations);
  // Generation 9 exceeds every logged mutation: deferred during the run
  // (the mutation might not be drained yet), flagged at Finish().
  const TraceEvent events[] = {
      Ev(100, 1, TraceStage::kCacheProbe, kHolder, 9, 0, kernel::kTraceFlagCacheMiss),
      Ev(100, 2, TraceStage::kVerdict, kHolder, 9, kernel::kTraceVerdictAllow),
  };
  auditor.IngestSegment(0, 1, events);
  EXPECT_EQ(auditor.report().stale_generation_violations, 0u);  // Still pending.
  TraceAuditor::Report report = auditor.Finish();
  EXPECT_GE(report.stale_generation_violations, 1u) << report.Summary();
}

// -------------------------------------------------------- Driver e2e

WorkloadConfig SmallDriverConfig(const std::string& scenario) {
  WorkloadConfig config;
  config.scenario = scenario;
  config.threads = 2;
  config.logical_calls = 1'500;
  config.subjects = 5'000;
  config.objects = 32;
  config.audited_objects = 4;
  config.proof_holders = 8;
  config.seed = 11;
  return config;
}

TEST(WorkloadDriverTest, AllScenariosRunCleanSmall) {
  for (const std::string& scenario : apps::ScenarioNames()) {
    WorkloadDriver driver(SmallDriverConfig(scenario));
    Result<WorkloadReport> report = driver.Run();
    ASSERT_TRUE(report.ok()) << scenario << ": " << report.status().message();
    EXPECT_EQ(report->calls_completed, 1'500u);
    EXPECT_TRUE(report->audited);
    EXPECT_TRUE(report->audit.clean()) << scenario << ": " << report->audit.Summary();
    EXPECT_GT(report->audit.events_ingested, 0u) << scenario;
    EXPECT_GT(report->audit.mutations_ingested, 0u) << scenario;
    EXPECT_GT(report->audit.verdicts_checked, 0u) << scenario;
    EXPECT_GT(report->allows + report->denies, 0u) << scenario;
  }
}

TEST(WorkloadDriverTest, OpenLoopModeCompletes) {
  WorkloadConfig config = SmallDriverConfig("trudocs");
  config.logical_calls = 400;
  config.open_loop = true;
  config.open_loop_rate = 200'000;
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->calls_completed, 400u);
  EXPECT_TRUE(report->audit.clean()) << report->audit.Summary();
}

TEST(WorkloadDriverTest, InjectedStaleVerdictDetected) {
  WorkloadConfig config = SmallDriverConfig("fauxbook");
  config.inject_stale_verdict = true;
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GE(report->audit.stale_generation_violations, 1u) << report->audit.Summary();
}

TEST(WorkloadDriverTest, InjectedWrongVerdictDetected) {
  WorkloadConfig config = SmallDriverConfig("fauxbook");
  config.inject_wrong_verdict = true;
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GE(report->audit.serializability_violations, 1u) << report->audit.Summary();
}

TEST(WorkloadDriverTest, InjectedRewrittenReplyDetected) {
  // A forged chain claiming an interposed call completed WITHOUT its
  // kReplyInterpose stage models a reply that bypassed the monitor chain;
  // the auditor must flag it. Needs the interposed scenario (ddrm).
  WorkloadConfig config = SmallDriverConfig("ddrm");
  config.inject_rewritten_reply = true;
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GE(report->audit.interposition_violations, 1u) << report->audit.Summary();
}

TEST(WorkloadDriverTest, CleanInterposedRunIsNotFlagged) {
  // The other direction of the reply invariant: a clean ddrm run — every
  // reply really does traverse the chain — must produce ZERO interposition
  // violations, or the invariant would drown real bypasses in noise.
  WorkloadConfig config = SmallDriverConfig("ddrm");
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->audit.interposition_violations, 0u) << SampleDump(report->audit);
  EXPECT_EQ(report->audit.total_violations(), 0u) << SampleDump(report->audit);
}

TEST(WorkloadDriverTest, BatchedReadsRunCleanInterposed) {
  // CallMany submission under audit: every batched read shares one
  // boundary crossing, yet each message must still emit a full per-message
  // interposition chain the auditor accepts. Batch stays small (4) so a
  // batch's events can't wrap a per-thread trace ring into truncation.
  WorkloadConfig config = SmallDriverConfig("ddrm");
  config.callmany_batch = 4;
  config.read_weight = 60;  // Make batched reads the dominant verb.
  config.authorize_weight = 25;
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report->read_ops, 0u);
  EXPECT_TRUE(report->audit.clean()) << SampleDump(report->audit);
  EXPECT_EQ(report->audit.interposition_violations, 0u) << SampleDump(report->audit);
}

TEST(WorkloadDriverTest, BatchedVerdictsAreAudited) {
  // Every verdict in this mix comes from a batched read: the batched
  // authorization path must emit the probe and verdict events the auditor
  // value-checks, under goal flips and process churn.
  WorkloadConfig config = SmallDriverConfig("ddrm");
  config.callmany_batch = 4;
  config.authorize_weight = 0;
  config.write_weight = 0;
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report->read_ops, 0u);
  EXPECT_GT(report->setgoal_ops, 0u);
  EXPECT_GT(report->churn_ops, 0u);
  EXPECT_TRUE(report->audit.clean()) << SampleDump(report->audit);
  EXPECT_GT(report->audit.verdicts_checked, 0u) << SampleDump(report->audit);
}

TEST(WorkloadDriverTest, ReportJsonRoundTrips) {
  WorkloadConfig config = SmallDriverConfig("fauxbook");
  config.logical_calls = 500;
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"scenario\": \"fauxbook\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"audit\""), std::string::npos);
  const std::string path = ::testing::TempDir() + "/harness_report.json";
  ASSERT_TRUE(report->WriteJson(path).ok());
  std::ifstream back(path);
  std::string contents((std::istreambuf_iterator<char>(back)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, json);
}

// ------------------------------------------------------------ The soak
//
// Acceptance shape by default: >= 4 threads, >= 100k logical calls, zipf
// over >= 1M simulated subjects, goal-flip + spawn/kill churn in the mix,
// zero violations. NEXUS_SOAK_* scales it (CI's TSan leg runs it smaller).

TEST(WorkloadSoakTest, ChurnSoakIsViolationFree) {
  WorkloadConfig config;
  config.scenario = "ddrm";  // Interposed: all invariant families active.
  config.threads = static_cast<size_t>(EnvOr("NEXUS_SOAK_THREADS", 4));
  config.logical_calls = EnvOr("NEXUS_SOAK_CALLS", 100'000);
  config.subjects = EnvOr("NEXUS_SOAK_SUBJECTS", 1'000'000);
  config.objects = 128;
  config.audited_objects = 8;
  config.proof_holders = 32;
  config.seed = EnvOr("NEXUS_SOAK_SEED", 2026);
  // NEXUS_SOAK_BATCH > 1 drives reads through Kernel::CallMany instead of
  // per-call submission (CI runs one such pass). Audited soaks keep the
  // batch small: the flight-recorder ring holds 256 events per thread, so
  // a large batch between drains would overrun it and the auditor would
  // see sampled (incomplete) chains instead of violations.
  config.callmany_batch = static_cast<size_t>(EnvOr("NEXUS_SOAK_BATCH", 1));
  WorkloadDriver driver(config);
  Result<WorkloadReport> report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->calls_completed, config.logical_calls);
  EXPECT_TRUE(report->audit.clean()) << SampleDump(report->audit);
  EXPECT_GT(report->audit.verdicts_checked, 0u);
  EXPECT_GT(report->audit.complete_chains, 0u);
  EXPECT_GT(report->setgoal_ops, 0u);
  EXPECT_GT(report->churn_ops, 0u);
  // Sampled-stream coverage is explicit, never silent.
  RecordProperty("events_ingested", static_cast<int>(report->audit.events_ingested));
  RecordProperty("events_dropped", static_cast<int>(report->audit.events_dropped));
}

}  // namespace
}  // namespace nexus

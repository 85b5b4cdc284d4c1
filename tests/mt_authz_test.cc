// Multi-threaded authorization frontend stress tests.
//
// The contract under test (README "Threading model"): worker threads may
// call Kernel::Authorize / AuthorizeBatch concurrently with each other AND
// with control-plane mutations (SetGoal / SetProof, which invalidate the
// sharded decision cache), while the intern tables take concurrent
// interning from every side. These tests are the ThreadSanitizer targets
// wired into CI; they also assert end-state consistency so a lost
// invalidation (a stale cached verdict surviving a goal flip) fails even
// without TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "core/nexus.h"
#include "kernel/trace.h"
#include "nal/interner.h"
#include "nal/parser.h"
#include "net/node.h"
#include "net/remote_authority.h"
#include "net/transport.h"
#include "services/ddrm.h"

namespace nexus::core {
namespace {

nal::Formula F(std::string_view text) {
  Result<nal::Formula> f = nal::ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << " -> " << f.status().ToString();
  return f.ok() ? *f : nullptr;
}

TEST(MtAuthzStressTest, ConcurrentAuthorizeVsSetGoalInvalidations) {
  Rng rng(7);
  tpm::Tpm tpm(rng);
  Nexus nexus(&tpm);
  kernel::Kernel& kernel = nexus.kernel();
  Engine& engine = nexus.engine();

  constexpr int kWorkers = 4;
  constexpr int kObjects = 8;
  constexpr int kItersPerWorker = 1500;
  constexpr int kGoalFlips = 400;

  kernel::ProcessId owner = *nexus.CreateProcess("owner", ToBytes("o"));
  // The provable goal (credential seeded below) and the unprovable one the
  // mutator flips to; a premise proof for `provable` never discharges it.
  nal::Formula provable = F("Certifier says ok(app)");
  nal::Formula unprovable = F("Certifier says nope(app)");
  engine.SayAs(nal::Principal("Certifier"), F("ok(app)"));

  // One subject per worker: subjects hash to their own decision-cache
  // shards, so the hit path runs genuinely in parallel.
  std::vector<kernel::ProcessId> subjects;
  std::vector<std::vector<kernel::AuthzRequest>> requests(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    subjects.push_back(*nexus.CreateProcess("w" + std::to_string(t), ToBytes("w")));
  }
  for (int o = 0; o < kObjects; ++o) {
    std::string object = "obj" + std::to_string(o);
    ASSERT_TRUE(engine.RegisterObject(object, owner, kernel::kKernelProcessId).ok());
    ASSERT_TRUE(engine.SetGoal(owner, "use", object, provable).ok());
    for (int t = 0; t < kWorkers; ++t) {
      ASSERT_TRUE(
          engine.SetProof(subjects[t], "use", object, nal::proof::Premise(provable)).ok());
      requests[t].push_back(kernel::AuthzRequest::Of(subjects[t], "use", object));
    }
  }

  std::atomic<uint64_t> allows{0};
  std::atomic<uint64_t> denies{0};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> threads;
  threads.reserve(kWorkers + 1);
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerWorker; ++i) {
        const kernel::AuthzRequest& request = requests[t][i % kObjects];
        Status status = kernel.Authorize(request);
        if (status.ok()) {
          ++allows;
        } else if (status.code() == ErrorCode::kPermissionDenied) {
          ++denies;  // Caught a goal-flip window: expected.
        } else {
          ++unexpected;
        }
      }
    });
  }
  // The mutator races setgoal invalidations (and the odd setproof, which
  // invalidates its tuple's cached verdict) against the workers' lookups.
  threads.emplace_back([&] {
    for (int i = 0; i < kGoalFlips; ++i) {
      std::string object = "obj" + std::to_string(i % kObjects);
      const nal::Formula& goal = (i % 2 == 0) ? unprovable : provable;
      EXPECT_TRUE(engine.SetGoal(owner, "use", object, goal).ok());
      if (i % 16 == 0) {
        EXPECT_TRUE(engine
                        .SetProof(subjects[i % kWorkers], "use", object,
                                  nal::proof::Premise(provable))
                        .ok());
      }
    }
    // Leave every goal provable for the post-quiescence check.
    for (int o = 0; o < kObjects; ++o) {
      EXPECT_TRUE(engine.SetGoal(owner, "use", "obj" + std::to_string(o), provable).ok());
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(allows.load(), 0u);
  // Post-quiescence: every goal is provable again, so every request must
  // authorize. A stale deny cached past its invalidation fails here.
  for (int t = 0; t < kWorkers; ++t) {
    for (const kernel::AuthzRequest& request : requests[t]) {
      Status status = kernel.Authorize(request);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
  // Batch frontend under the same churned state.
  for (int t = 0; t < kWorkers; ++t) {
    for (const Status& status : kernel.AuthorizeBatch(requests[t])) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
}

TEST(MtAuthzStressTest, ConcurrentInterningConvergesToOneIdPerFormula) {
  nal::Interner interner;
  constexpr int kWorkers = 4;
  constexpr int kFormulas = 64;
  // Each worker parses its own copies (distinct trees, distinct
  // addresses) of the same formula set and interns them repeatedly.
  std::vector<std::vector<nal::FormulaId>> ids(kWorkers,
                                               std::vector<nal::FormulaId>(kFormulas));
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFormulas; ++i) {
        nal::Formula f = F("P" + std::to_string(i % 7) + " says fact" + std::to_string(i) +
                           "(x" + std::to_string(t % 2) + ")");
        ids[t][i] = interner.Intern(f);
        // Re-interning the canonical node must be stable.
        EXPECT_EQ(interner.Intern(interner.Resolve(ids[t][i])), ids[t][i]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int i = 0; i < kFormulas; ++i) {
    for (int t = 1; t < kWorkers; ++t) {
      // Workers 0 and 1 built different argument symbols (x0 vs x1); ids
      // must agree exactly between workers of the same parity and differ
      // across parities.
      if (t % 2 == 0) {
        EXPECT_EQ(ids[t][i], ids[0][i]) << i;
      } else {
        EXPECT_EQ(ids[t][i], ids[1][i]) << i;
        EXPECT_NE(ids[t][i], ids[0][i]) << i;
      }
    }
  }
}

// The decision-cached DDRM, one instance shared by concurrent callers as
// apps::Fauxbook installs it on its driver port: Kernel::CallMany runs
// interceptors on the caller's thread with no kernel lock held. Every
// worker asks verdicts no other worker has asked (its own unknown ops and
// ipc_send targets) beside the allowed ops all of them share, so a
// monitor that records verdicts as it answers writes under the others'
// reads.
TEST(MtAuthzStressTest, ConcurrentCallsShareOneCachedDriverMonitor) {
  services::DdrmPolicy policy;
  policy.allowed_operations = {"send", "recv", "ipc_send"};
  policy.allowed_ipc_targets = {7};
  services::DeviceDriverMonitor monitor(policy);
  constexpr int kWorkers = 4;
  constexpr int kIters = 300;
  std::atomic<uint64_t> allowed{0};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      const kernel::IpcContext context;
      auto ask = [&](kernel::IpcMessage message, bool expect_allow) {
        const bool allow = monitor.OnCall(context, message) == kernel::InterposeVerdict::kAllow;
        allowed.fetch_add(allow ? 1 : 0);
        unexpected.fetch_add(allow != expect_allow ? 1 : 0);
      };
      for (int i = 0; i < kIters; ++i) {
        ask(kernel::IpcMessage::Of(i % 2 == 0 ? "send" : "recv"), true);
        ask(kernel::IpcMessage::Of("mt_ddrm_op_" + std::to_string(t) + "_" + std::to_string(i)),
            false);
        kernel::IpcMessage ipc_send = kernel::IpcMessage::Of("ipc_send");
        const bool to_allowed = i % 3 == 0;
        ipc_send.AddPort(to_allowed ? 7 : 1000 + static_cast<kernel::PortId>(t * kIters + i));
        ask(std::move(ipc_send), to_allowed);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(*monitor.metrics().Value("allowed"), allowed.load());
  EXPECT_EQ(*monitor.metrics().Value("allowed") + *monitor.metrics().Value("denied"),
            uint64_t{kWorkers} * kIters * 3);
}

TEST(MtAuthzStressTest, ConcurrentNameTableInternAndResolve) {
  kernel::NameTable table;
  constexpr int kWorkers = 4;
  constexpr int kNames = 200;
  std::vector<std::vector<uint32_t>> ids(kWorkers, std::vector<uint32_t>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kNames; ++i) {
        std::string name = "file:/shared/" + std::to_string(i);
        ids[t][i] = table.Intern(name);
        // Reads race other workers' inserts; the returned view must be the
        // interned name, stable without any lock held.
        EXPECT_EQ(table.Name(ids[t][i]), name);
        EXPECT_EQ(table.Find(name), ids[t][i]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kWorkers; ++t) {
    EXPECT_EQ(ids[t], ids[0]);  // One id per name, process-wide.
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kNames) + 1);  // + reserved "".
}

TEST(MtAuthzStressTest, DecisionCacheShardsSurviveConcurrentChurn) {
  kernel::DecisionCache cache;
  constexpr int kWorkers = 4;
  constexpr int kIters = 4000;
  kernel::OpId op = kernel::InternOp("use");
  std::vector<kernel::ObjectId> objects;
  for (int o = 0; o < 8; ++o) {
    objects.push_back(kernel::InternObject("churn" + std::to_string(o)));
  }
  std::atomic<uint64_t> wrong_verdicts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      kernel::ProcessId subject = 1000 + t;
      for (int i = 0; i < kIters; ++i) {
        kernel::AuthzRequest request{subject, op, objects[i % objects.size()]};
        // Each worker only ever inserts ALLOW for its own subject, so any
        // deny read back would be corruption across shards/subjects.
        uint64_t generation = cache.Generation(request);
        cache.InsertIfUnchanged(request, true, generation);
        std::optional<bool> cached = cache.Lookup(request);
        if (cached.has_value() && !*cached) {
          ++wrong_verdicts;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kIters / 4; ++i) {
      cache.InvalidateSubregion(op, objects[i % objects.size()]);
      if (i % 64 == 0) {
        cache.Clear();
      }
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(wrong_verdicts.load(), 0u);
  EXPECT_GT(*cache.metrics().Value("insertions"), 0u);
  EXPECT_GT(*cache.metrics().Value("subregion_invalidations"), 0u);
}

// The seqlock hit path against torn entries. One shard, one subregion, two
// slots: six subjects evict each other on every insert, and each subject's
// verdict is its parity, so a lookup that matched one insert's subject but
// read another's verdict sees the wrong parity. Readers also race the
// generation bumps of periodic subregion invalidations.
TEST(MtAuthzStressTest, DecisionCacheLookupsNeverReadATornEntry) {
  kernel::DecisionCache cache(kernel::DecisionCache::Config{
      .num_subregions = 1, .entries_per_subregion = 2, .num_shards = 1});
  const kernel::OpId op = kernel::InternOp("torn");
  const kernel::ObjectId obj = kernel::InternObject("torn:object");
  constexpr uint64_t kSubjects = 6;
  constexpr uint64_t kInsertsPerInvalidation = 4096;
  auto request_for = [&](uint64_t i) {
    return kernel::AuthzRequest{1 + i % kSubjects, op, obj};
  };
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> threads;
  for (uint64_t writer = 0; writer < 2; ++writer) {
    threads.emplace_back([&, writer] {
      for (uint64_t i = writer; !stop.load(std::memory_order_relaxed); ++i) {
        const kernel::AuthzRequest request = request_for(i);
        cache.Insert(request, request.subject % 2 == 1);
        if (i % kInsertsPerInvalidation == 0) {
          cache.InvalidateSubregion(op, obj);
        }
      }
    });
  }
  for (uint64_t reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&, reader] {
      uint64_t my_hits = 0;
      uint64_t my_torn = 0;
      for (uint64_t i = reader; !stop.load(std::memory_order_relaxed); ++i) {
        const kernel::AuthzRequest request = request_for(i);
        std::optional<bool> cached = cache.Lookup(request);
        if (cached.has_value()) {
          ++my_hits;
          my_torn += *cached != (request.subject % 2 == 1) ? 1 : 0;
        }
      }
      hits += my_hits;
      torn += my_torn;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(torn.load(), 0u) << "of " << hits.load() << " hits";
  EXPECT_GT(hits.load(), 0u);
}

// THE parallel-miss-path acceptance test: two subjects whose authorization
// misses each require a remote-authority round trip run on two OS threads,
// and the simulated clock proves the round trips OVERLAPPED — both misses
// together cost one RTT, not two. Under the PR-3 engine monitor the second
// miss could not enter the engine until the first's round trip returned,
// so this completed in 2 RTTs by construction.
TEST(MtAuthzStressTest, TwoSubjectRemoteMissesOverlapInOneRtt) {
  Rng rng_a(11), rng_b(22);
  tpm::Tpm tpm_a(rng_a), tpm_b(rng_b);
  Nexus nexus_a(&tpm_a, NexusOptions{.seed = 1});
  Nexus nexus_b(&tpm_b, NexusOptions{.seed = 2});
  nexus_a.RegisterPeer("b", tpm_b.endorsement_public_key());
  nexus_b.RegisterPeer("a", tpm_a.endorsement_public_key());
  net::Transport transport(7);
  constexpr uint64_t kLatencyUs = 100;
  transport.SetLink("a", "b", net::LinkConfig{.latency_us = kLatencyUs, .drop_rate = 0.0});
  net::NetNode node_a(&nexus_a, &transport, "a");
  net::NetNode node_b(&nexus_b, &transport, "b");

  net::AuthorityService service(&node_b);
  LambdaAuthority session(
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "Session";
      },
      [](const nal::Formula&) { return true; });
  service.AddAuthority(&session);
  net::RemoteAuthority remote(&node_a, "b", nullptr);
  nexus_a.guard().AddRemoteAuthority(&remote);
  nexus_a.guard().set_remote_query_timeout_us(1000000);

  kernel::ProcessId owner = *nexus_a.CreateProcess("owner", ToBytes("o"));
  // Two subjects on provably DISTINCT engine stripes (otherwise the
  // per-subject serialization — correct behavior — would mask the overlap
  // this test exists to observe).
  kernel::ProcessId s1 = *nexus_a.CreateProcess("s1", ToBytes("w"));
  kernel::ProcessId s2 = *nexus_a.CreateProcess("s2", ToBytes("w"));
  while (Engine::StripeOf(s2) == Engine::StripeOf(s1)) {
    s2 = *nexus_a.CreateProcess("s2", ToBytes("w"));
  }

  auto arm = [&](kernel::ProcessId subject, const std::string& object,
                 const std::string& user) {
    nal::Formula statement = F("Session says active(" + user + ")");
    EXPECT_TRUE(
        nexus_a.engine().RegisterObject(object, owner, kernel::kKernelProcessId).ok());
    EXPECT_TRUE(nexus_a.engine().SetGoal(owner, "use", object, statement).ok());
    EXPECT_TRUE(
        nexus_a.engine().SetProof(subject, "use", object, nal::proof::Authority(statement))
            .ok());
    return kernel::AuthzRequest::Of(subject, "use", object);
  };
  kernel::AuthzRequest warmup = arm(s1, "warmup", "warm");
  kernel::AuthzRequest r1 = arm(s1, "objA", "alice");
  kernel::AuthzRequest r2 = arm(s2, "objB", "bob");

  // Warm-up: establishes the attested channel (handshake + one vouch round
  // trip) single-threaded, so the concurrent phase below is pure data-plane.
  ASSERT_TRUE(nexus_a.kernel().Authorize(warmup).ok());
  uint64_t t0 = transport.now_us();

  // Rendezvous: no delivery (and no clock movement) until BOTH misses have
  // their Vouch request on the wire.
  transport.ArmPumpGate(2);
  Status st1, st2;
  std::thread w1([&] { st1 = nexus_a.kernel().Authorize(r1); });
  std::thread w2([&] { st2 = nexus_a.kernel().Authorize(r2); });
  w1.join();
  w2.join();

  EXPECT_TRUE(st1.ok()) << st1.ToString();
  EXPECT_TRUE(st2.ok()) << st2.ToString();
  // Both requests left at t0, both replies landed at t0 + 2*latency: ONE
  // round trip of wall-clock for two misses. The serial engine paid
  // t0 + 4*latency here.
  EXPECT_EQ(transport.now_us(), t0 + 2 * kLatencyUs);
  // And both misses really did consult the remote authority.
  EXPECT_EQ(*remote.metrics().Value("queries"), 3u);  // warmup + r1 + r2
}

// Authorization misses racing process/port lifecycle churn: the kernel's
// sharded process/port tables let spawn, kill, and port create/destroy run
// while worker threads miss (the PR-3 quiescence rule is gone). Workers
// also exercise the kProcRead syscall — procfs reads and the charged intern
// surface — mid-churn. TSan-clean is the real assertion; the end-state
// checks catch lost updates without it.
TEST(MtAuthzStressTest, AuthorizeMissesVsProcessAndPortLifecycleChurn) {
  Rng rng(13);
  tpm::Tpm tpm(rng);
  Nexus nexus(&tpm);
  kernel::Kernel& kernel = nexus.kernel();
  Engine& engine = nexus.engine();
  // Every Authorize below is a full engine miss: the point is the miss
  // path vs the tables, not cache hits.
  kernel.set_decision_cache_enabled(false);

  constexpr int kWorkers = 3;
  constexpr int kItersPerWorker = 400;
  constexpr int kChurnIters = 250;

  kernel::ProcessId owner = *nexus.CreateProcess("owner", ToBytes("o"));
  nal::Formula goal = F("Certifier says ok(app)");
  engine.SayAs(nal::Principal("Certifier"), F("ok(app)"));

  std::vector<kernel::ProcessId> subjects;
  std::vector<std::vector<kernel::AuthzRequest>> requests(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    subjects.push_back(*nexus.CreateProcess("w" + std::to_string(t), ToBytes("w")));
    for (int o = 0; o < 4; ++o) {
      std::string object = "churn-obj" + std::to_string(t) + "-" + std::to_string(o);
      ASSERT_TRUE(engine.RegisterObject(object, owner, kernel::kKernelProcessId).ok());
      ASSERT_TRUE(engine.SetGoal(owner, "use", object, goal).ok());
      ASSERT_TRUE(
          engine.SetProof(subjects[t], "use", object, nal::proof::Premise(goal)).ok());
      requests[t].push_back(kernel::AuthzRequest::Of(subjects[t], "use", object));
    }
  }

  uint64_t generation_before = kernel.lifecycle_generation();
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> proc_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerWorker; ++i) {
        Status status = kernel.Authorize(requests[t][i % requests[t].size()]);
        if (!status.ok()) {
          ++failures;
        }
        if (i % 16 == 0) {
          // A syscall through the interposition+procfs surface, mid-churn.
          kernel::IpcMessage msg;
          msg.AddString("/proc/kernel/name");
          kernel::IpcReply reply =
              kernel.Call(subjects[t], kernel::SyscallIpcPort(kernel::Syscall::kProcRead), msg);
          if (reply.status.ok()) {
            ++proc_reads;
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    uint64_t last_port_generation = 0;
    for (int i = 0; i < kChurnIters; ++i) {
      Result<kernel::ProcessId> pid = kernel.CreateProcess("ephemeral", ToBytes("e"));
      ASSERT_TRUE(pid.ok());
      Result<kernel::PortId> port = kernel.CreatePort(*pid);
      ASSERT_TRUE(port.ok());
      // Generation-stamped lookup: every port carries the lifecycle
      // generation of its creation, strictly increasing across churn.
      Result<uint64_t> stamp = kernel.PortGeneration(*port);
      ASSERT_TRUE(stamp.ok());
      EXPECT_GT(*stamp, last_port_generation);
      last_port_generation = *stamp;
      EXPECT_TRUE(kernel.ConnectPort(*pid, *port).ok());
      EXPECT_TRUE(kernel.HasChannel(*pid, *port));
      if (i % 2 == 0) {
        EXPECT_TRUE(kernel.DestroyPort(*port).ok());
      }
      EXPECT_TRUE(kernel.KillProcess(*pid).ok());  // Reaps remaining ports.
      EXPECT_FALSE(kernel.IsAlive(*pid));
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(proc_reads.load(), 0u);
  // Every lifecycle mutation stamped the generation counter.
  EXPECT_GE(kernel.lifecycle_generation(),
            generation_before + 3 * static_cast<uint64_t>(kChurnIters));
  // Post-quiescence: the ephemeral processes are gone, the subjects and
  // their verdicts are intact.
  for (int t = 0; t < kWorkers; ++t) {
    EXPECT_TRUE(kernel.IsAlive(subjects[t]));
    for (const kernel::AuthzRequest& request : requests[t]) {
      EXPECT_TRUE(kernel.Authorize(request).ok());
    }
  }
}

// Flight-recorder ring contract under TSan: many writer threads emit into
// their per-thread rings (wrapping them several times over) while readers
// concurrently merge Recent()/ForTrace() views and Clear() races both.
// Readers must only ever observe fully-written events — the per-slot
// seqlock drops torn slots — and nothing may crash or leak a dead ring.
TEST(MtAuthzStressTest, TraceRingConcurrentEmitReadClear) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  recorder.Clear();
  recorder.set_enabled(true);

  constexpr int kEmitters = 4;
  constexpr int kEventsPerEmitter = 40000;  // 40x ring capacity: heavy wrap.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_events{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kEmitters; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kEventsPerEmitter; ++i) {
        kernel::TraceEvent e;
        e.trace_id = recorder.NewTraceId();
        e.subject = static_cast<kernel::ProcessId>(t + 1);
        // Payload pattern a reader can validate: aux mirrors trace_id, so
        // a torn slot (words from two different writes) is detectable.
        e.aux = e.trace_id;
        e.stage = kernel::TraceStage::kGuardCheck;
        recorder.Emit(e);
      }
    });
  }
  // Two readers merging all rings while the writers wrap them.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&recorder, &stop, &bad_events] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const kernel::TraceEvent& e : recorder.Recent()) {
          if (e.aux != e.trace_id) {
            ++bad_events;
          }
        }
        std::vector<kernel::TraceEvent> one = recorder.ForTrace(17);
        if (one.size() > 1) {
          ++bad_events;  // A trace id is allocated to exactly one event here.
        }
      }
    });
  }
  // A clearer racing everyone.
  threads.emplace_back([&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.Clear();
      std::this_thread::yield();
    }
  });

  for (int t = 0; t < kEmitters; ++t) {
    threads[static_cast<size_t>(t)].join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kEmitters; i < threads.size(); ++i) {
    threads[i].join();
  }

  recorder.set_enabled(false);
  EXPECT_EQ(bad_events.load(), 0u);
  // Emissions landed (heads are monotonic even across Clear()).
  EXPECT_GE(recorder.events_emitted(),
            static_cast<uint64_t>(kEmitters) * kEventsPerEmitter);
  recorder.Clear();
}

// Trace-id propagation under concurrency: parallel traced Authorize calls
// each produce a self-consistent chain — every event of a given trace id
// names the same subject (ids never bleed across threads).
TEST(MtAuthzStressTest, ConcurrentTracedAuthorizeKeepsChainsSeparate) {
  Rng rng(23);
  tpm::Tpm tpm(rng);
  Nexus nexus(&tpm);
  kernel::Kernel& kernel = nexus.kernel();

  constexpr int kWorkers = 4;
  constexpr int kIters = 300;
  std::vector<kernel::ProcessId> subjects;
  for (int t = 0; t < kWorkers; ++t) {
    subjects.push_back(*nexus.CreateProcess("tw" + std::to_string(t), ToBytes("w")));
  }

  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  recorder.Clear();
  recorder.set_enabled(true);

  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&kernel, &subjects, t] {
      for (int i = 0; i < kIters; ++i) {
        // Distinct objects defeat the decision cache so every call walks
        // the full probe -> miss -> verdict pipeline.
        kernel::AuthzRequest request{
            subjects[static_cast<size_t>(t)], kernel::InternOp("use"),
            kernel::InternObject("trace-obj:" + std::to_string(t) + ":" + std::to_string(i))};
        EXPECT_TRUE(kernel.Authorize(request).ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  recorder.set_enabled(false);

  std::map<uint64_t, kernel::ProcessId> chain_subject;
  for (const kernel::TraceEvent& e : recorder.Recent()) {
    if (e.trace_id == 0 || e.subject == 0) {
      continue;
    }
    auto [it, inserted] = chain_subject.emplace(e.trace_id, e.subject);
    if (!inserted) {
      EXPECT_EQ(it->second, e.subject) << "trace id bled across subjects";
    }
  }
  EXPECT_FALSE(chain_subject.empty());
  recorder.Clear();
}

TEST(MtAuthzStressTest, ColdMissesVsLabelWritesRebuildSnapshots) {
  // Two threads miss on cold tuples — every (subject, object) pair is asked
  // exactly once, so every request reaches the engine and takes credential
  // snapshots — while a third writes labels into subject stores, the
  // system store and object labels. Each write makes the next reader
  // rebuild a snapshot lazily: readers race each other on the rebuild, and
  // the writer races them on the published handles.
  Rng rng(11);
  tpm::Tpm tpm(rng);
  Nexus nexus(&tpm);
  kernel::Kernel& kernel = nexus.kernel();
  Engine& engine = nexus.engine();

  constexpr int kMissers = 2;
  constexpr int kSubjects = 48;
  constexpr int kObjects = 16;
  constexpr int kWrites = 300;

  kernel::ProcessId owner = *nexus.CreateProcess("owner", ToBytes("o"));
  nal::Formula goal = F("Certifier says ok(app)");
  engine.SayAs(nal::Principal("Certifier"), F("ok(app)"));
  std::vector<kernel::ProcessId> subjects;
  for (int s = 0; s < kSubjects; ++s) {
    subjects.push_back(*nexus.CreateProcess("cold" + std::to_string(s), ToBytes("c")));
  }
  std::vector<std::string> objects;
  for (int o = 0; o < kObjects; ++o) {
    objects.push_back("coldobj" + std::to_string(o));
    ASSERT_TRUE(engine.RegisterObject(objects[o], owner, kernel::kKernelProcessId).ok());
    ASSERT_TRUE(engine.SetGoal(owner, "use", objects[o], goal).ok());
    for (kernel::ProcessId subject : subjects) {
      ASSERT_TRUE(
          engine.SetProof(subject, "use", objects[o], nal::proof::Premise(goal)).ok());
    }
  }

  std::atomic<uint64_t> allows{0};
  std::atomic<uint64_t> unexpected{0};
  auto tally = [&](const Status& status) {
    if (status.ok()) {
      ++allows;
    } else {
      ++unexpected;  // The goal stays provable throughout: nothing may deny.
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kMissers; ++t) {
    threads.emplace_back([&, t] {
      for (int s = t; s < kSubjects; s += kMissers) {
        // Half of each subject's tuples one at a time, half as one batch.
        std::vector<kernel::AuthzRequest> batch;
        for (int o = 0; o < kObjects; ++o) {
          kernel::AuthzRequest request =
              kernel::AuthzRequest::Of(subjects[s], "use", objects[o]);
          if (o % 2 == 0) {
            tally(kernel.Authorize(request));
          } else {
            batch.push_back(request);
          }
        }
        for (const Status& status : kernel.AuthorizeBatch(batch)) {
          tally(status);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kWrites; ++i) {
      std::string n = "n" + std::to_string(i);
      EXPECT_TRUE(engine.Say(subjects[i % kSubjects], "note(" + n + ")").ok());
      engine.SayAs(nal::Principal("Certifier"), F("extra(" + n + ")"));
      engine.AddObjectLabel(objects[i % kObjects], F("Owner says tag(" + n + ")"));
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(allows.load(), uint64_t{kSubjects} * kObjects);
  // Post-quiescence: the last write of each kind is visible to a fresh miss.
  const std::string last = "n" + std::to_string(kWrites - 1);
  const kernel::ProcessId last_subject = subjects[(kWrites - 1) % kSubjects];
  const std::string& last_object = objects[(kWrites - 1) % kObjects];
  for (const nal::Formula& fresh :
       {F("Certifier says extra(" + last + ")"), F("Owner says tag(" + last + ")"),
        F(kernel.ProcessPrincipal(last_subject).ToString() + " says note(" + last + ")")}) {
    ASSERT_TRUE(engine.SetGoal(owner, "use", last_object, fresh).ok());
    ASSERT_TRUE(
        engine.SetProof(last_subject, "use", last_object, nal::proof::Premise(fresh)).ok());
    Status status = kernel.Authorize(kernel::AuthzRequest::Of(last_subject, "use", last_object));
    EXPECT_TRUE(status.ok()) << fresh->ToString() << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace nexus::core

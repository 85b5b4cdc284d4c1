// End-to-end observability tests: the flight recorder's provenance chain
// through a real interposed fileserver read, the guarded procfs export of
// the metrics plane, and the analyzer's trace-derived traffic view.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/bgp_verifier.h"
#include "core/nexus.h"
#include "kernel/trace.h"
#include "nal/parser.h"
#include "nal/prover.h"
#include "net/cert_exchange.h"
#include "net/mesh/mesh.h"
#include "net/remote_authority.h"
#include "services/ddrm.h"
#include "services/ipc_analyzer.h"
#include "services/read_redactor.h"
#include "tpm/tpm.h"

namespace nexus::core {
namespace {

nal::Formula F(const std::string& text) { return *nal::ParseFormula(text); }

// Enables the global recorder for one test body and restores silence (and
// an empty ring view) afterwards, so tests cannot leak events into each
// other.
class ScopedRecorder {
 public:
  ScopedRecorder() {
    kernel::FlightRecorder::Global().Clear();
    kernel::FlightRecorder::Global().set_enabled(true);
  }
  ~ScopedRecorder() {
    kernel::FlightRecorder::Global().set_enabled(false);
    kernel::FlightRecorder::Global().Clear();
  }
};

class AllowAllMonitor : public kernel::Interceptor {
 public:
  kernel::InterposeVerdict OnCall(const kernel::IpcContext&, kernel::IpcMessage&) override {
    ++calls;
    return kernel::InterposeVerdict::kAllow;
  }
  int calls = 0;
};

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() : rng_(77), tpm_(rng_), nexus_(&tpm_) {
    owner_ = *nexus_.CreateProcess("owner", ToBytes("owner-bin"));
    client_ = *nexus_.CreateProcess("client", ToBytes("client-bin"));
  }

  // open and proc_read take a path slot, read an fd slot.
  kernel::IpcReply Syscall(kernel::ProcessId caller, kernel::Syscall sc, std::string_view path) {
    kernel::IpcMessage message;
    message.AddString(path);
    return nexus_.kernel().Call(caller, kernel::SyscallIpcPort(sc), message);
  }
  kernel::IpcReply Syscall(kernel::ProcessId caller, kernel::Syscall sc, uint64_t fd) {
    kernel::IpcMessage message;
    message.AddU64(fd);
    return nexus_.kernel().Call(caller, kernel::SyscallIpcPort(sc), message);
  }

  Rng rng_;
  tpm::Tpm tpm_;
  Nexus nexus_;
  kernel::ProcessId owner_ = 0;
  kernel::ProcessId client_ = 0;
};

// The acceptance scenario: one interposed fileserver read yields a
// correlated provenance chain — Call -> syscall -> cache probe -> engine
// miss -> guard check -> verdict, all under one trace id — retrievable
// both programmatically (ForTrace) and through proc:/trace/recent.
TEST_F(ObservabilityTest, InterposedReadYieldsCorrelatedProvenanceChain) {
  kernel::Kernel& k = nexus_.kernel();
  ASSERT_TRUE(nexus_.fs().CreateFile("/data", ToBytes("payload")).ok());
  // Open while the file object is unguarded; the read below is the guarded
  // operation under test.
  kernel::IpcReply open = Syscall(client_, kernel::Syscall::kOpen, "/data");
  ASSERT_TRUE(open.status.ok()) << open.status.ToString();
  uint64_t fd = *open.ArgU64(0);

  // Guard the read behind a certifier attestation, with the client holding
  // a valid pre-submitted proof.
  std::string client_name = k.ProcessPrincipal(client_).ToString();
  nal::Formula goal = F("Certifier says safe(" + client_name + ")");
  ASSERT_TRUE(nexus_.engine().RegisterObject("file:/data", owner_, kernel::kKernelProcessId).ok());
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/data", goal).ok());
  nexus_.engine().SayAs(nal::Principal("Certifier"), F("safe(" + client_name + ")"));
  auto creds = nexus_.engine().SystemStore().All();
  Result<nal::Proof> proof = nal::AutoProve(goal, creds);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  ASSERT_TRUE(nexus_.engine().SetProof(client_, "read", "file:/data", *proof).ok());

  // Interpose a monitor on the filesystem port, then trace one read.
  AllowAllMonitor monitor;
  Result<uint64_t> token = k.Interpose(owner_, k.fs_port(), &monitor);
  ASSERT_TRUE(token.ok()) << token.status().ToString();

  ScopedRecorder recorder;
  kernel::IpcReply read = Syscall(client_, kernel::Syscall::kRead, fd);
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(ToString(read.data), "payload");
  EXPECT_EQ(monitor.calls, 1);

  std::vector<kernel::TraceEvent> recent = kernel::FlightRecorder::Global().Recent();
  ASSERT_FALSE(recent.empty());
  const uint64_t id = recent.front().trace_id;
  ASSERT_NE(id, 0u);
  // Every retained event belongs to the single traced call.
  for (const kernel::TraceEvent& e : recent) {
    EXPECT_EQ(e.trace_id, id);
  }

  std::vector<kernel::TraceEvent> chain = kernel::FlightRecorder::Global().ForTrace(id);
  auto count_stage = [&](kernel::TraceStage stage) {
    return std::count_if(chain.begin(), chain.end(),
                         [&](const kernel::TraceEvent& e) { return e.stage == stage; });
  };
  EXPECT_GE(count_stage(kernel::TraceStage::kSyscall), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kCall), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kCacheProbe), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kEngineMiss), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kGuardCheck), 1);
  EXPECT_GE(count_stage(kernel::TraceStage::kVerdict), 1);

  // The IPC hop into the fileserver records that a monitor was on path,
  // and the final verdict is an allow.
  auto call_event = std::find_if(chain.begin(), chain.end(), [](const kernel::TraceEvent& e) {
    return e.stage == kernel::TraceStage::kCall;
  });
  ASSERT_NE(call_event, chain.end());
  EXPECT_TRUE(call_event->flags & kernel::kTraceFlagInterposed);
  EXPECT_EQ(call_event->verdict, kernel::kTraceVerdictAllow);
  auto verdict_event = std::find_if(chain.begin(), chain.end(), [](const kernel::TraceEvent& e) {
    return e.stage == kernel::TraceStage::kVerdict;
  });
  ASSERT_NE(verdict_event, chain.end());
  EXPECT_EQ(verdict_event->verdict, kernel::kTraceVerdictAllow);
  EXPECT_TRUE(verdict_event->flags & kernel::kTraceFlagCacheMiss);

  // The same chain is visible through the introspection namespace.
  kernel::IpcReply trace_read =
      Syscall(client_, kernel::Syscall::kProcRead, "/trace/recent");
  ASSERT_TRUE(trace_read.status.ok()) << trace_read.status.ToString();
  EXPECT_NE(trace_read.ArgString(0)->find("trace=" + std::to_string(id)), std::string::npos);
  EXPECT_NE(trace_read.ArgString(0)->find("stage=guard_check"), std::string::npos);

  ASSERT_TRUE(k.RemoveInterposition(*token).ok());
}

// A repeat of the same traced call hits the decision cache: the chain
// shrinks to probe + verdict with the hit flag, no engine or guard stage.
TEST_F(ObservabilityTest, CachedRepeatTracesAsHit) {
  kernel::Kernel& k = nexus_.kernel();
  ASSERT_TRUE(k.Authorize(
      kernel::AuthzRequest::Of(client_, "use", "widget:1")).ok());  // Warm the cache.

  ScopedRecorder recorder;
  ASSERT_TRUE(k.Authorize(kernel::AuthzRequest::Of(client_, "use", "widget:1")).ok());
  std::vector<kernel::TraceEvent> recent = kernel::FlightRecorder::Global().Recent();
  ASSERT_FALSE(recent.empty());
  std::vector<kernel::TraceEvent> chain =
      kernel::FlightRecorder::Global().ForTrace(recent.front().trace_id);
  bool saw_hit = false;
  for (const kernel::TraceEvent& e : chain) {
    EXPECT_NE(e.stage, kernel::TraceStage::kEngineMiss);
    EXPECT_NE(e.stage, kernel::TraceStage::kGuardCheck);
    if (e.stage == kernel::TraceStage::kVerdict) {
      saw_hit = (e.flags & kernel::kTraceFlagCacheHit) != 0;
    }
  }
  EXPECT_TRUE(saw_hit);
}

// The metrics plane is readable through the guarded proc-read syscall, and
// a goal formula on the stats node locks unauthorized subjects out.
TEST_F(ObservabilityTest, ProcStatsExportIsGuarded) {
  kernel::Kernel& k = nexus_.kernel();
  // Generate some kernel activity so the counters are visibly nonzero.
  ASSERT_TRUE(k.Authorize(kernel::AuthzRequest::Of(client_, "use", "widget:2")).ok());

  // Unguarded: anyone can read the export (bootstrap fail-open).
  kernel::IpcReply stats = Syscall(client_, kernel::Syscall::kProcRead, "/stats/kernel");
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_NE(stats.ArgString(0)->find("kernel.authorize_requests"), std::string::npos);
  kernel::IpcReply cache_stats = Syscall(client_, kernel::Syscall::kProcRead, "/stats/cache");
  ASSERT_TRUE(cache_stats.status.ok());
  EXPECT_NE(cache_stats.ArgString(0)->find("cache.misses"), std::string::npos);

  // Register the stats node and guard it behind an unprovable goal: the
  // client's next read is denied by the same authorization path as any
  // other object.
  ASSERT_TRUE(
      nexus_.engine().RegisterObject("proc:/stats/kernel", owner_, kernel::kKernelProcessId).ok());
  ASSERT_TRUE(nexus_.engine()
                  .SetGoal(owner_, "read", "proc:/stats/kernel", F("Auditor says cleared(nobody)"))
                  .ok());
  kernel::IpcReply denied = Syscall(client_, kernel::Syscall::kProcRead, "/stats/kernel");
  EXPECT_EQ(denied.status.code(), ErrorCode::kPermissionDenied);

  // Unrelated stats nodes stay readable.
  kernel::IpcReply still_ok = Syscall(client_, kernel::Syscall::kProcRead, "/stats/engine");
  EXPECT_TRUE(still_ok.status.ok());
}

// Every registered metrics prefix has a /stats node that renders all of
// its instruments: with one of every component that owns a MetricGroup
// alive, each top-level prefix in the registry reads back through the
// guarded proc-read path, names and all.
TEST_F(ObservabilityTest, StatsNodeForEveryRegisteredPrefix) {
  net::Transport transport;
  net::NetNode node(&nexus_, &transport, "obs");
  net::AttestedChannel channel(&nexus_, &transport, &node, "obs", "peer",
                               transport.AllocateChannelId(), /*initiator=*/true);
  net::CertificateExchange cert_exchange(&node, owner_);
  net::AuthorityService authority_service(&node);
  net::RemoteAuthority remote(&node, "peer");
  net::mesh::MeshNode mesh(&node);
  net::mesh::QuorumAuthority quorum(&transport, net::mesh::QuorumPolicy{});
  services::DeviceDriverMonitor ddrm(services::DdrmPolicy{});
  services::ReadRedactionMonitor redactor(services::RedactionPolicy{});
  apps::BgpVerifier bgp(65000, {"10.0.0.0/8"});

  std::map<std::string, std::vector<std::string>> by_prefix;
  for (const auto& [name, value] : metrics::Registry::Global().TakeSnapshot()) {
    by_prefix[name.substr(0, name.find('.'))].push_back(name);
  }
  for (const char* prefix : {"kernel", "cache", "guard", "engine", "transport", "channel",
                             "cert_exchange", "authority_service", "remote_authority", "mesh",
                             "quorum_authority", "ddrm", "redactor", "bgp_verifier"}) {
    EXPECT_TRUE(by_prefix.contains(prefix)) << prefix << " registered no instrument";
  }
  for (const auto& [prefix, names] : by_prefix) {
    kernel::IpcReply reply = Syscall(client_, kernel::Syscall::kProcRead, "/stats/" + prefix);
    ASSERT_TRUE(reply.status.ok()) << prefix << ": " << reply.status.ToString();
    for (const std::string& name : names) {
      EXPECT_NE(reply.ArgString(0)->find(name + " "), std::string::npos) << name;
    }
  }
}

// proc:/stats/trace reports the recorder's own state.
TEST_F(ObservabilityTest, TraceStatsNodeReportsRecorderState) {
  kernel::IpcReply off = Syscall(client_, kernel::Syscall::kProcRead, "/stats/trace");
  ASSERT_TRUE(off.status.ok());
  EXPECT_NE(off.ArgString(0)->find("enabled 0"), std::string::npos);

  ScopedRecorder recorder;
  kernel::IpcReply on = Syscall(client_, kernel::Syscall::kProcRead, "/stats/trace");
  ASSERT_TRUE(on.status.ok());
  EXPECT_NE(on.ArgString(0)->find("enabled 1"), std::string::npos);
}

// The analyzer's dynamic view: kCall events resolve to caller->callee
// edges, complementing the static channel graph.
TEST_F(ObservabilityTest, AnalyzerSeesObservedTraffic) {
  kernel::Kernel& k = nexus_.kernel();
  services::IpcAnalyzer analyzer(&k, &nexus_.engine(),
                                 *nexus_.CreateProcess("ipcanalyzer", ToBytes("a")));

  ASSERT_TRUE(nexus_.fs().CreateFile("/traffic", ToBytes("x")).ok());
  kernel::IpcReply open = Syscall(client_, kernel::Syscall::kOpen, "/traffic");
  ASSERT_TRUE(open.status.ok());

  kernel::ProcessId fs_pid = *k.PortOwner(k.fs_port());
  // Register the client's channel so the static reachability view also
  // knows about the edge the recorder is about to observe dynamically.
  ASSERT_TRUE(k.ConnectPort(client_, k.fs_port()).ok());
  ScopedRecorder recorder;
  EXPECT_EQ(analyzer.ObservedTraffic(client_, fs_pid), 0u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        Syscall(client_, kernel::Syscall::kRead, *open.ArgU64(0)).status.ok());
  }
  EXPECT_EQ(analyzer.ObservedTraffic(client_, fs_pid), 3u);
  auto edges = analyzer.ObservedEdges();
  EXPECT_EQ((edges[{client_, fs_pid}]), 3u);
  // The static reachability view agrees that the observed edge is legal.
  EXPECT_TRUE(analyzer.HasPath(client_, fs_pid));
}

// ForTrace reads every ring. Ring timestamps are ring-local, so a busy
// ring's later events must not crowd out a quiet ring's chain; the quiet
// thread stays alive, so its ring is not handed to another thread.
TEST_F(ObservabilityTest, ForTraceKeepsAQuietRingsChainBesideABusyRing) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  ScopedRecorder scoped;
  const uint64_t id = recorder.NewTraceId();
  std::latch emitted(1);
  std::latch release(1);
  std::thread quiet([&] {
    for (int i = 0; i < 3; ++i) {
      recorder.Emit(kernel::TraceEvent{.trace_id = id, .stage = kernel::TraceStage::kCall});
    }
    emitted.count_down();
    release.wait();
  });
  emitted.wait();
  std::vector<kernel::TraceEvent> chain = recorder.ForTrace(id);
  ASSERT_EQ(chain.size(), 3u);

  // This thread's ring then emits well past a ring's capacity, and past
  // the quiet chain's own ring-local timestamps.
  const uint64_t noise_id = recorder.NewTraceId();
  for (uint64_t i = 0; i < chain.back().timestamp + 1000; ++i) {
    recorder.Emit(
        kernel::TraceEvent{.trace_id = noise_id, .stage = kernel::TraceStage::kSyscall});
  }
  EXPECT_EQ(recorder.ForTrace(id).size(), 3u);
  EXPECT_EQ(recorder.ForTrace(noise_id).size(), kernel::FlightRecorder::kRingCapacity);
  release.count_down();
  quiet.join();
}

// proc:/trace/recent keeps each ring's newest events, so a busy ring
// cannot crowd a live quiet ring out of the procfs tail.
TEST_F(ObservabilityTest, ProcTraceRecentShowsAQuietRingBesideABusyRing) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  ScopedRecorder scoped;
  const uint64_t quiet_id = recorder.NewTraceId();
  std::latch emitted(1);
  std::latch release(1);
  std::thread quiet([&] {
    for (int i = 0; i < 3; ++i) {
      recorder.Emit(kernel::TraceEvent{.trace_id = quiet_id, .stage = kernel::TraceStage::kCall});
    }
    emitted.count_down();
    release.wait();
  });
  emitted.wait();
  const uint64_t busy_id = recorder.NewTraceId();
  for (int i = 0; i < 1000; ++i) {
    recorder.Emit(
        kernel::TraceEvent{.trace_id = busy_id, .stage = kernel::TraceStage::kSyscall});
  }
  kernel::IpcReply recent = Syscall(client_, kernel::Syscall::kProcRead, "/trace/recent");
  release.count_down();
  quiet.join();
  ASSERT_TRUE(recent.status.ok()) << recent.status.ToString();
  Result<std::string_view> text = recent.ArgString(0);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("trace=" + std::to_string(quiet_id) + " "), std::string::npos);
  EXPECT_NE(text->find("trace=" + std::to_string(busy_id) + " "), std::string::npos);
}

// Emission is free when the recorder is off: no events are retained and
// trace ids are never allocated.
TEST_F(ObservabilityTest, DisabledRecorderRetainsNothing) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  recorder.Clear();
  ASSERT_FALSE(recorder.enabled());
  ASSERT_TRUE(nexus_.kernel().Authorize(kernel::AuthzRequest::Of(client_, "use", "widget:3")).ok());
  EXPECT_TRUE(recorder.Recent().empty());
}

}  // namespace
}  // namespace nexus::core

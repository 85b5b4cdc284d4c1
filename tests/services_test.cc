#include <gtest/gtest.h>

#include "core/nexus.h"
#include "kernel/fileserver.h"
#include "services/read_redactor.h"
#include "nal/parser.h"
#include "services/cobuf.h"
#include "services/ddrm.h"
#include "services/ipc_analyzer.h"
#include "services/safety_certifier.h"
#include "services/time_authority.h"
#include "tpm/tpm.h"

namespace nexus::services {
namespace {

class ServicesTest : public ::testing::Test {
 protected:
  ServicesTest() : tpm_rng_(501), tpm_(tpm_rng_), nexus_(&tpm_) {}

  Rng tpm_rng_;
  tpm::Tpm tpm_;
  core::Nexus nexus_;
};

// ------------------------------------------------------------ IpcAnalyzer

class AnalyzerTest : public ServicesTest {
 protected:
  AnalyzerTest() {
    app_ = *nexus_.CreateProcess("app", ToBytes("app"));
    relay_ = *nexus_.CreateProcess("relay", ToBytes("relay"));
    fsd_ = *nexus_.CreateProcess("fsdriver", ToBytes("fsd"));
    analyzer_pid_ = *nexus_.CreateProcess("analyzer", ToBytes("an"));
    relay_port_ = *nexus_.CreatePort(relay_);
    fsd_port_ = *nexus_.CreatePort(fsd_);
  }

  kernel::ProcessId app_ = 0, relay_ = 0, fsd_ = 0, analyzer_pid_ = 0;
  kernel::PortId relay_port_ = 0, fsd_port_ = 0;
};

TEST_F(AnalyzerTest, DirectAndTransitivePaths) {
  IpcAnalyzer analyzer(&nexus_.kernel(), &nexus_.engine(), analyzer_pid_);
  EXPECT_FALSE(analyzer.HasPath(app_, fsd_));
  nexus_.kernel().ConnectPort(app_, relay_port_);
  EXPECT_TRUE(analyzer.HasPath(app_, relay_));
  EXPECT_FALSE(analyzer.HasPath(app_, fsd_));
  nexus_.kernel().ConnectPort(relay_, fsd_port_);
  EXPECT_TRUE(analyzer.HasPath(app_, fsd_)) << "transitive path app->relay->fsd";
}

TEST_F(AnalyzerTest, AttestNoPathIssuesLabel) {
  IpcAnalyzer analyzer(&nexus_.kernel(), &nexus_.engine(), analyzer_pid_);
  Result<core::LabelHandle> h = analyzer.AttestNoPath(app_, "fsdriver");
  ASSERT_TRUE(h.ok());
  nal::Formula label = *nexus_.engine().StoreFor(analyzer_pid_).Get(*h);
  EXPECT_EQ(label->speaker().ToString(), "Nexus.ipd." + std::to_string(analyzer_pid_));
  EXPECT_EQ(label->child1()->kind(), nal::FormulaKind::kNot);
}

TEST_F(AnalyzerTest, AttestNoPathRefusesWhenPathExists) {
  nexus_.kernel().ConnectPort(app_, fsd_port_);
  IpcAnalyzer analyzer(&nexus_.kernel(), &nexus_.engine(), analyzer_pid_);
  EXPECT_FALSE(analyzer.AttestNoPath(app_, "fsdriver").ok());
  EXPECT_TRUE(analyzer.AttestPath(app_, "fsdriver").ok());
}

TEST_F(AnalyzerTest, AttestPathRefusesWhenNoPath) {
  IpcAnalyzer analyzer(&nexus_.kernel(), &nexus_.engine(), analyzer_pid_);
  EXPECT_FALSE(analyzer.AttestPath(app_, "fsdriver").ok());
}

TEST_F(AnalyzerTest, DisconnectRemovesPath) {
  nexus_.kernel().ConnectPort(app_, fsd_port_);
  IpcAnalyzer analyzer(&nexus_.kernel(), &nexus_.engine(), analyzer_pid_);
  EXPECT_TRUE(analyzer.HasPath(app_, fsd_));
  nexus_.kernel().DisconnectPort(app_, fsd_port_);
  EXPECT_FALSE(analyzer.HasPath(app_, fsd_));
}

TEST_F(AnalyzerTest, CyclesTerminate) {
  kernel::PortId app_port = *nexus_.CreatePort(app_);
  nexus_.kernel().ConnectPort(app_, relay_port_);
  nexus_.kernel().ConnectPort(relay_, app_port);  // Cycle.
  IpcAnalyzer analyzer(&nexus_.kernel(), &nexus_.engine(), analyzer_pid_);
  EXPECT_TRUE(analyzer.HasPath(app_, relay_));
  EXPECT_TRUE(analyzer.HasPath(relay_, app_));
  EXPECT_FALSE(analyzer.HasPath(app_, fsd_));
}

// ---------------------------------------------------------- TimeAuthority

TEST(TimeAuthorityTest, HandlesOnlyOwnTimeStatements) {
  int64_t now = 100;
  TimeAuthority ntp(nal::Principal("NTP"), [&now] { return now; });
  auto f = [](const char* text) { return *nal::ParseFormula(text); };
  EXPECT_TRUE(ntp.Handles(f("NTP says TimeNow < 200")));
  EXPECT_TRUE(ntp.Handles(f("NTP says 50 <= TimeNow")));
  EXPECT_FALSE(ntp.Handles(f("OtherClock says TimeNow < 200")));
  EXPECT_FALSE(ntp.Handles(f("NTP says Quota < 200")));
  EXPECT_FALSE(ntp.Handles(f("NTP says deleteAll()")));
  EXPECT_FALSE(ntp.Handles(f("TimeNow < 200")));
}

TEST(TimeAuthorityTest, VouchesAccordingToClock) {
  int64_t now = 100;
  TimeAuthority ntp(nal::Principal("NTP"), [&now] { return now; });
  auto f = [](const char* text) { return *nal::ParseFormula(text); };
  EXPECT_TRUE(ntp.VouchOne(f("NTP says TimeNow < 200"), /*timeout_us=*/0));
  EXPECT_FALSE(ntp.VouchOne(f("NTP says TimeNow < 100"), /*timeout_us=*/0));
  EXPECT_TRUE(ntp.VouchOne(f("NTP says TimeNow <= 100"), /*timeout_us=*/0));
  EXPECT_TRUE(ntp.VouchOne(f("NTP says TimeNow = 100"), /*timeout_us=*/0));
  EXPECT_TRUE(ntp.VouchOne(f("NTP says 99 < TimeNow"), /*timeout_us=*/0));
  now = 300;
  EXPECT_FALSE(ntp.VouchOne(f("NTP says TimeNow < 200"), /*timeout_us=*/0));
  EXPECT_TRUE(ntp.VouchOne(f("NTP says TimeNow > 200"), /*timeout_us=*/0));
  EXPECT_TRUE(ntp.VouchOne(f("NTP says TimeNow != 200"), /*timeout_us=*/0));
}

TEST(TimeAuthorityTest, RefusesToSign) {
  TimeAuthority ntp(nal::Principal("NTP"), [] { return 0; });
  EXPECT_EQ(ntp.SignTimeLabel().code(), ErrorCode::kFailedPrecondition);
}

TEST(TimeAuthorityTest, EvaluateComparisonTable) {
  using CO = nal::CompareOp;
  struct Case {
    CO op;
    int64_t l, r;
    bool want;
  } cases[] = {
      {CO::kLt, 1, 2, true},  {CO::kLt, 2, 2, false}, {CO::kLe, 2, 2, true},
      {CO::kEq, 3, 3, true},  {CO::kEq, 3, 4, false}, {CO::kGe, 5, 5, true},
      {CO::kGt, 5, 5, false}, {CO::kNe, 5, 6, true},  {CO::kNe, 6, 6, false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(EvaluateComparison(c.op, c.l, c.r), c.want);
  }
}

// --------------------------------------------------------- SafetyCertifier

class CertifierTest : public ServicesTest {
 protected:
  CertifierTest() {
    subject_ = *nexus_.CreateProcess("player", ToBytes("p"));
    analyzer_pid_ = *nexus_.CreateProcess("analyzer", ToBytes("a"));
    certifier_pid_ = *nexus_.CreateProcess("certifier", ToBytes("c"));
  }

  kernel::ProcessId subject_ = 0, analyzer_pid_ = 0, certifier_pid_ = 0;
};

TEST_F(CertifierTest, CertifiesWhenAllTargetsCovered) {
  IpcAnalyzer analyzer(&nexus_.kernel(), &nexus_.engine(), analyzer_pid_);
  ASSERT_TRUE(analyzer.AttestNoPath(subject_, "filesystem").ok());
  ASSERT_TRUE(analyzer.AttestNoPath(subject_, "netdriver").ok());
  SafetyCertifier certifier(&nexus_.kernel(), &nexus_.engine(), certifier_pid_, analyzer_pid_,
                            {"filesystem", "netdriver"});
  Result<core::LabelHandle> safe = certifier.Certify(subject_);
  ASSERT_TRUE(safe.ok()) << safe.status().ToString();
  nal::Formula label = *nexus_.engine().StoreFor(certifier_pid_).Get(*safe);
  EXPECT_EQ(label->child1()->pred_name(), "safe");
}

TEST_F(CertifierTest, RefusesWithMissingAttestation) {
  IpcAnalyzer analyzer(&nexus_.kernel(), &nexus_.engine(), analyzer_pid_);
  analyzer.AttestNoPath(subject_, "filesystem");
  SafetyCertifier certifier(&nexus_.kernel(), &nexus_.engine(), certifier_pid_, analyzer_pid_,
                            {"filesystem", "netdriver"});
  EXPECT_FALSE(certifier.Certify(subject_).ok());
}

TEST_F(CertifierTest, IgnoresAttestationsByOtherProcesses) {
  // A forger (not the trusted analyzer) says no-path; must not count.
  kernel::ProcessId forger = *nexus_.CreateProcess("forger", ToBytes("f"));
  nexus_.engine().Say(forger, "not hasPath(" + kernel::Kernel::ProcPath(subject_) +
                                  ", filesystem)");
  SafetyCertifier certifier(&nexus_.kernel(), &nexus_.engine(), certifier_pid_, analyzer_pid_,
                            {"filesystem"});
  EXPECT_FALSE(certifier.Certify(subject_).ok());
}

// ------------------------------------------------------------------ DDRM

TEST(DdrmTest, EnforcesOperationWhitelist) {
  DdrmPolicy policy;
  policy.allowed_operations = {"dma_setup", "send"};
  DeviceDriverMonitor monitor(policy);
  kernel::IpcContext context;
  kernel::IpcMessage ok_msg = kernel::IpcMessage::Of("send");
  kernel::IpcMessage bad_msg = kernel::IpcMessage::Of("format_disk");
  EXPECT_EQ(monitor.OnCall(context, ok_msg), kernel::InterposeVerdict::kAllow);
  EXPECT_EQ(monitor.OnCall(context, bad_msg), kernel::InterposeVerdict::kDeny);
  EXPECT_EQ(monitor.stats().allowed, 1u);
  EXPECT_EQ(monitor.stats().denied, 1u);
}

TEST(DdrmTest, BlocksPageContentAccess) {
  DdrmPolicy policy;
  policy.allowed_operations = {"dma_setup", "read_page", "write_page"};
  policy.allow_page_content_access = false;
  DeviceDriverMonitor monitor(policy);
  kernel::IpcContext context;
  kernel::IpcMessage read_page = kernel::IpcMessage::Of("read_page");
  read_page.AddU64(0x1000);
  EXPECT_EQ(monitor.OnCall(context, read_page), kernel::InterposeVerdict::kDeny);
  kernel::IpcMessage dma = kernel::IpcMessage::Of("dma_setup");
  dma.AddU64(0x1000);
  EXPECT_EQ(monitor.OnCall(context, dma), kernel::InterposeVerdict::kAllow);
}

TEST(DdrmTest, RestrictsIpcTargets) {
  DdrmPolicy policy;
  policy.allowed_operations = {"ipc_send"};
  policy.allowed_ipc_targets = {7};
  DeviceDriverMonitor monitor(policy);
  kernel::IpcContext context;
  // One typed port slot, one legacy decimal string: both decode.
  kernel::IpcMessage to_webserver = kernel::IpcMessage::Of("ipc_send");
  to_webserver.AddPort(7);
  kernel::IpcMessage to_other = kernel::IpcMessage::Of("ipc_send");
  to_other.AddString("9");
  EXPECT_EQ(monitor.OnCall(context, to_webserver), kernel::InterposeVerdict::kAllow);
  EXPECT_EQ(monitor.OnCall(context, to_other), kernel::InterposeVerdict::kDeny);
}

TEST(DdrmTest, MemoDoesNotCollapseDistinctCallShapes) {
  // Regression: the integer memo key must keep "ipc_send to port 0"
  // distinct from "ipc_send with no target" — a cached allow for the
  // former must never be replayed for the latter (which Evaluate denies
  // when a target whitelist is configured).
  DdrmPolicy policy;
  policy.allowed_operations = {"ipc_send"};
  policy.allowed_ipc_targets = {0};
  DeviceDriverMonitor monitor(policy, /*cache_decisions=*/true);
  kernel::IpcContext context;
  kernel::IpcMessage to_zero = kernel::IpcMessage::Of("ipc_send");
  to_zero.AddPort(0);
  EXPECT_EQ(monitor.OnCall(context, to_zero), kernel::InterposeVerdict::kAllow);
  kernel::IpcMessage no_target = kernel::IpcMessage::Of("ipc_send");
  EXPECT_EQ(monitor.OnCall(context, no_target), kernel::InterposeVerdict::kDeny);
  // Cached repeats keep their own verdicts.
  EXPECT_EQ(monitor.OnCall(context, to_zero), kernel::InterposeVerdict::kAllow);
  EXPECT_EQ(monitor.OnCall(context, no_target), kernel::InterposeVerdict::kDeny);
}

TEST(DdrmTest, DecisionMemoDoesNotChangeVerdicts) {
  DdrmPolicy policy;
  policy.allowed_operations = {"send"};
  DeviceDriverMonitor cached(policy, /*cache_decisions=*/true);
  DeviceDriverMonitor uncached(policy, /*cache_decisions=*/false);
  kernel::IpcContext context;
  for (int i = 0; i < 100; ++i) {
    kernel::IpcMessage send = kernel::IpcMessage::Of("send");
    kernel::IpcMessage drop = kernel::IpcMessage::Of("drop");
    EXPECT_EQ(cached.OnCall(context, send), uncached.OnCall(context, send));
    EXPECT_EQ(cached.OnCall(context, drop), uncached.OnCall(context, drop));
  }
}

TEST_F(ServicesTest, DdrmAttestsConstrainedDriver) {
  kernel::ProcessId monitor_pid = *nexus_.CreateProcess("ddrm", ToBytes("m"));
  kernel::ProcessId driver_pid = *nexus_.CreateProcess("nic", ToBytes("d"));
  DdrmPolicy policy;
  policy.allow_page_content_access = false;
  DeviceDriverMonitor monitor(policy);
  ASSERT_TRUE(monitor.AttestDriver(&nexus_.engine(), monitor_pid, driver_pid).ok());
  bool found = false;
  for (const nal::Formula& label : nexus_.engine().StoreFor(monitor_pid).All()) {
    if (label->ToString().find("canReadPages") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- Cobufs

class CobufTest : public ::testing::Test {
 protected:
  CobufTest()
      : alice_("user.alice"),
        bob_("user.bob"),
        eve_("user.eve"),
        // Alice authorized Bob; nobody authorized Eve.
        cobufs_([this](const nal::Principal& recipient, const nal::Principal& source) {
          return source == alice_ && recipient == bob_;
        }) {}

  nal::Principal alice_, bob_, eve_;
  CobufManager cobufs_;
};

TEST_F(CobufTest, OwnerCanExtract) {
  CobufId id = cobufs_.CreateOwned(alice_, ToBytes("my status"));
  EXPECT_EQ(ToString(*cobufs_.Extract(id, alice_)), "my status");
}

TEST_F(CobufTest, NonOwnerCannotExtract) {
  CobufId id = cobufs_.CreateOwned(alice_, ToBytes("secret"));
  Result<Bytes> leaked = cobufs_.Extract(id, eve_);
  EXPECT_FALSE(leaked.ok());
  EXPECT_EQ(leaked.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(CobufTest, FriendCanExtractViaDelegation) {
  CobufId id = cobufs_.CreateOwned(alice_, ToBytes("for friends"));
  EXPECT_TRUE(cobufs_.Extract(id, bob_).ok());
}

TEST_F(CobufTest, AppendFollowsSocialGraph) {
  CobufId alice_post = cobufs_.CreateOwned(alice_, ToBytes("hello"));
  CobufId bob_feed = cobufs_.CreateOwned(bob_, {});
  CobufId eve_feed = cobufs_.CreateOwned(eve_, {});
  EXPECT_TRUE(cobufs_.Append(bob_feed, alice_post).ok());
  EXPECT_FALSE(cobufs_.Append(eve_feed, alice_post).ok());
  EXPECT_EQ(*cobufs_.Length(bob_feed), 5u);
  EXPECT_EQ(*cobufs_.Length(eve_feed), 0u);
}

TEST_F(CobufTest, AppendIsDirectional) {
  // Alice -> Bob is authorized; Bob -> Alice is not.
  CobufId bob_post = cobufs_.CreateOwned(bob_, ToBytes("bob says"));
  CobufId alice_feed = cobufs_.CreateOwned(alice_, {});
  EXPECT_FALSE(cobufs_.Append(alice_feed, bob_post).ok());
}

TEST_F(CobufTest, SliceInheritsOwner) {
  CobufId id = cobufs_.CreateOwned(alice_, ToBytes("0123456789"));
  CobufId sliced = *cobufs_.Slice(id, 2, 4);
  EXPECT_EQ(*cobufs_.Owner(sliced), alice_);
  EXPECT_EQ(ToString(*cobufs_.Extract(sliced, alice_)), "2345");
  EXPECT_FALSE(cobufs_.Extract(sliced, eve_).ok());
  EXPECT_FALSE(cobufs_.Slice(id, 8, 5).ok());
}

TEST_F(CobufTest, ContentObliviousOpsNeedNoAuthority) {
  // Length / CreateLike / Slice never expose contents.
  CobufId id = cobufs_.CreateOwned(alice_, ToBytes("abc"));
  EXPECT_EQ(*cobufs_.Length(id), 3u);
  CobufId like = *cobufs_.CreateLike(id);
  EXPECT_EQ(*cobufs_.Owner(like), alice_);
  EXPECT_EQ(*cobufs_.Length(like), 0u);
}

TEST_F(CobufTest, SelfFlowAlwaysAllowed) {
  CobufId a = cobufs_.CreateOwned(eve_, ToBytes("mine"));
  CobufId b = cobufs_.CreateOwned(eve_, ToBytes(" too"));
  EXPECT_TRUE(cobufs_.Append(a, b).ok());
  EXPECT_EQ(ToString(*cobufs_.Extract(a, eve_)), "mine too");
}

TEST_F(CobufTest, DestroyAndMissingIds) {
  CobufId id = cobufs_.CreateOwned(alice_, ToBytes("x"));
  ASSERT_TRUE(cobufs_.Destroy(id).ok());
  EXPECT_FALSE(cobufs_.Destroy(id).ok());
  EXPECT_FALSE(cobufs_.Length(id).ok());
  EXPECT_FALSE(cobufs_.Extract(id, alice_).ok());
  EXPECT_FALSE(cobufs_.Append(id, id).ok());
}

// --------------------------------------------------- ReadRedactionMonitor

class RedactionTest : public ::testing::Test {
 protected:
  RedactionTest() : fs_(&kernel_) {
    client_ = *kernel_.CreateProcess("client", ToBytes("c"));
    fsd_ = *kernel_.CreateProcess("fs", ToBytes("fs"));
    port_ = *kernel_.CreatePort(fsd_);
    kernel_.BindHandler(port_, &fs_);
    kernel_.set_fs_port(port_);
  }

  int64_t Open(const std::string& path) {
    kernel::IpcMessage msg;
    msg.AddString(path);
    kernel::IpcReply reply =
        kernel_.Call(client_, kernel::SyscallIpcPort(kernel::Syscall::kOpen), msg);
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
    return reply.value();
  }

  kernel::IpcReply Read(int64_t fd) {
    kernel::IpcMessage msg;
    msg.AddU64(static_cast<uint64_t>(fd));
    return kernel_.Call(client_, kernel::SyscallIpcPort(kernel::Syscall::kRead), msg);
  }

  kernel::Kernel kernel_;
  kernel::FileServer fs_;
  kernel::ProcessId client_ = 0, fsd_ = 0;
  kernel::PortId port_ = 0;
};

TEST_F(RedactionTest, RewritesTypedReadRepliesWithZeroTextPayloads) {
  RedactionPolicy policy;
  policy.max_read_length = 8;
  policy.redact_begin = 2;
  policy.redact_end = 5;
  ReadRedactionMonitor monitor(policy);
  ASSERT_TRUE(kernel_.Interpose(fsd_, port_, &monitor).ok());

  fs_.CreateFile("/sealed", ToBytes("0123456789ABCDEF"));
  int64_t fd = Open("/sealed");
  uint64_t rewrites_before = monitor.rewrites();

  // Everything after open is ids and integers; pin the counter here.
  uint64_t text_before = kernel::IpcTextPayloadCount();
  kernel::IpcReply read = Read(fd);
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();

  // Clamped to 8 bytes, range [2,5) masked — and the length slot was
  // rewritten IN PLACE to agree with the clamped data.
  EXPECT_EQ(ToString(read.data), "01###567");
  EXPECT_EQ(*read.ArgU64(0), 8u);
  EXPECT_EQ(monitor.rewrites(), rewrites_before + 1);

  // The acceptance assertion (§5.1): an interposed, REWRITTEN typed read
  // moved zero text payloads end to end — match, clamp, and redact are
  // all slot and byte operations.
  EXPECT_EQ(kernel::IpcTextPayloadCount(), text_before);
}

TEST_F(RedactionTest, ShortAndNonReadRepliesPassUntouched) {
  ReadRedactionMonitor monitor(RedactionPolicy{.max_read_length = 100});
  ASSERT_TRUE(kernel_.Interpose(fsd_, port_, &monitor).ok());

  fs_.CreateFile("/plain", ToBytes("short"));
  int64_t fd = Open("/plain");
  kernel::IpcReply read = Read(fd);
  ASSERT_TRUE(read.status.ok());
  EXPECT_EQ(ToString(read.data), "short");
  EXPECT_EQ(*read.ArgU64(0), 5u);

  // A write through the same interposed port is not a read reply.
  kernel::IpcMessage write_msg;
  write_msg.AddU64(static_cast<uint64_t>(fd)).AddU64(0);
  write_msg.data = ToBytes("SH");
  EXPECT_TRUE(kernel_.Call(
      client_, kernel::SyscallIpcPort(kernel::Syscall::kWrite), write_msg).status.ok());
  EXPECT_EQ(ToString(*fs_.ReadFile("/plain")), "SHort");
  EXPECT_EQ(monitor.rewrites(), 0u);
}

}  // namespace
}  // namespace nexus::services

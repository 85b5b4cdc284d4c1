#include <gtest/gtest.h>

#include "apps/bgp_verifier.h"
#include "apps/certipics.h"
#include "apps/fauxbook.h"
#include "apps/java_store.h"
#include "apps/movie_player.h"
#include "apps/notabot.h"
#include "apps/trudocs.h"

namespace nexus::apps {
namespace {

class AppsTest : public ::testing::Test {
 protected:
  AppsTest() : tpm_rng_(601), tpm_(tpm_rng_), nexus_(&tpm_) {}

  Rng tpm_rng_;
  tpm::Tpm tpm_;
  core::Nexus nexus_;
};

// -------------------------------------------------------------- Fauxbook

class FauxbookTest : public AppsTest {
 protected:
  FauxbookTest() : fauxbook_(&nexus_) {
    fauxbook_.AddUser("alice");
    fauxbook_.AddUser("bob");
    fauxbook_.AddUser("eve");
  }
  Fauxbook fauxbook_;
};

TEST_F(FauxbookTest, UsersPostAndReadOwnFeed) {
  ASSERT_TRUE(fauxbook_.PostStatus("alice", "hello world").ok());
  Result<std::vector<std::string>> feed = fauxbook_.ReadFeed("alice");
  ASSERT_TRUE(feed.ok());
  EXPECT_EQ(*feed, std::vector<std::string>{"hello world"});
}

TEST_F(FauxbookTest, FriendsSeeEachOthersPosts) {
  fauxbook_.PostStatus("alice", "alice-post");
  fauxbook_.PostStatus("bob", "bob-post");
  ASSERT_TRUE(fauxbook_.AddFriend("alice", "bob").ok());  // Alice authorizes Bob.
  std::vector<std::string> bob_feed = *fauxbook_.ReadFeed("bob");
  EXPECT_EQ(bob_feed.size(), 2u);  // His own + Alice's.
  // Alice did not get authorization from Bob: she sees only her own.
  std::vector<std::string> alice_feed = *fauxbook_.ReadFeed("alice");
  EXPECT_EQ(alice_feed, std::vector<std::string>{"alice-post"});
}

TEST_F(FauxbookTest, NonFriendSeesNothing) {
  fauxbook_.PostStatus("alice", "private-ish");
  std::vector<std::string> eve_feed = *fauxbook_.ReadFeed("eve");
  EXPECT_TRUE(eve_feed.empty());
}

TEST_F(FauxbookTest, DeveloperCannotPeekAtUserData) {
  fauxbook_.PostStatus("alice", "users only");
  Result<Bytes> peeked = fauxbook_.DeveloperPeek("alice");
  EXPECT_FALSE(peeked.ok());
  EXPECT_EQ(peeked.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(FauxbookTest, DeveloperCannotForgeFriendEdges) {
  EXPECT_EQ(fauxbook_.DeveloperForgeFriend("alice", "eve").code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(FauxbookTest, TenantCodeCannotExfiltrateAcrossGraph) {
  fauxbook_.PostStatus("alice", "not for eve");
  EXPECT_EQ(fauxbook_.TenantExfiltrate("alice", "eve").code(),
            ErrorCode::kPermissionDenied);
  // But along an authorized edge the same tenant operation succeeds.
  fauxbook_.AddFriend("alice", "bob");
  EXPECT_TRUE(fauxbook_.TenantExfiltrate("alice", "bob").ok());
}

TEST_F(FauxbookTest, FriendEdgeDepositsScopedDelegationLabel) {
  fauxbook_.AddFriend("alice", "bob");
  bool found = false;
  for (const nal::Formula& label : nexus_.engine().SystemStore().All()) {
    std::string text = label->ToString();
    if (text.find("user.bob speaksfor") != std::string::npos &&
        text.find("user.alice on feed") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FauxbookTest, SandboxAcceptsWhitelistedImports) {
  TenantModule module{"feedgen", {"fauxbook_api"}, {"render", "getattr(obj)"}};
  EXPECT_TRUE(fauxbook_.LoadTenantCode(module).ok());
}

TEST_F(FauxbookTest, SandboxRejectsForbiddenImports) {
  TenantModule module{"evil", {"os"}, {}};
  EXPECT_EQ(fauxbook_.LoadTenantCode(module).code(), ErrorCode::kPermissionDenied);
}

TEST_F(FauxbookTest, SandboxRewritesReflection) {
  PythonSandbox& sandbox = fauxbook_.sandbox();
  TenantModule module{"m", {}, {"getattr(x)", "eval(y)", "__import__(z)", "render()"}};
  TenantModule rewritten = sandbox.RewriteReflection(module);
  EXPECT_EQ(rewritten.calls[0], "safe_getattr(x)");
  EXPECT_EQ(rewritten.calls[1], "safe_eval(y)");
  EXPECT_EQ(rewritten.calls[2], "safe___import__(z)");
  EXPECT_EQ(rewritten.calls[3], "render()");
}

TEST_F(FauxbookTest, SandboxLoadDepositsLabels) {
  fauxbook_.LoadTenantCode(TenantModule{"feedgen", {"fauxbook_api"}, {}});
  size_t labels = 0;
  for (const nal::Formula& label : nexus_.engine().StoreFor(fauxbook_.framework_pid()).All()) {
    std::string text = label->ToString();
    if (text.find("feedgen") != std::string::npos) {
      ++labels;
    }
  }
  EXPECT_EQ(labels, 3u);  // isLegalPython, importsConstrained, reflectionRewritten.
}

TEST_F(FauxbookTest, ResourceAttestationFromSchedulerState) {
  ASSERT_TRUE(fauxbook_.SetTenantWeight("fauxbook", 30).ok());
  // The framework is the only stride client, so its share is 100%.
  EXPECT_TRUE(fauxbook_.AttestCpuShare("fauxbook", 50).ok());
  // Add a competitor with triple the weight: the share drops below 50%.
  kernel::ProcessId other = *nexus_.CreateProcess("other-tenant", ToBytes("o"));
  nexus_.kernel().scheduler().AddClient(other, 90);
  EXPECT_FALSE(fauxbook_.AttestCpuShare("fauxbook", 50).ok());
  EXPECT_TRUE(fauxbook_.AttestCpuShare("fauxbook", 25).ok());
}

TEST_F(FauxbookTest, DriverMonitorBlocksContentAccess) {
  kernel::IpcMessage read_page = kernel::IpcMessage::Of("read_page");
  read_page.AddU64(0);
  // Syscall channels are the reserved per-syscall ports now; routing a
  // message at one dispatches the syscall itself (kNull here).
  kernel::IpcReply reply =
      nexus_.kernel().Call(fauxbook_.driver_pid(),
                           /*port=*/kernel::SyscallIpcPort(kernel::Syscall::kNull),
                           read_page);
  (void)reply;  // The DDRM check is below.
  kernel::IpcContext context;
  EXPECT_EQ(fauxbook_.driver_monitor().OnCall(context, read_page),
            kernel::InterposeVerdict::kDeny);
  kernel::IpcMessage dma = kernel::IpcMessage::Of("dma_setup");
  dma.AddU64(0);
  EXPECT_EQ(fauxbook_.driver_monitor().OnCall(context, dma),
            kernel::InterposeVerdict::kAllow);
}

TEST_F(FauxbookTest, ServeStaticAndDynamic) {
  nexus_.fs().CreateFile("/www/index.html", ToBytes("<h1>fauxbook</h1>"));
  Result<Bytes> page = fauxbook_.ServeStatic("/www/index.html");
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(ToString(*page), "<h1>fauxbook</h1>");

  fauxbook_.PostStatus("alice", "dynamic content");
  Result<Bytes> dynamic = fauxbook_.ServeDynamic("alice");
  ASSERT_TRUE(dynamic.ok());
  EXPECT_NE(ToString(*dynamic).find("dynamic content"), std::string::npos);
}

TEST_F(FauxbookTest, DuplicateUserRejected) {
  EXPECT_FALSE(fauxbook_.AddUser("alice").ok());
  EXPECT_FALSE(fauxbook_.AddFriend("alice", "nobody").ok());
  EXPECT_FALSE(fauxbook_.PostStatus("nobody", "x").ok());
  EXPECT_FALSE(fauxbook_.ReadFeed("nobody").ok());
}

// ---------------------------------------------------------- Movie player

class MoviePlayerTest : public AppsTest {
 protected:
  Bytes movie_ = ToBytes("MOVIE-STREAM-BYTES");
};

TEST_F(MoviePlayerTest, WhitelistModeLockdown) {
  ContentServer server(&nexus_, ContentServer::Mode::kHashWhitelist, movie_);
  Bytes blessed_binary = ToBytes("certified-player-v1");
  server.WhitelistPlayer(blessed_binary);

  kernel::ProcessId blessed = *nexus_.CreateProcess("player", blessed_binary);
  kernel::ProcessId homebuilt =
      *nexus_.CreateProcess("myplayer", ToBytes("home-built-player"));

  EXPECT_TRUE(server.RequestStream(blessed).ok());
  // Platform lock-down: a perfectly safe but unlisted player is rejected.
  Result<Bytes> denied = server.RequestStream(homebuilt);
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(MoviePlayerTest, LogicalAttestationAcceptsAnyIsolatedPlayer) {
  ContentServer server(&nexus_, ContentServer::Mode::kLogicalAttestation, movie_);
  kernel::ProcessId player = *nexus_.CreateProcess("myplayer", ToBytes("home-built-player"));
  // The player has no channels to filesystem or netdriver.
  Result<Bytes> stream = server.RequestStream(player);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(*stream, movie_);
}

TEST_F(MoviePlayerTest, LogicalAttestationRejectsLeakyPlayer) {
  ContentServer server(&nexus_, ContentServer::Mode::kLogicalAttestation, movie_);
  kernel::ProcessId leaky = *nexus_.CreateProcess("leaky", ToBytes("leaky-player"));
  kernel::ProcessId netdrv = *nexus_.CreateProcess("netdriver", ToBytes("nic"));
  kernel::PortId net_port = *nexus_.CreatePort(netdrv);
  nexus_.kernel().ConnectPort(leaky, net_port);  // Channel to the network!
  Result<Bytes> denied = server.RequestStream(leaky);
  EXPECT_FALSE(denied.ok());
}

// -------------------------------------------------------------- Not-A-Bot

TEST_F(AppsTest, NotABotAttestsHumanPresence) {
  kernel::ProcessId kbd = *nexus_.CreateProcess("keyboard", ToBytes("kbd-driver"));
  KeyboardDriver driver(&nexus_, kbd);
  for (int i = 0; i < 120; ++i) {
    driver.OnKeypress("session-1");
  }
  EXPECT_EQ(driver.Count("session-1"), 120u);

  Result<core::Certificate> cert = driver.AttestSession("session-1");
  ASSERT_TRUE(cert.ok());

  SpamClassifier classifier(tpm_.endorsement_public_key(), /*min_keypresses=*/50);
  Email human{"alice@example.com", "hi! lunch tomorrow?", cert->Serialize()};
  EXPECT_FALSE(classifier.IsSpam(human));
}

TEST_F(AppsTest, NotABotLowCountStillSpammy) {
  kernel::ProcessId kbd = *nexus_.CreateProcess("keyboard", ToBytes("kbd-driver"));
  KeyboardDriver driver(&nexus_, kbd);
  driver.OnKeypress("bot-session");
  Result<core::Certificate> cert = driver.AttestSession("bot-session");
  SpamClassifier classifier(tpm_.endorsement_public_key(), 50);
  Email bot{"bot@spam.com", "click here for FREE stuff", cert->Serialize()};
  EXPECT_TRUE(classifier.IsSpam(bot));
}

TEST_F(AppsTest, NotABotForgedCertificateRejected) {
  SpamClassifier classifier(tpm_.endorsement_public_key(), 50);
  Email forged{"bot@spam.com", "hello", ToBytes("not a certificate")};
  EXPECT_TRUE(classifier.IsSpam(forged));
}

TEST_F(AppsTest, NotABotHeuristicFallback) {
  SpamClassifier classifier(tpm_.endorsement_public_key(), 50);
  EXPECT_TRUE(classifier.IsSpam(Email{"x", "FREE money", {}}));
  EXPECT_FALSE(classifier.IsSpam(Email{"x", "see you at the meeting", {}}));
}

// -------------------------------------------------------------- CertiPics

TEST_F(AppsTest, CertiPicsLogVerifies) {
  kernel::ProcessId editor = *nexus_.CreateProcess("certipics", ToBytes("cp"));
  Image source = MakeImage(16, 16, 100);
  CertiPics pics(&nexus_, editor, source);
  ASSERT_TRUE(pics.Crop(2, 2, 8, 8).ok());
  ASSERT_TRUE(pics.Resize(4, 4).ok());
  ASSERT_TRUE(pics.ColorTransform(30).ok());
  EXPECT_EQ(pics.log().size(), 3u);
  EXPECT_TRUE(CertiPics::VerifyLog(source, pics.current(), pics.log(), {"clone"}).ok());
  EXPECT_TRUE(pics.AttestLog().ok());
}

TEST_F(AppsTest, CertiPicsDetectsDisallowedClone) {
  kernel::ProcessId editor = *nexus_.CreateProcess("certipics", ToBytes("cp"));
  Image source = MakeImage(16, 16, 100);
  CertiPics pics(&nexus_, editor, source);
  pics.ColorTransform(10);
  pics.Clone(0, 0, 8, 8, 4, 4);
  Status verdict = CertiPics::VerifyLog(source, pics.current(), pics.log(), {"clone"});
  EXPECT_EQ(verdict.code(), ErrorCode::kPermissionDenied);
  // The same log is fine under a policy that allows cloning.
  EXPECT_TRUE(CertiPics::VerifyLog(source, pics.current(), pics.log(), {}).ok());
}

TEST_F(AppsTest, CertiPicsDetectsTamperedLog) {
  kernel::ProcessId editor = *nexus_.CreateProcess("certipics", ToBytes("cp"));
  Image source = MakeImage(8, 8, 50);
  // A gradient, so cloning actually changes pixels.
  for (size_t i = 0; i < source.pixels.size(); ++i) {
    source.pixels[i] = static_cast<uint8_t>(i * 3);
  }
  CertiPics pics(&nexus_, editor, source);
  pics.ColorTransform(10);
  pics.Clone(0, 0, 4, 4, 2, 2);
  // Attacker hides the clone by deleting its entry.
  std::vector<TransformEntry> doctored = pics.log();
  doctored.pop_back();
  EXPECT_FALSE(CertiPics::VerifyLog(source, pics.current(), doctored, {"clone"}).ok());
  // Or by renaming the operation: the chain hash catches it.
  std::vector<TransformEntry> renamed = pics.log();
  renamed[1].operation = "color";
  EXPECT_FALSE(CertiPics::VerifyLog(source, pics.current(), renamed, {"clone"}).ok());
}

TEST_F(AppsTest, CertiPicsDetectsSubstitutedFinalImage) {
  kernel::ProcessId editor = *nexus_.CreateProcess("certipics", ToBytes("cp"));
  Image source = MakeImage(8, 8, 50);
  CertiPics pics(&nexus_, editor, source);
  pics.ColorTransform(10);
  Image other = MakeImage(8, 8, 99);
  EXPECT_FALSE(CertiPics::VerifyLog(source, other, pics.log(), {}).ok());
}

TEST_F(AppsTest, CertiPicsTransformSemantics) {
  kernel::ProcessId editor = *nexus_.CreateProcess("certipics", ToBytes("cp"));
  Image source = MakeImage(4, 4, 200);
  CertiPics pics(&nexus_, editor, source);
  pics.ColorTransform(100);  // Clamps at 255.
  EXPECT_EQ(pics.current().pixels[0], 255);
  ASSERT_TRUE(pics.Crop(0, 0, 2, 2).ok());
  EXPECT_EQ(pics.current().width, 2u);
  EXPECT_FALSE(pics.Crop(1, 1, 4, 4).ok());  // Out of bounds.
  EXPECT_FALSE(pics.Resize(0, 3).ok());
}

// ---------------------------------------------------------------- TruDocs

TEST(TruDocsTest, ExactQuoteAccepted) {
  ExcerptPolicy policy;
  std::string doc = "The committee found no evidence of wrongdoing in the matter.";
  EXPECT_TRUE(TruDocs::CheckExcerpt(doc, "found no evidence of wrongdoing", policy).ok());
}

TEST(TruDocsTest, ElisionPreservesOrder) {
  ExcerptPolicy policy;
  std::string doc = "The committee found no evidence of wrongdoing in the matter.";
  EXPECT_TRUE(TruDocs::CheckExcerpt(doc, "The committee ... in the matter.", policy).ok());
  // Reordering via ellipsis is caught.
  EXPECT_FALSE(TruDocs::CheckExcerpt(doc, "in the matter ... The committee", policy).ok());
}

TEST(TruDocsTest, MeaningDistortionRejected) {
  ExcerptPolicy policy;
  std::string doc = "The committee found no evidence of wrongdoing.";
  // The classic distortion: eliding "no" is caught because "found evidence"
  // (as a contiguous fragment) never occurs.
  Status verdict = TruDocs::CheckExcerpt(doc, "found evidence of wrongdoing", policy);
  EXPECT_FALSE(verdict.ok());
}

TEST(TruDocsTest, EditorialCommentsPerPolicy) {
  std::string doc = "Revenues rose sharply last quarter.";
  ExcerptPolicy allow;
  EXPECT_TRUE(TruDocs::CheckExcerpt(doc, "Revenues rose [in 2011] ... last quarter", allow)
                  .ok());
  ExcerptPolicy forbid;
  forbid.allow_editorial_comments = false;
  EXPECT_FALSE(
      TruDocs::CheckExcerpt(doc, "Revenues rose [in 2011] ... last quarter", forbid).ok());
}

TEST(TruDocsTest, CaseChangesPerPolicy) {
  std::string doc = "the quick brown fox";
  ExcerptPolicy allow;
  EXPECT_TRUE(TruDocs::CheckExcerpt(doc, "The Quick Brown", allow).ok());
  ExcerptPolicy strict;
  strict.allow_case_changes = false;
  EXPECT_FALSE(TruDocs::CheckExcerpt(doc, "The Quick Brown", strict).ok());
}

TEST(TruDocsTest, LimitsEnforced) {
  std::string doc = "aaa bbb ccc ddd eee fff";
  ExcerptPolicy tight;
  tight.max_fragments = 2;
  EXPECT_TRUE(TruDocs::CheckExcerpt(doc, "aaa ... ccc", tight).ok());
  EXPECT_FALSE(TruDocs::CheckExcerpt(doc, "aaa ... ccc ... eee", tight).ok());
  ExcerptPolicy small;
  small.max_total_length = 5;
  EXPECT_FALSE(TruDocs::CheckExcerpt(doc, "aaa bbb ccc", small).ok());
}

TEST(TruDocsTest, EmptyExcerptRejected) {
  ExcerptPolicy policy;
  EXPECT_FALSE(TruDocs::CheckExcerpt("doc", "...", policy).ok());
  EXPECT_FALSE(TruDocs::CheckExcerpt("doc", "[only comments]", policy).ok());
}

TEST(TruDocsTest, ParseExcerptSegments) {
  std::vector<Segment> segments = ParseExcerpt("start ... middle [note] end");
  ASSERT_EQ(segments.size(), 5u);
  EXPECT_EQ(segments[0].kind, SegmentKind::kFragment);
  EXPECT_EQ(segments[0].text, "start");
  EXPECT_EQ(segments[1].kind, SegmentKind::kEllipsis);
  EXPECT_EQ(segments[2].kind, SegmentKind::kFragment);
  EXPECT_EQ(segments[2].text, "middle");
  EXPECT_EQ(segments[3].kind, SegmentKind::kEditorial);
  EXPECT_EQ(segments[3].text, "note");
  EXPECT_EQ(segments[4].text, "end");
}

TEST_F(AppsTest, TruDocsCertifyIssuesLabel) {
  kernel::ProcessId td = *nexus_.CreateProcess("trudocs", ToBytes("td"));
  TruDocs trudocs(&nexus_, td);
  ExcerptPolicy policy;
  Result<core::LabelHandle> h =
      trudocs.CertifyExcerpt("the original document text", "original document", policy);
  ASSERT_TRUE(h.ok());
  nal::Formula label = *nexus_.engine().StoreFor(td).Get(*h);
  EXPECT_EQ(label->child1()->pred_name(), "excerptSpeaksFor");
}

// ------------------------------------------------------------------- BGP

TEST(BgpVerifierTest, ForwardingLongerPathAllowed) {
  BgpVerifier verifier(/*self_as=*/65001, {"10.0.0.0/8"});
  verifier.OnInbound({BgpMessage::Type::kAdvertise, "192.168.0.0/16", {65002, 65003}});
  EXPECT_TRUE(
      verifier.CheckOutbound({BgpMessage::Type::kAdvertise, "192.168.0.0/16",
                              {65001, 65002, 65003}})
          .ok());
}

TEST(BgpVerifierTest, RouteShorteningBlocked) {
  BgpVerifier verifier(65001, {});
  verifier.OnInbound(
      {BgpMessage::Type::kAdvertise, "192.168.0.0/16", {65002, 65003, 65004}});
  // Emitting a 2-hop path when the best received was 3 hops: fabrication.
  Status verdict = verifier.CheckOutbound(
      {BgpMessage::Type::kAdvertise, "192.168.0.0/16", {65001, 65002}});
  EXPECT_EQ(verdict.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(*verifier.metrics().Value("blocked"), 1u);
}

TEST(BgpVerifierTest, ShorterInboundRelaxesBound) {
  BgpVerifier verifier(65001, {});
  verifier.OnInbound(
      {BgpMessage::Type::kAdvertise, "192.168.0.0/16", {65002, 65003, 65004}});
  verifier.OnInbound({BgpMessage::Type::kAdvertise, "192.168.0.0/16", {65005}});
  EXPECT_TRUE(verifier
                  .CheckOutbound({BgpMessage::Type::kAdvertise, "192.168.0.0/16",
                                  {65001, 65005}})
                  .ok());
}

TEST(BgpVerifierTest, FalseOriginationBlocked) {
  BgpVerifier verifier(65001, {"10.0.0.0/8"});
  EXPECT_TRUE(
      verifier.CheckOutbound({BgpMessage::Type::kAdvertise, "10.0.0.0/8", {65001}}).ok());
  EXPECT_FALSE(
      verifier.CheckOutbound({BgpMessage::Type::kAdvertise, "172.16.0.0/12", {65001}}).ok());
}

TEST(BgpVerifierTest, UnreceivedRouteBlocked) {
  BgpVerifier verifier(65001, {});
  EXPECT_FALSE(verifier
                   .CheckOutbound({BgpMessage::Type::kAdvertise, "192.168.0.0/16",
                                   {65001, 65002}})
                   .ok());
}

TEST(BgpVerifierTest, PathMustStartWithOwnAs) {
  BgpVerifier verifier(65001, {"10.0.0.0/8"});
  EXPECT_FALSE(
      verifier.CheckOutbound({BgpMessage::Type::kAdvertise, "10.0.0.0/8", {65999}}).ok());
  EXPECT_FALSE(verifier.CheckOutbound({BgpMessage::Type::kAdvertise, "10.0.0.0/8", {}}).ok());
}

TEST(BgpVerifierTest, WithdrawOnlyAdvertisedRoutes) {
  BgpVerifier verifier(65001, {"10.0.0.0/8"});
  EXPECT_FALSE(
      verifier.CheckOutbound({BgpMessage::Type::kWithdraw, "10.0.0.0/8", {}}).ok());
  verifier.CheckOutbound({BgpMessage::Type::kAdvertise, "10.0.0.0/8", {65001}});
  EXPECT_TRUE(verifier.CheckOutbound({BgpMessage::Type::kWithdraw, "10.0.0.0/8", {}}).ok());
  // Double withdrawal.
  EXPECT_FALSE(
      verifier.CheckOutbound({BgpMessage::Type::kWithdraw, "10.0.0.0/8", {}}).ok());
}

// ------------------------------------------------------- Java object store

TEST_F(AppsTest, JavaStoreFastPathWithLabel) {
  kernel::ProcessId vm = *nexus_.CreateProcess("jvm", ToBytes("jvm"));
  JavaObjectStore store(&nexus_, vm);
  ObjectStoreImage image;
  image.objects.push_back(StoredObject{{0, 3}, {1, 100000}});
  image.objects.push_back(StoredObject{{4}, {-5}});
  Bytes data = *store.Export(image);

  bool fast = false;
  Result<ObjectStoreImage> imported =
      store.Import(data, nexus_.engine().StoreFor(vm).All(), &fast);
  ASSERT_TRUE(imported.ok());
  EXPECT_TRUE(fast);
  EXPECT_EQ(imported->objects.size(), 2u);
  EXPECT_EQ(imported->objects[0].fields[1], 100000);
}

TEST_F(AppsTest, JavaStoreSlowPathValidates) {
  kernel::ProcessId vm = *nexus_.CreateProcess("jvm", ToBytes("jvm"));
  JavaObjectStore store(&nexus_, vm);
  ObjectStoreImage image;
  image.objects.push_back(StoredObject{{0}, {1}});
  Bytes data = image.Serialize();  // No label issued.

  bool fast = true;
  Result<ObjectStoreImage> imported = store.Import(data, {}, &fast);
  ASSERT_TRUE(imported.ok());
  EXPECT_FALSE(fast);
}

TEST_F(AppsTest, JavaStoreSlowPathCatchesInvariantViolation) {
  kernel::ProcessId vm = *nexus_.CreateProcess("jvm", ToBytes("jvm"));
  JavaObjectStore store(&nexus_, vm);
  ObjectStoreImage bad;
  bad.objects.push_back(StoredObject{{0}, {7}});  // boolean field with value 7.
  Bytes data = bad.Serialize();
  EXPECT_FALSE(store.Import(data, {}, nullptr).ok());
  // With a (fraudulent) fast-path label absent, validation catches it; and
  // tampering after export invalidates the hash, forcing the slow path.
  ObjectStoreImage good;
  good.objects.push_back(StoredObject{{0}, {1}});
  Bytes exported = *store.Export(good);
  exported[exported.size() - 1] = 7;  // boolean -> 7.
  bool fast = true;
  Result<ObjectStoreImage> imported =
      store.Import(exported, nexus_.engine().StoreFor(vm).All(), &fast);
  EXPECT_FALSE(fast);
  EXPECT_FALSE(imported.ok());
}

}  // namespace
}  // namespace nexus::apps

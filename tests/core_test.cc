#include <gtest/gtest.h>

#include "core/nexus.h"
#include "nal/parser.h"
#include "nal/prover.h"

namespace nexus::core {
namespace {

nal::Formula F(std::string_view text) {
  Result<nal::Formula> f = nal::ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << " -> " << f.status().ToString();
  return f.ok() ? *f : nullptr;
}

// ------------------------------------------------------------ LabelStore

TEST(LabelStoreTest, SayAndGet) {
  LabelStore store;
  LabelHandle h = store.Insert(nal::Principal("A"), F("ok()"));
  Result<nal::Formula> label = store.Get(h);
  ASSERT_TRUE(label.ok());
  EXPECT_TRUE(nal::Equals(*label, F("A says ok()")));
}

TEST(LabelStoreTest, InsertLabelValidatesShape) {
  LabelStore store;
  EXPECT_TRUE(store.InsertLabel(F("A says ok()")).ok());
  EXPECT_FALSE(store.InsertLabel(F("ok()")).ok());
  EXPECT_FALSE(store.InsertLabel(F("$X says ok()")).ok());
  EXPECT_FALSE(store.InsertLabel(nullptr).ok());
}

TEST(LabelStoreTest, DeleteAndTransfer) {
  LabelStore a;
  LabelStore b;
  LabelHandle h = a.Insert(nal::Principal("P"), F("fact()"));
  ASSERT_TRUE(a.Transfer(h, b).ok());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_FALSE(a.Delete(h).ok());
  EXPECT_FALSE(a.Transfer(h, b).ok());
}

TEST(LabelStoreTest, AllReturnsCredentials) {
  LabelStore store;
  store.Insert(nal::Principal("A"), F("p()"));
  store.Insert(nal::Principal("B"), F("q()"));
  EXPECT_EQ(store.All().size(), 2u);
}

// ------------------------------------------------------- Boot + identity

class NexusTest : public ::testing::Test {
 protected:
  NexusTest() : tpm_rng_(7), tpm_(tpm_rng_), nexus_(&tpm_) {}

  Rng tpm_rng_;
  tpm::Tpm tpm_;
  Nexus nexus_;
};

TEST_F(NexusTest, BootTakesOwnershipAndMintsNk) {
  EXPECT_TRUE(tpm_.IsOwned());
  EXPECT_FALSE(nexus_.nexus_public_key().n.IsZero());
  EXPECT_FALSE(nexus_.boot_composite().empty());
}

TEST_F(NexusTest, RebootRecoversSameNk) {
  crypto::RsaPublicKey first_nk = nexus_.nexus_public_key();
  Nexus second(&tpm_);  // Same TPM, same measured kernel.
  EXPECT_TRUE(second.nexus_public_key() == first_nk);
}

TEST_F(NexusTest, ExternalPrincipalNamesBootInstance) {
  nal::Principal p = nexus_.ExternalKernelPrincipal();
  EXPECT_EQ(p.path().size(), 2u);
  EXPECT_EQ(p.base().substr(0, 4), "tpm.");
  // A reboot produces a different boot identifier (NBK changes).
  Nexus second(&tpm_);
  EXPECT_FALSE(p == second.ExternalKernelPrincipal());
}

TEST_F(NexusTest, ProcessCreationDepositsKernelLabels) {
  // Syscall channels are shared reserved ports now, so process creation
  // deposits only the launchHash label; the per-port speaksfor appears
  // when the process gets a port of its own.
  kernel::ProcessId pid = *nexus_.CreateProcess("app", ToBytes("app-binary"));
  kernel::PortId port = *nexus_.CreatePort(pid);
  bool found_speaksfor = false;
  bool found_hash = false;
  for (const nal::Formula& label : nexus_.engine().SystemStore().All()) {
    std::string text = label->ToString();
    if (text.find("IPC." + std::to_string(port) + " speaksfor Nexus.ipd." +
                  std::to_string(pid)) != std::string::npos) {
      found_speaksfor = true;
    }
    if (text.find("launchHash(/proc/ipd/" + std::to_string(pid)) != std::string::npos) {
      found_hash = true;
    }
  }
  EXPECT_TRUE(found_speaksfor);
  EXPECT_TRUE(found_hash);
}

// ---------------------------------------------------------- say syscall

TEST_F(NexusTest, SayAttributesToCaller) {
  kernel::ProcessId pid = *nexus_.CreateProcess("analyzer", ToBytes("a"));
  Result<LabelHandle> h = nexus_.engine().Say(pid, "isTypeSafe(PGM)");
  ASSERT_TRUE(h.ok());
  nal::Formula label = *nexus_.engine().StoreFor(pid).Get(*h);
  EXPECT_EQ(label->speaker().ToString(), "Nexus.ipd." + std::to_string(pid));
  EXPECT_TRUE(nal::Equals(label->child1(), F("isTypeSafe(PGM)")));
}

TEST_F(NexusTest, SayRejectsBadInput) {
  kernel::ProcessId pid = *nexus_.CreateProcess("p", ToBytes("p"));
  EXPECT_FALSE(nexus_.engine().Say(pid, "not valid NAL ((").ok());
  EXPECT_FALSE(nexus_.engine().Say(pid, "safe($X)").ok());  // Not ground.
  EXPECT_FALSE(nexus_.engine().Say(9999, "ok()").ok());     // No such process.
}

// ----------------------------------------------- Authorization end-to-end

class AuthorizationFlowTest : public NexusTest {
 protected:
  AuthorizationFlowTest() {
    owner_ = *nexus_.CreateProcess("owner", ToBytes("owner-bin"));
    client_ = *nexus_.CreateProcess("client", ToBytes("client-bin"));
    nexus_.engine().RegisterObject("file:/secret", owner_, kernel::kKernelProcessId);
  }

  kernel::ProcessId owner_ = 0;
  kernel::ProcessId client_ = 0;
};

TEST_F(AuthorizationFlowTest, BootstrapPolicyOwnerOnly) {
  EXPECT_TRUE(nexus_.kernel().Authorize(owner_, "read", "file:/secret").ok());
  EXPECT_FALSE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  // Unregistered objects are unguarded.
  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/public").ok());
}

TEST_F(AuthorizationFlowTest, GoalWithProofGrantsAccess) {
  // Owner requires a certifier attestation about the client.
  std::string client_name = nexus_.kernel().ProcessPrincipal(client_).ToString();
  nal::Formula goal = F("Certifier says safe(" + client_name + ")");
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal).ok());

  // Without a proof: denied.
  EXPECT_FALSE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());

  // The certifier (a distinguished principal) issues the label system-side.
  nexus_.engine().SayAs(nal::Principal("Certifier"), F("safe(" + client_name + ")"));
  auto creds = nexus_.engine().CollectCredentials(client_, "file:/secret");
  Result<nal::Proof> proof = nal::AutoProve(goal, creds);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  ASSERT_TRUE(nexus_.engine().SetProof(client_, "read", "file:/secret", *proof).ok());

  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
}

TEST_F(AuthorizationFlowTest, DecisionCacheMakesRepeatsCheap) {
  std::string client_name = nexus_.kernel().ProcessPrincipal(client_).ToString();
  nal::Formula goal = F("Certifier says safe(" + client_name + ")");
  nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal);
  nexus_.engine().SayAs(nal::Principal("Certifier"), F("safe(" + client_name + ")"));
  auto creds = nexus_.engine().CollectCredentials(client_, "file:/secret");
  nexus_.engine().SetProof(client_, "read", "file:/secret",
                           *nal::AutoProve(goal, creds));

  uint64_t checks_before = nexus_.guard().stats().checks;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  }
  // Only the first call reaches the guard; the rest hit the kernel cache.
  EXPECT_EQ(nexus_.guard().stats().checks, checks_before + 1);
}

TEST_F(AuthorizationFlowTest, SetGoalIsItselfGuarded) {
  nal::Formula goal = F("true");
  // A non-owner cannot set goals on the object.
  EXPECT_FALSE(nexus_.engine().SetGoal(client_, "read", "file:/secret", goal).ok());
  EXPECT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal).ok());
}

TEST_F(AuthorizationFlowTest, GoalUpdateInvalidatesDecisions) {
  nexus_.engine().SetGoal(owner_, "read", "file:/secret", F("true"));
  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  // Owner tightens the policy; the cached ALLOW must not survive.
  std::string client_name = nexus_.kernel().ProcessPrincipal(client_).ToString();
  nexus_.engine().SetGoal(owner_, "read", "file:/secret",
                          F("Certifier says safe(" + client_name + ")"));
  EXPECT_FALSE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
}

TEST_F(AuthorizationFlowTest, AuthorityBackedGoalReflectsDynamicState) {
  // Goal: the time authority must vouch that the deadline has not passed.
  nal::Formula statement = F("Clock says TimeNow < 1000");
  nexus_.engine().SetGoal(owner_, "read", "file:/secret", statement);

  uint64_t now = 500;
  LambdaAuthority clock(
      [](const nal::Formula& f) { return nal::ScopeMatches(f, "TimeNow"); },
      [&now](const nal::Formula& f) {
        // Evaluate `Clock says TimeNow < c` against the live clock.
        const nal::FormulaNode* body = f->child1().get();
        return body->kind() == nal::FormulaKind::kCompare &&
               body->compare_op() == nal::CompareOp::kLt &&
               now < static_cast<uint64_t>(body->rhs().int_value());
      });
  nexus_.guard().AddEmbeddedAuthority(&clock);
  nexus_.engine().SetProof(client_, "read", "file:/secret", nal::proof::Authority(statement));

  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  now = 2000;  // Deadline passes; no revocation machinery needed.
  EXPECT_FALSE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
}

TEST_F(AuthorizationFlowTest, AuthorityDecisionsNeverCached) {
  nal::Formula statement = F("Clock says TimeNow < 1000");
  nexus_.engine().SetGoal(owner_, "read", "file:/secret", statement);
  int queries = 0;
  LambdaAuthority clock([](const nal::Formula&) { return true; },
                        [&queries](const nal::Formula&) {
                          ++queries;
                          return true;
                        });
  nexus_.guard().AddEmbeddedAuthority(&clock);
  nexus_.engine().SetProof(client_, "read", "file:/secret", nal::proof::Authority(statement));
  nexus_.kernel().Authorize(client_, "read", "file:/secret");
  nexus_.kernel().Authorize(client_, "read", "file:/secret");
  EXPECT_EQ(queries, 2);  // Fresh consult per decision.
}

TEST_F(AuthorizationFlowTest, ExternalAuthorityOverIpc) {
  nal::Formula statement = F("Quota says usage < 80");
  nexus_.engine().SetGoal(owner_, "write", "file:/secret", statement);

  LambdaAuthority quota([](const nal::Formula& f) { return nal::ScopeMatches(f, "usage"); },
                        [](const nal::Formula&) { return true; });
  AuthorityPortHandler handler(&quota);
  kernel::ProcessId authority_pid = *nexus_.CreateProcess("quota-authority", ToBytes("qa"));
  kernel::PortId port = *nexus_.CreatePort(authority_pid);
  nexus_.kernel().BindHandler(port, &handler);
  nexus_.guard().AddAuthorityPort(port);

  nexus_.engine().SetProof(client_, "write", "file:/secret",
                           nal::proof::Authority(statement));
  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "write", "file:/secret").ok());
}

TEST_F(AuthorizationFlowTest, DesignatedGuardOverIpc) {
  // Route this object's checks to a guard process behind a port.
  Guard designated(&nexus_.kernel());
  GuardPortHandler handler(&designated, &nexus_.engine().goals());
  kernel::ProcessId guard_pid = *nexus_.CreateProcess("app-guard", ToBytes("g"));
  kernel::PortId guard_port = *nexus_.CreatePort(guard_pid);
  nexus_.kernel().BindHandler(guard_port, &handler);

  std::string client_name = nexus_.kernel().ProcessPrincipal(client_).ToString();
  nal::Formula goal = F("Certifier says safe(" + client_name + ")");
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal, guard_port).ok());

  nexus_.engine().SayAs(nal::Principal("Certifier"), F("safe(" + client_name + ")"));
  auto creds = nexus_.engine().CollectCredentials(client_, "file:/secret");
  nexus_.engine().SetProof(client_, "read", "file:/secret", *nal::AutoProve(goal, creds));

  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  EXPECT_EQ(designated.stats().checks, 1u);
  // A wrong proof is rejected by the designated guard too.
  nexus_.engine().SetProof(client_, "read", "file:/secret",
                           nal::proof::Premise(F("Nobody says nothing()")));
  EXPECT_FALSE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
}

TEST_F(AuthorizationFlowTest, OwnershipTransferIssuesLabel) {
  ASSERT_TRUE(nexus_.engine().TransferOwnership(owner_, "file:/secret", client_).ok());
  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  EXPECT_FALSE(nexus_.engine().TransferOwnership(owner_, "file:/secret", owner_).ok());
}

// -------------------------------------------------------- Guard caching

TEST_F(AuthorizationFlowTest, GuardProofCacheHitsOnRepeatedChecks) {
  std::string client_name = nexus_.kernel().ProcessPrincipal(client_).ToString();
  nal::Formula goal = F("Certifier says safe(" + client_name + ")");
  nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal);
  nexus_.engine().SayAs(nal::Principal("Certifier"), F("safe(" + client_name + ")"));
  auto creds = nexus_.engine().CollectCredentials(client_, "file:/secret");
  nexus_.engine().SetProof(client_, "read", "file:/secret", *nal::AutoProve(goal, creds));

  // Disable the kernel cache to reach the guard every time.
  nexus_.kernel().set_decision_cache_enabled(false);
  nexus_.kernel().Authorize(client_, "read", "file:/secret");
  uint64_t hits_before = nexus_.guard().stats().cache_hits;
  nexus_.kernel().Authorize(client_, "read", "file:/secret");
  EXPECT_GT(nexus_.guard().stats().cache_hits, hits_before);
}

// The guard's proof cache used to key verdicts on a SUM of store, object-
// label and proof-registration versions. Two credential sets with equal
// sums shared one entry, so one subject's (or one object's) verdict
// replayed for another. The key is now the exact snapshot ids.

TEST_F(AuthorizationFlowTest, ProofCacheDoesNotReplayAcrossSubjects) {
  // The child shares the client's quota root, so its checks land in the
  // same guard cache shard.
  kernel::ProcessId child = *nexus_.CreateProcess("child", ToBytes("c"), client_);
  std::string client_name = nexus_.kernel().ProcessPrincipal(client_).ToString();
  nal::Formula goal = F(client_name + " says ok()");
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal).ok());
  ASSERT_TRUE(nexus_.engine().Say(client_, "ok()").ok());
  nal::Proof proof = nal::proof::Premise(goal);
  ASSERT_TRUE(nexus_.engine().SetProof(client_, "read", "file:/secret", proof).ok());
  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());

  // The child holds no label. Submitting the proof twice used to raise its
  // registration version until its sum matched the client's.
  ASSERT_TRUE(nexus_.engine().SetProof(child, "read", "file:/secret", proof).ok());
  ASSERT_TRUE(nexus_.engine().SetProof(child, "read", "file:/secret", proof).ok());
  EXPECT_FALSE(nexus_.kernel().Authorize(child, "read", "file:/secret").ok());
  EXPECT_FALSE(
      nal::CheckProof(proof, goal, nexus_.engine().CollectCredentials(child, "file:/secret"))
          .status.ok());
}

TEST_F(AuthorizationFlowTest, ProofCacheDoesNotReplayAcrossObjects) {
  ASSERT_TRUE(
      nexus_.engine().RegisterObject("file:/other", owner_, kernel::kKernelProcessId).ok());
  nal::Formula goal = F("Owner says ok()");
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal).ok());
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/other", goal).ok());
  // Only file:/other carries the label.
  nexus_.engine().AddObjectLabel("file:/other", goal);
  nal::Proof proof = nal::proof::Premise(goal);
  ASSERT_TRUE(nexus_.engine().SetProof(client_, "read", "file:/other", proof).ok());
  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/other").ok());

  ASSERT_TRUE(nexus_.engine().SetProof(client_, "read", "file:/secret", proof).ok());
  EXPECT_FALSE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  ASSERT_TRUE(nexus_.engine().SetProof(client_, "read", "file:/secret", proof).ok());
  EXPECT_FALSE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  EXPECT_FALSE(nal::CheckProof(proof, goal,
                               nexus_.engine().CollectCredentials(client_, "file:/secret"))
                   .status.ok());
}

// Credential freshness: a label change is visible at the very next engine
// miss, through both the serial and the batched entry point. The engine is
// called directly, so the kernel decision cache cannot answer for it.
class CredentialFreshnessTest : public AuthorizationFlowTest {
 protected:
  // Sets `goal` on file:/secret and registers its premise proof for `subject`.
  kernel::AuthzRequest Guarded(kernel::ProcessId subject, const nal::Formula& goal) {
    EXPECT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal).ok());
    EXPECT_TRUE(
        nexus_.engine().SetProof(subject, "read", "file:/secret", nal::proof::Premise(goal))
            .ok());
    return kernel::AuthzRequest::Of(subject, "read", "file:/secret");
  }

  void ExpectAllowed(const kernel::AuthzRequest& request, bool allowed) {
    EXPECT_EQ(nexus_.engine().Authorize(request).allowed(), allowed) << "Authorize";
    EXPECT_EQ(nexus_.engine().AuthorizeBatch({&request, 1})[0].allowed(), allowed)
        << "AuthorizeBatch";
  }

  std::string Name(kernel::ProcessId pid) {
    return nexus_.kernel().ProcessPrincipal(pid).ToString();
  }
};

TEST_F(CredentialFreshnessTest, Say) {
  kernel::AuthzRequest request = Guarded(client_, F(Name(client_) + " says ok()"));
  ExpectAllowed(request, false);
  ASSERT_TRUE(nexus_.engine().Say(client_, "ok()").ok());
  ExpectAllowed(request, true);
}

TEST_F(CredentialFreshnessTest, SayAs) {
  kernel::AuthzRequest request = Guarded(client_, F("Certifier says safe()"));
  ExpectAllowed(request, false);
  nexus_.engine().SayAs(nal::Principal("Certifier"), F("safe()"));
  ExpectAllowed(request, true);
}

TEST_F(CredentialFreshnessTest, Delete) {
  kernel::AuthzRequest request = Guarded(client_, F(Name(client_) + " says ok()"));
  LabelHandle label = *nexus_.engine().Say(client_, "ok()");
  ExpectAllowed(request, true);  // Now in the guard's proof cache.
  ASSERT_TRUE(nexus_.engine().StoreFor(client_).Delete(label).ok());
  ExpectAllowed(request, false);
}

TEST_F(CredentialFreshnessTest, Transfer) {
  kernel::ProcessId holder = *nexus_.CreateProcess("holder", ToBytes("h"));
  nal::Formula goal = F(Name(client_) + " says ok()");
  kernel::AuthzRequest client_request = Guarded(client_, goal);
  kernel::AuthzRequest holder_request = Guarded(holder, goal);
  LabelHandle label = *nexus_.engine().Say(client_, "ok()");
  ExpectAllowed(client_request, true);
  ExpectAllowed(holder_request, false);
  ASSERT_TRUE(nexus_.engine()
                  .StoreFor(client_)
                  .Transfer(label, nexus_.engine().StoreFor(holder))
                  .ok());
  ExpectAllowed(client_request, false);
  ExpectAllowed(holder_request, true);
}

TEST_F(CredentialFreshnessTest, AddObjectLabel) {
  kernel::AuthzRequest request = Guarded(client_, F("Owner says ok()"));
  ExpectAllowed(request, false);
  nexus_.engine().AddObjectLabel("file:/secret", F("Owner says ok()"));
  ExpectAllowed(request, true);
  // A second label republishes the object's snapshot; the first stays.
  nexus_.engine().AddObjectLabel("file:/secret", F("Owner says more()"));
  ExpectAllowed(request, true);
}

TEST_F(CredentialFreshnessTest, DirectSystemStoreInsert) {
  kernel::AuthzRequest request = Guarded(client_, F("Certifier says fresh()"));
  ExpectAllowed(request, false);
  nexus_.engine().SystemStore().Insert(nal::Principal("Certifier"), F("fresh()"));
  ExpectAllowed(request, true);
}

// A designated guard that allows every request and, before answering,
// records `vetted()` in the requesting process's labelstore (the upcall
// arrives with the subject as its caller).
class VettingGuardHandler : public kernel::PortHandler {
 public:
  explicit VettingGuardHandler(Engine* engine) : engine_(engine) {}
  kernel::IpcReply Handle(const kernel::IpcContext& context,
                          const kernel::IpcMessage&) override {
    EXPECT_TRUE(engine_->Say(context.caller, "vetted()").ok());
    kernel::IpcReply reply(OkStatus());
    reply.AddU64(0);  // Not cacheable.
    return reply;
  }

 private:
  Engine* engine_;
};

TEST_F(CredentialFreshnessTest, DesignatedGuardSayIsSeenLaterInTheBatch) {
  kernel::ProcessId guard_pid = *nexus_.CreateProcess("vetting-guard", ToBytes("g"));
  kernel::PortId guard_port = *nexus_.CreatePort(guard_pid);
  VettingGuardHandler handler(&nexus_.engine());
  ASSERT_TRUE(nexus_.kernel().BindHandler(guard_port, &handler).ok());
  ASSERT_TRUE(
      nexus_.engine().RegisterObject("file:/gate", owner_, kernel::kKernelProcessId).ok());
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "read", "file:/gate", F("Gate says open()"),
                                      guard_port)
                  .ok());
  kernel::AuthzRequest vetted = Guarded(client_, F(Name(client_) + " says vetted()"));
  kernel::AuthzRequest gate = kernel::AuthzRequest::Of(client_, "read", "file:/gate");

  // Before the gate, the label does not exist yet; after it, it does.
  std::vector<kernel::AuthzRequest> batch = {vetted, gate, vetted};
  std::vector<kernel::AuthzDecision> decisions = nexus_.engine().AuthorizeBatch(batch);
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_FALSE(decisions[0].allowed());
  EXPECT_TRUE(decisions[1].allowed());
  EXPECT_TRUE(decisions[2].allowed());
}

TEST(GuardQuotaTest, PerRootQuotaEvictsOwnEntriesFirst) {
  kernel::Kernel k;
  Guard::Config config;
  config.proof_cache_capacity = 64;
  config.per_root_quota = 4;
  Guard guard(&k, config);

  kernel::ProcessId spammer = *k.CreateProcess("spammer", ToBytes("s"));
  nal::Formula goal_base = nal::ParseFormula("A says ok()").value();
  // The spammer pushes many distinct proofs; its cache usage must stay
  // bounded by the quota rather than evicting others.
  for (int i = 0; i < 32; ++i) {
    nal::Formula goal =
        nal::ParseFormula("A says ok" + std::to_string(i) + "()").value();
    std::vector<nal::Formula> creds = {goal};
    guard.Check(spammer, "op", "obj" + std::to_string(i), goal, nal::proof::Premise(goal),
                creds, /*stamp=*/1);
  }
  EXPECT_GE(guard.stats().evictions, 32u - config.per_root_quota);
  (void)goal_base;
}

TEST(GuardQuotaTest, SpammerCannotEvictVictimEntries) {
  kernel::Kernel k;
  Guard::Config config;
  config.proof_cache_capacity = 64;
  config.per_root_quota = 8;
  Guard guard(&k, config);

  kernel::ProcessId victim = *k.CreateProcess("victim", ToBytes("v"));
  kernel::ProcessId spammer = *k.CreateProcess("spammer", ToBytes("s"));

  // The victim caches a handful of verdicts. Proof identity is part of the
  // cache key, so the proofs must stay alive across the re-check.
  std::vector<nal::Formula> victim_goals;
  std::vector<nal::Proof> victim_proofs;
  for (int i = 0; i < 4; ++i) {
    nal::Formula goal = nal::ParseFormula("V says ok" + std::to_string(i) + "()").value();
    victim_goals.push_back(goal);
    victim_proofs.push_back(nal::proof::Premise(goal));
    std::vector<nal::Formula> creds = {goal};
    guard.Check(victim, "op", "obj", goal, victim_proofs.back(), creds, /*stamp=*/1);
  }

  // The spawning-principal exhaustion attack (§2.9): way more insertions
  // than the victim's footprint, all charged to the spammer's root.
  for (int i = 0; i < 48; ++i) {
    nal::Formula goal = nal::ParseFormula("S says ok" + std::to_string(i) + "()").value();
    std::vector<nal::Formula> creds = {goal};
    guard.Check(spammer, "op", "obj", goal, nal::proof::Premise(goal), creds,
                /*stamp=*/1);
  }

  // Every victim verdict is still cached: eviction charged the spammer's
  // own quota, not the victim's entries.
  uint64_t hits_before = guard.stats().cache_hits;
  for (int i = 0; i < 4; ++i) {
    std::vector<nal::Formula> creds = {victim_goals[i]};
    guard.Check(victim, "op", "obj", victim_goals[i], victim_proofs[i], creds,
                /*stamp=*/1);
  }
  EXPECT_EQ(guard.stats().cache_hits, hits_before + 4);
}

TEST(GuardCacheTest, ZeroStampBypassesVerdictCache) {
  kernel::Kernel k;
  Guard guard(&k);
  kernel::ProcessId subject = *k.CreateProcess("subject", ToBytes("x"));
  nal::Formula goal = nal::ParseFormula("A says ok()").value();
  nal::Proof proof = nal::proof::Premise(goal);
  std::vector<nal::Formula> creds = {goal};

  // Stamp 0 disables caching entirely: no hits on repeats, and nothing is
  // inserted for later calls to hit.
  guard.Check(subject, "op", "obj", goal, proof, creds, /*stamp=*/0);
  guard.Check(subject, "op", "obj", goal, proof, creds, /*stamp=*/0);
  EXPECT_EQ(guard.stats().cache_hits, 0u);

  // A versioned check after the bypassed ones must MISS (nothing was
  // cached), then hit on its own repeat.
  guard.Check(subject, "op", "obj", goal, proof, creds, /*stamp=*/5);
  EXPECT_EQ(guard.stats().cache_hits, 0u);
  guard.Check(subject, "op", "obj", goal, proof, creds, /*stamp=*/5);
  EXPECT_EQ(guard.stats().cache_hits, 1u);
  // And a bypassed check between versioned ones still refuses the cache.
  guard.Check(subject, "op", "obj", goal, proof, creds, /*stamp=*/0);
  EXPECT_EQ(guard.stats().cache_hits, 1u);
}

TEST(GuardQuotaTest, ZeroPerRootQuotaDisablesCachingWithoutHanging) {
  // per_root_quota = 0 used to make the quota loop condition vacuously
  // true: with an empty LRU it dereferenced std::prev(lru_.end()) — UB —
  // and with a non-empty one it spun forever. It must mean "nobody may
  // cache" and return promptly.
  kernel::Kernel k;
  Guard::Config config;
  config.per_root_quota = 0;
  Guard guard(&k, config);
  kernel::ProcessId subject = *k.CreateProcess("subject", ToBytes("x"));
  nal::Formula goal = F("A says ok()");
  nal::Proof proof = nal::proof::Premise(goal);
  std::vector<nal::Formula> creds = {goal};

  for (int i = 0; i < 4; ++i) {
    kernel::AuthzDecision d =
        guard.Check(subject, "op", "obj", goal, proof, creds, /*stamp=*/1);
    EXPECT_TRUE(d.allowed());
  }
  EXPECT_EQ(guard.stats().cache_hits, 0u);  // Nothing was ever inserted.

  // Zero capacity is the same full-disable, via the other field.
  Guard::Config no_capacity;
  no_capacity.proof_cache_capacity = 0;
  Guard uncached(&k, no_capacity);
  uncached.Check(subject, "op", "obj", goal, proof, creds, /*stamp=*/1);
  uncached.Check(subject, "op", "obj", goal, proof, creds, /*stamp=*/1);
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
}

TEST(GuardCacheTest, FreedProofAddressReuseDoesNotReplayVerdict) {
  // ABA regression: the proof-check cache used to key on the proof's
  // ADDRESS. Free a cached proof, allocate a different proof (the
  // allocator happily hands back the same storage), and the old verdict
  // replayed for the new proof. The key is now the proof's structural
  // hash, so the second proof must be judged on its own (lack of) merits.
  kernel::Kernel k;
  Guard guard(&k);
  kernel::ProcessId subject = *k.CreateProcess("subject", ToBytes("x"));
  nal::Formula goal = F("A says ok()");
  nal::Formula bogus = F("B says bogus()");
  std::vector<nal::Formula> creds = {goal};

  // Loop to make same-size allocator reuse overwhelmingly likely.
  for (int i = 0; i < 16; ++i) {
    nal::Proof valid = nal::proof::Premise(goal);
    kernel::AuthzDecision allowed =
        guard.Check(subject, "op", "obj", goal, valid, creds, /*stamp=*/7);
    ASSERT_TRUE(allowed.allowed());
    valid.reset();  // Free the node; its storage may be reused...
    nal::Proof imposter = nal::proof::Premise(bogus);  // ...by this proof.
    kernel::AuthzDecision denied =
        guard.Check(subject, "op", "obj", goal, imposter, creds, /*stamp=*/7);
    EXPECT_FALSE(denied.allowed()) << "stale cached verdict replayed, iteration " << i;
  }
}

TEST(GuardCacheTest, StructurallyEqualResubmittedProofStillHits) {
  // The flip side of hash keying: a client that rebuilds the same proof
  // object (new address, same structure) now HITS where the address key
  // missed — structural identity is the sound notion, address never was.
  kernel::Kernel k;
  Guard guard(&k);
  kernel::ProcessId subject = *k.CreateProcess("subject", ToBytes("x"));
  nal::Formula goal = F("A says ok()");
  std::vector<nal::Formula> creds = {goal};

  guard.Check(subject, "op", "obj", goal, nal::proof::Premise(goal), creds,
              /*stamp=*/3);
  EXPECT_EQ(guard.stats().cache_hits, 0u);
  guard.Check(subject, "op", "obj", goal, nal::proof::Premise(F("A says ok()")), creds,
              /*stamp=*/3);
  EXPECT_EQ(guard.stats().cache_hits, 1u);
}

TEST(GuardPortHandlerTest, GarbageSubjectReturnsInvalidArgument) {
  // Regression: `check garbage op obj proof` over the guard IPC port used
  // to std::stoull("garbage") and throw std::invalid_argument out of the
  // simulation. The designated-guard surface is untrusted input.
  kernel::Kernel k;
  Guard guard(&k);
  GoalStore goals;
  ASSERT_TRUE(goals.SetGoal("op", "obj", F("A says ok()")).ok());
  GuardPortHandler handler(&guard, &goals);

  // v1-shaped text arguments, as a script-style caller would send them
  // (the kernel resolves the "check" op before dispatch; the ARGS stay
  // text and must be decoded defensively by the handler).
  auto check_msg = [](std::string subject) {
    kernel::IpcMessage msg = kernel::IpcMessage::Of("check");
    msg.AddString(subject).AddString("op").AddString("obj").AddString(
        "(premise \"A says ok()\")");
    return msg;
  };
  kernel::IpcContext context{1, 1};
  kernel::IpcReply reply = handler.Handle(context, check_msg("garbage"));
  EXPECT_EQ(reply.status.code(), ErrorCode::kInvalidArgument);

  // std::out_of_range surface: a subject bigger than uint64.
  reply = handler.Handle(context, check_msg("123456789012345678901234567890"));
  EXPECT_EQ(reply.status.code(), ErrorCode::kInvalidArgument);

  // A well-formed subject still goes through the full guard path.
  reply = handler.Handle(context, check_msg("7"));
  EXPECT_NE(reply.status.code(), ErrorCode::kInvalidArgument);
}

// -------------------------------------------------------- Certificates

TEST_F(NexusTest, ExternalizeAndImportCertificate) {
  kernel::ProcessId pid = *nexus_.CreateProcess("prover", ToBytes("p"));
  LabelHandle h = *nexus_.engine().Say(pid, "isTypeSafe(PGM)");
  Result<Certificate> cert = nexus_.ExternalizeLabel(pid, h);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();

  // A remote Nexus instance imports the certificate after verifying the
  // chain against the issuing TPM's EK.
  Rng remote_rng(11);
  tpm::Tpm remote_tpm(remote_rng);
  Nexus remote(&remote_tpm, NexusOptions{.seed = 99});
  kernel::ProcessId remote_pid = *remote.CreateProcess("verifier", ToBytes("v"));
  Result<LabelHandle> imported =
      remote.ImportCertificate(remote_pid, *cert, tpm_.endorsement_public_key());
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  nal::Formula label = *remote.engine().StoreFor(remote_pid).Get(*imported);
  // Speaker is the fully-qualified TPM-rooted chain.
  EXPECT_EQ(label->speaker().base().substr(0, 4), "tpm.");
  EXPECT_TRUE(nal::Equals(label->child1(), F("isTypeSafe(PGM)")));
}

TEST_F(NexusTest, CertificateSerializationRoundTrip) {
  kernel::ProcessId pid = *nexus_.CreateProcess("p", ToBytes("p"));
  LabelHandle h = *nexus_.engine().Say(pid, "ok()");
  Certificate cert = *nexus_.ExternalizeLabel(pid, h);
  Result<Certificate> restored = Certificate::Deserialize(cert.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(
      VerifyCertificate(*restored, tpm_.endorsement_public_key()).ok());
}

TEST_F(NexusTest, CertificateRejectsWrongEk) {
  kernel::ProcessId pid = *nexus_.CreateProcess("p", ToBytes("p"));
  Certificate cert = *nexus_.ExternalizeLabel(pid, *nexus_.engine().Say(pid, "ok()"));
  Rng other_rng(13);
  crypto::RsaKeyPair other = crypto::GenerateRsaKeyPair(other_rng, 512);
  EXPECT_FALSE(VerifyCertificate(cert, other.public_key).ok());
}

TEST_F(NexusTest, CertificateRejectsTampering) {
  kernel::ProcessId pid = *nexus_.CreateProcess("p", ToBytes("p"));
  Certificate cert = *nexus_.ExternalizeLabel(pid, *nexus_.engine().Say(pid, "ok()"));
  cert.statement = F(cert.statement->speaker().ToString() + " says evil()");
  EXPECT_FALSE(VerifyCertificate(cert, tpm_.endorsement_public_key()).ok());
}

// Two independently booted instances exchanging serialized certificates
// through the peer-registry import path (the entry point src/net uses).

TEST_F(NexusTest, PeerImportRoundTripsOverSerialization) {
  Rng remote_rng(21);
  tpm::Tpm remote_tpm(remote_rng);
  Nexus remote(&remote_tpm, NexusOptions{.seed = 77});
  ASSERT_TRUE(remote.RegisterPeer("issuer", tpm_.endorsement_public_key()).ok());

  kernel::ProcessId pid = *nexus_.CreateProcess("prover", ToBytes("p"));
  Certificate cert = *nexus_.ExternalizeLabel(pid, *nexus_.engine().Say(pid, "isTypeSafe(PGM)"));
  // The certificate crosses the wire as bytes.
  Result<Certificate> received = Certificate::Deserialize(cert.Serialize());
  ASSERT_TRUE(received.ok());

  kernel::ProcessId importer = *remote.CreateProcess("importer", ToBytes("i"));
  Result<LabelHandle> handle = remote.ImportPeerCertificate(importer, *received);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  nal::Formula label = *remote.engine().StoreFor(importer).Get(*handle);
  EXPECT_EQ(label->speaker().ToString().substr(0, 4), "tpm.");
  EXPECT_TRUE(nal::Equals(label->child1(), F("isTypeSafe(PGM)")));

  // Replayed delivery converges to the same handle and a single label.
  Result<LabelHandle> again = remote.ImportPeerCertificate(importer, *received);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*handle, *again);
  EXPECT_EQ(remote.engine().StoreFor(importer).size(), 1u);
}

TEST_F(NexusTest, PeerImportRejectsUnregisteredEk) {
  Rng remote_rng(22);
  tpm::Tpm remote_tpm(remote_rng);
  Nexus remote(&remote_tpm, NexusOptions{.seed = 78});  // No peers registered.

  kernel::ProcessId pid = *nexus_.CreateProcess("prover", ToBytes("p"));
  Certificate cert = *nexus_.ExternalizeLabel(pid, *nexus_.engine().Say(pid, "ok()"));
  kernel::ProcessId importer = *remote.CreateProcess("importer", ToBytes("i"));
  Result<LabelHandle> handle = remote.ImportPeerCertificate(importer, cert);
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), ErrorCode::kUnauthenticated);
}

TEST_F(NexusTest, PeerImportRejectsTamperedWireBytes) {
  Rng remote_rng(23);
  tpm::Tpm remote_tpm(remote_rng);
  Nexus remote(&remote_tpm, NexusOptions{.seed = 79});
  ASSERT_TRUE(remote.RegisterPeer("issuer", tpm_.endorsement_public_key()).ok());
  kernel::ProcessId importer = *remote.CreateProcess("importer", ToBytes("i"));

  kernel::ProcessId pid = *nexus_.CreateProcess("prover", ToBytes("p"));
  Certificate cert = *nexus_.ExternalizeLabel(pid, *nexus_.engine().Say(pid, "harmless()"));
  Bytes wire = cert.Serialize();
  // Flip one bit in every region of the wire image; no variant may import.
  for (size_t offset : {size_t{4}, wire.size() / 2, wire.size() - 3}) {
    Bytes corrupted = wire;
    corrupted[offset] ^= 0x01;
    Result<Certificate> parsed = Certificate::Deserialize(corrupted);
    if (!parsed.ok()) {
      continue;  // Rejected at parse time: fine.
    }
    EXPECT_FALSE(remote.ImportPeerCertificate(importer, *parsed).ok());
  }
  EXPECT_EQ(remote.engine().StoreFor(importer).size(), 0u);
}

TEST_F(NexusTest, PeerImportRejectsSubstitutedEndorsement) {
  // The wrong-EK attack: an attacker with a registered TPM of their own
  // re-roots someone else's certificate onto their EK. The NK binding
  // signature cannot transfer.
  Rng remote_rng(24), attacker_rng(25);
  tpm::Tpm remote_tpm(remote_rng), attacker_tpm(attacker_rng);
  Nexus remote(&remote_tpm, NexusOptions{.seed = 80});
  Nexus attacker(&attacker_tpm, NexusOptions{.seed = 81});
  ASSERT_TRUE(remote.RegisterPeer("attacker", attacker_tpm.endorsement_public_key()).ok());
  // Note: the victim (nexus_) is NOT registered; the attacker is.

  kernel::ProcessId pid = *nexus_.CreateProcess("victim-prover", ToBytes("p"));
  Certificate stolen = *nexus_.ExternalizeLabel(pid, *nexus_.engine().Say(pid, "ok()"));
  stolen.ek_public = attacker_tpm.endorsement_public_key();  // Re-root.

  kernel::ProcessId importer = *remote.CreateProcess("importer", ToBytes("i"));
  Result<LabelHandle> handle = remote.ImportPeerCertificate(importer, stolen);
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), ErrorCode::kUnauthenticated);
}

TEST_F(NexusTest, PeerRegistryRejectsConflictingReRegistration) {
  ASSERT_TRUE(nexus_.RegisterPeer("b", tpm_.endorsement_public_key()).ok());
  // Re-registering the same EK is idempotent.
  EXPECT_TRUE(nexus_.RegisterPeer("b", tpm_.endorsement_public_key()).ok());
  Rng rng(31);
  crypto::RsaKeyPair other = crypto::GenerateRsaKeyPair(rng, 512);
  // Silently swapping a peer's trust anchor is refused.
  EXPECT_FALSE(nexus_.RegisterPeer("b", other.public_key).ok());
  EXPECT_TRUE(nexus_.IsTrustedPeerEk(tpm_.endorsement_public_key()));
  EXPECT_FALSE(nexus_.IsTrustedPeerEk(other.public_key));
}

TEST_F(NexusTest, CertificatePinsSoftwareConfiguration) {
  kernel::ProcessId pid = *nexus_.CreateProcess("p", ToBytes("p"));
  Certificate cert = *nexus_.ExternalizeLabel(pid, *nexus_.engine().Say(pid, "ok()"));
  // Accepts the right composite, rejects a wrong pin.
  EXPECT_TRUE(
      VerifyCertificate(cert, tpm_.endorsement_public_key(), nexus_.boot_composite()).ok());
  Bytes wrong = nexus_.boot_composite();
  wrong[0] ^= 1;
  EXPECT_FALSE(VerifyCertificate(cert, tpm_.endorsement_public_key(), wrong).ok());
}

// The revocation idiom from §2.7: A says Valid(S) => S, with Valid(S)
// discharged by an authority.
TEST_F(AuthorizationFlowTest, RevocationViaValidityAuthority) {
  std::string s = "licensed(client)";
  nal::Formula goal = F("Vendor says " + s);
  nexus_.engine().SetGoal(owner_, "read", "file:/secret", goal);
  nexus_.engine().SayAs(nal::Principal("Vendor"), F("Valid(lic1) => " + s));

  bool revoked = false;
  LambdaAuthority validity(
      [](const nal::Formula& f) {
        return f->kind() == nal::FormulaKind::kSays &&
               f->child1()->kind() == nal::FormulaKind::kPred &&
               f->child1()->pred_name() == "Valid";
      },
      [&revoked](const nal::Formula&) { return !revoked; });
  nexus_.guard().AddEmbeddedAuthority(&validity);

  nal::Proof proof = nal::proof::SaysImpliesElim(
      nal::proof::Premise(F("Vendor says (Valid(lic1) => " + s + ")")),
      nal::proof::Authority(F("Vendor says Valid(lic1)")));
  nexus_.engine().SetProof(client_, "read", "file:/secret", proof);

  EXPECT_TRUE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
  revoked = true;  // Third-party revocation, no system infrastructure.
  EXPECT_FALSE(nexus_.kernel().Authorize(client_, "read", "file:/secret").ok());
}

// ----------------------------------------- Interned authorization API

TEST(LabelStoreTest, TransferAdvancesBothVersionCounters) {
  // Snapshots are rebuilt when a store's version moves: BOTH sides of a
  // transfer must advance, or a reader could keep the stale snapshot (and
  // its cached verdicts) on whichever side kept its old version.
  LabelStore a;
  LabelStore b;
  LabelHandle h = a.Insert(nal::Principal("P"), F("fact()"));
  uint64_t a_before = a.version();
  uint64_t b_before = b.version();
  ASSERT_TRUE(a.Transfer(h, b).ok());
  EXPECT_GT(a.version(), a_before);
  EXPECT_GT(b.version(), b_before);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(LabelStoreTest, SnapshotsAreSharedUntilTheNextMutation) {
  LabelStore store;
  // Every empty store publishes the one shared empty snapshot, id 0.
  SnapshotHandle empty = store.Snapshot();
  EXPECT_EQ(empty, CredentialSnapshot::Empty());
  EXPECT_EQ(empty->id, 0u);

  LabelHandle h = store.Insert(nal::Principal("P"), F("fact()"));
  SnapshotHandle first = store.Snapshot();
  EXPECT_NE(first->id, 0u);
  ASSERT_EQ(first->formulas.size(), 1u);
  EXPECT_TRUE(nal::Equals(first->formulas[0], F("P says fact()")));
  // No mutation in between: the same snapshot, not a rebuild.
  EXPECT_EQ(store.Snapshot(), first);

  LabelHandle h2 = store.Insert(nal::Principal("P"), F("other()"));
  SnapshotHandle second = store.Snapshot();
  EXPECT_NE(second->id, first->id);
  EXPECT_EQ(second->formulas.size(), 2u);
  EXPECT_EQ(first->formulas.size(), 1u);  // Old holders keep what they saw.

  ASSERT_TRUE(store.Delete(h).ok());
  EXPECT_NE(store.Snapshot()->id, second->id);
  LabelStore other;
  ASSERT_TRUE(store.Transfer(h2, other).ok());
  EXPECT_EQ(store.Snapshot(), CredentialSnapshot::Empty());
  EXPECT_EQ(other.Snapshot()->formulas.size(), 1u);
}

TEST(LabelStoreTest, InternsToCanonicalNodes) {
  LabelStore a;
  LabelStore b;
  LabelHandle ha = a.Insert(nal::Principal("P"), F("fact()"));
  LabelHandle hb = b.Insert(nal::Principal("P"), F("fact()"));
  // Same statement in two stores: one canonical tree, one FormulaId.
  EXPECT_EQ((*a.Get(ha)).get(), (*b.Get(hb)).get());
  EXPECT_NE(a.IdOf(ha), nal::kInvalidFormulaId);
  EXPECT_EQ(a.IdOf(ha), b.IdOf(hb));
  EXPECT_EQ(a.IdOf(999), nal::kInvalidFormulaId);
}

TEST_F(AuthorizationFlowTest, ReservedSeparatorNamesAreRejected) {
  // The legacy string keys joined tuple components with \x1f, so a name
  // containing it could alias another tuple. The shim surface refuses such
  // names outright (interned keys cannot collide, but serialized forms
  // must stay unambiguous).
  std::string evil_op = std::string("use\x1f") + "x";
  std::string evil_obj = std::string("obj\x1f") + "use";
  EXPECT_EQ(nexus_.engine().RegisterObject(evil_obj, owner_, kernel::kKernelProcessId).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(nexus_.engine().SetGoal(owner_, evil_op, "file:/secret", F("true")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(nexus_.engine().SetGoal(owner_, "use", evil_obj, F("true")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(nexus_.engine()
                .SetProof(client_, evil_op, "file:/secret", nal::proof::Premise(F("true")))
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(nexus_.engine()
                .SetProof(client_, "use", evil_obj, nal::proof::Premise(F("true")))
                .code(),
            ErrorCode::kInvalidArgument);
  // Sane names still work.
  EXPECT_TRUE(nexus_.engine().SetGoal(owner_, "use", "file:/secret", F("true")).ok());
}

TEST(GuardQuotaTest, FlushCacheResetsQuotaAccounting) {
  kernel::Kernel k;
  Guard::Config config;
  config.proof_cache_capacity = 64;
  config.per_root_quota = 4;
  Guard guard(&k, config);
  kernel::ProcessId subject = *k.CreateProcess("s", ToBytes("s"));

  auto fill = [&](int generation) {
    for (int i = 0; i < 4; ++i) {
      nal::Formula goal = nal::ParseFormula("A says ok" + std::to_string(generation) + "_" +
                                            std::to_string(i) + "()")
                              .value();
      std::vector<nal::Formula> creds = {goal};
      guard.Check(subject, "op", "obj", goal, nal::proof::Premise(goal), creds,
                  /*stamp=*/1);
    }
  };

  fill(0);  // Exactly at quota; no eviction yet.
  EXPECT_EQ(guard.stats().evictions, 0u);
  guard.FlushCache();
  // The flush dropped the entries AND the per-root usage counters. A stale
  // counter would make this refill evict spuriously at quota.
  uint64_t evictions_before = guard.stats().evictions;
  fill(1);
  EXPECT_EQ(guard.stats().evictions, evictions_before);
  // Quota still enforced after the flush: one more distinct entry evicts.
  nal::Formula extra = nal::ParseFormula("A says okExtra()").value();
  std::vector<nal::Formula> creds = {extra};
  guard.Check(subject, "op", "obj", extra, nal::proof::Premise(extra), creds,
              /*stamp=*/1);
  EXPECT_EQ(guard.stats().evictions, evictions_before + 1);
}

class BatchAuthorizationTest : public NexusTest {
 protected:
  BatchAuthorizationTest() {
    owner_ = *nexus_.CreateProcess("owner", ToBytes("o"));
    for (int i = 0; i < 4; ++i) {
      subjects_.push_back(*nexus_.CreateProcess("s" + std::to_string(i), ToBytes("s")));
    }
    for (int i = 0; i < 3; ++i) {
      std::string object = "batch:obj" + std::to_string(i);
      objects_.push_back(object);
      nexus_.engine().RegisterObject(object, owner_, kernel::kKernelProcessId);
    }
  }

  // Goal + credential + proof so that `subject` passes on `object`.
  void GrantAccess(kernel::ProcessId subject, const std::string& object) {
    std::string name = nexus_.kernel().ProcessPrincipal(subject).ToString();
    nal::Formula goal = F("Certifier says safe(" + name + ")");
    ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "use", object, goal).ok());
    nexus_.engine().SayAs(nal::Principal("Certifier"), F("safe(" + name + ")"));
    ASSERT_TRUE(
        nexus_.engine().SetProof(subject, "use", object, nal::proof::Premise(goal)).ok());
  }

  kernel::ProcessId owner_ = 0;
  std::vector<kernel::ProcessId> subjects_;
  std::vector<std::string> objects_;
};

TEST_F(BatchAuthorizationTest, BatchAgreesWithSerialDecisions) {
  GrantAccess(subjects_[0], objects_[0]);
  GrantAccess(subjects_[1], objects_[1]);
  // subjects_[2] gets no proof -> denied on guarded objects; objects_[2]
  // has no goal -> bootstrap policy.
  ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "use", objects_[2], F("true")).ok());

  std::vector<kernel::AuthzRequest> requests;
  for (kernel::ProcessId subject : subjects_) {
    for (const std::string& object : objects_) {
      requests.push_back(kernel::AuthzRequest::Of(subject, "use", object));
    }
  }

  std::vector<Status> serial;
  serial.reserve(requests.size());
  nexus_.kernel().set_decision_cache_enabled(false);
  for (const kernel::AuthzRequest& request : requests) {
    serial.push_back(nexus_.kernel().Authorize(request));
  }
  std::vector<Status> batched = nexus_.kernel().AuthorizeBatch(requests);
  ASSERT_EQ(batched.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(batched[i].ok(), serial[i].ok()) << "request " << i;
  }
  // At least the two granted tuples allowed, and a denial exists.
  EXPECT_TRUE(batched[0].ok());
  EXPECT_FALSE(batched[1].ok());
}

TEST_F(BatchAuthorizationTest, BatchPopulatesDecisionCache) {
  GrantAccess(subjects_[0], objects_[0]);
  std::vector<kernel::AuthzRequest> requests = {
      kernel::AuthzRequest::Of(subjects_[0], "use", objects_[0])};
  uint64_t checks_before = nexus_.guard().stats().checks;
  EXPECT_TRUE(nexus_.kernel().AuthorizeBatch(requests)[0].ok());
  EXPECT_EQ(nexus_.guard().stats().checks, checks_before + 1);
  // The follow-up serial call is answered by the kernel decision cache.
  EXPECT_TRUE(nexus_.kernel().Authorize(requests[0]).ok());
  EXPECT_EQ(nexus_.guard().stats().checks, checks_before + 1);
}

TEST_F(BatchAuthorizationTest, BatchCollapsesDuplicateAuthorityQueries) {
  // All subjects' proofs lean on the SAME authority statement; the batch
  // consults the authority once, not once per request.
  nal::Formula statement = F("Clock says TimeNow < 1000");
  int consultations = 0;
  LambdaAuthority clock([](const nal::Formula&) { return true; },
                        [&consultations](const nal::Formula&) {
                          ++consultations;
                          return true;
                        });
  nexus_.guard().AddEmbeddedAuthority(&clock);

  std::vector<kernel::AuthzRequest> requests;
  for (const std::string& object : objects_) {
    ASSERT_TRUE(nexus_.engine().SetGoal(owner_, "use", object, statement).ok());
    for (kernel::ProcessId subject : subjects_) {
      ASSERT_TRUE(nexus_.engine()
                      .SetProof(subject, "use", object, nal::proof::Authority(statement))
                      .ok());
      requests.push_back(kernel::AuthzRequest::Of(subject, "use", object));
    }
  }

  std::vector<Status> decisions = nexus_.kernel().AuthorizeBatch(requests);
  for (const Status& status : decisions) {
    EXPECT_TRUE(status.ok());
  }
  EXPECT_EQ(consultations, 1);
  EXPECT_GE(nexus_.guard().stats().batch_collapsed_queries,
            requests.size() - 1);
}

}  // namespace
}  // namespace nexus::core

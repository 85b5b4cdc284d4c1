// Cross-module integration tests: remote attestation between two Nexus
// instances, end-to-end application + storage flows, and randomized
// robustness sweeps over the NAL front end.
#include <gtest/gtest.h>

#include "apps/fauxbook.h"
#include "apps/movie_player.h"
#include "core/nexus.h"
#include "nal/parser.h"
#include "nal/prover.h"
#include "services/ipc_analyzer.h"
#include "storage/ssr.h"
#include "tpm/tpm.h"

namespace nexus {
namespace {

nal::Formula F(const std::string& text) { return *nal::ParseFormula(text); }

// ----------------------------------------------- Remote attestation flow

// The paper's §2.2 movie scenario across machines: a content server on
// machine B trusts a property certificate minted on machine A, without
// learning the player's hash.
TEST(RemoteAttestationTest, CertificateCrossesMachines) {
  // Machine A: the user's machine.
  Rng rng_a(1001);
  tpm::Tpm tpm_a(rng_a);
  core::Nexus machine_a(&tpm_a, core::NexusOptions{.seed = 1});
  auto player = *machine_a.CreateProcess("myplayer", ToBytes("homebrew-player"));
  auto analyzer_pid = *machine_a.CreateProcess("ipcanalyzer", ToBytes("analyzer"));
  services::IpcAnalyzer analyzer(&machine_a.kernel(), &machine_a.engine(), analyzer_pid);
  auto label = analyzer.AttestNoPath(player, "netdriver");
  ASSERT_TRUE(label.ok());
  core::Certificate cert = *machine_a.ExternalizeLabel(analyzer_pid, *label);

  // The wire: serialized bytes only.
  Bytes wire = cert.Serialize();

  // Machine B: the content owner's server. It trusts machine A's TPM EK
  // (e.g. via the TPM vendor's certificate).
  Rng rng_b(1002);
  tpm::Tpm tpm_b(rng_b);
  core::Nexus machine_b(&tpm_b, core::NexusOptions{.seed = 2});
  auto verifier_pid = *machine_b.CreateProcess("content-server", ToBytes("server"));

  core::Certificate received = *core::Certificate::Deserialize(wire);
  Result<core::LabelHandle> imported =
      machine_b.ImportCertificate(verifier_pid, received, tpm_a.endorsement_public_key());
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();

  nal::Formula statement = *machine_b.engine().StoreFor(verifier_pid).Get(*imported);
  // The speaker chain is rooted in machine A's TPM, and the statement
  // carries the no-leak property — no binary hash anywhere.
  // After the wire round trip the dotted chain reparses with base "tpm".
  EXPECT_EQ(statement->speaker().base().substr(0, 3), "tpm");
  EXPECT_NE(statement->ToString().find("hasPath"), std::string::npos);
  EXPECT_EQ(statement->ToString().find("launchHash"), std::string::npos);

  // Machine B can now discharge its goal from the imported credential.
  nal::Formula goal = nal::FormulaNode::Says(
      statement->speaker(), statement->child1());
  auto proof = nal::AutoProve(goal, machine_b.engine().StoreFor(verifier_pid).All());
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(nal::CheckProof(*proof, goal,
                              machine_b.engine().StoreFor(verifier_pid).All())
                  .status.ok());
}

TEST(RemoteAttestationTest, CertificateFromWrongTpmRejected) {
  Rng rng_a(1003);
  tpm::Tpm tpm_a(rng_a);
  core::Nexus machine_a(&tpm_a, core::NexusOptions{.seed = 3});
  auto pid = *machine_a.CreateProcess("p", ToBytes("p"));
  core::Certificate cert =
      *machine_a.ExternalizeLabel(pid, *machine_a.engine().Say(pid, "ok()"));

  Rng rng_c(1004);
  crypto::RsaKeyPair unrelated = crypto::GenerateRsaKeyPair(rng_c, 512);
  Rng rng_b(1005);
  tpm::Tpm tpm_b(rng_b);
  core::Nexus machine_b(&tpm_b, core::NexusOptions{.seed = 4});
  auto verifier = *machine_b.CreateProcess("v", ToBytes("v"));
  EXPECT_FALSE(machine_b.ImportCertificate(verifier, cert, unrelated.public_key).ok());
}

// ----------------------------------------- Fauxbook persisted over SSRs

TEST(FauxbookStorageTest, FeedsPersistAcrossRebootViaSsr) {
  Rng tpm_rng(1006);
  tpm::Tpm t(tpm_rng);
  core::Nexus nexus(&t);
  apps::Fauxbook fauxbook(&nexus);
  fauxbook.AddUser("alice");
  fauxbook.PostStatus("alice", "persist me");
  Bytes page = *fauxbook.ServeDynamic("alice");

  // Persist the rendered page into an encrypted SSR, reboot, recover.
  storage::BlockDevice disk;
  storage::VdirTable vdirs = *storage::VdirTable::Boot(&t, &disk);
  storage::VkeyTable vkeys(&t, &nexus.rng());
  storage::SsrManager ssrs(&disk, &vdirs, &vkeys);
  storage::VkeyId key = *vkeys.Create();
  storage::SsrId region = *ssrs.Create(true, key, 5);
  ASSERT_TRUE(ssrs.Write(region, 0, page).ok());

  core::Nexus rebooted(&t);  // Same TPM: NK recovered via unseal.
  storage::VdirTable vdirs2 = *storage::VdirTable::Boot(&t, &disk);
  storage::SsrManager ssrs2(&disk, &vdirs2, &vkeys);
  ASSERT_TRUE(ssrs2.Recover().ok());
  EXPECT_EQ(*ssrs2.Read(region, 0, page.size()), page);
}

// --------------------------------------------------- Randomized sweeps

class ParserRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

// Random formula trees must survive print->parse->print fixpoint.
TEST_P(ParserRobustnessTest, PrintParseFixpoint) {
  Rng rng(GetParam());
  std::function<nal::Formula(int)> random_formula = [&](int depth) -> nal::Formula {
    if (depth <= 0 || rng.NextBool(0.3)) {
      switch (rng.NextBelow(3)) {
        case 0:
          return nal::FormulaNode::Pred(
              "p" + std::to_string(rng.NextBelow(5)),
              {nal::Term::Symbol("s" + std::to_string(rng.NextBelow(3))),
               nal::Term::Int(static_cast<int64_t>(rng.NextBelow(100)))});
        case 1:
          return nal::FormulaNode::Compare(
              nal::CompareOp::kLt, nal::Term::Symbol("TimeNow"),
              nal::Term::Int(static_cast<int64_t>(rng.NextBelow(10000))));
        default:
          return nal::FormulaNode::SpeaksFor(
              nal::Principal("A" + std::to_string(rng.NextBelow(3))),
              nal::Principal("B" + std::to_string(rng.NextBelow(3))),
              rng.NextBool(0.5) ? std::optional<std::string>("scope") : std::nullopt);
      }
    }
    switch (rng.NextBelow(5)) {
      case 0:
        return nal::FormulaNode::And(random_formula(depth - 1), random_formula(depth - 1));
      case 1:
        return nal::FormulaNode::Or(random_formula(depth - 1), random_formula(depth - 1));
      case 2:
        return nal::FormulaNode::Implies(random_formula(depth - 1),
                                         random_formula(depth - 1));
      case 3:
        return nal::FormulaNode::Not(random_formula(depth - 1));
      default:
        return nal::FormulaNode::Says(nal::Principal("P" + std::to_string(rng.NextBelow(4))),
                                      random_formula(depth - 1));
    }
  };

  for (int i = 0; i < 50; ++i) {
    nal::Formula original = random_formula(4);
    Result<nal::Formula> reparsed = nal::ParseFormula(original->ToString());
    ASSERT_TRUE(reparsed.ok()) << original->ToString() << " -> "
                               << reparsed.status().ToString();
    EXPECT_TRUE(nal::Equals(original, *reparsed)) << original->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest, ::testing::Values(11, 22, 33, 44));

// The parser must reject (not crash on) arbitrary byte noise.
class ParserNoiseTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserNoiseTest, GarbageNeverCrashes) {
  Rng rng(GetParam());
  const char alphabet[] = "abcXYZ01 ().,$<>=!\"[]/\\\n\tspeaksforsaysandornot";
  for (int i = 0; i < 300; ++i) {
    std::string noise;
    size_t len = rng.NextBelow(60);
    for (size_t c = 0; c < len; ++c) {
      noise.push_back(alphabet[rng.NextBelow(sizeof(alphabet) - 1)]);
    }
    Result<nal::Formula> parsed = nal::ParseFormula(noise);
    if (parsed.ok()) {
      // Whatever parsed must round-trip.
      Result<nal::Formula> again = nal::ParseFormula((*parsed)->ToString());
      EXPECT_TRUE(again.ok());
    }
    Result<nal::Proof> proof = nal::DeserializeProof(noise);
    (void)proof;  // Must not crash; errors are fine.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserNoiseTest, ::testing::Values(7, 8, 9));

// Random delegation graphs: AutoProve never produces a proof the checker
// rejects, and never proves a goal with no delegation path.
class ProverSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProverSoundnessTest, ProverAgreesWithGraphReachability) {
  Rng rng(GetParam());
  constexpr int kPrincipals = 6;
  // Random edges: j says (i speaksfor j).
  std::vector<std::vector<bool>> edge(kPrincipals, std::vector<bool>(kPrincipals, false));
  std::vector<nal::Formula> creds;
  for (int i = 0; i < kPrincipals; ++i) {
    for (int j = 0; j < kPrincipals; ++j) {
      if (i != j && rng.NextBool(0.25)) {
        edge[i][j] = true;
        creds.push_back(F("Q" + std::to_string(j) + " says (Q" + std::to_string(i) +
                          " speaksfor Q" + std::to_string(j) + ")"));
      }
    }
  }
  creds.push_back(F("Q0 says fact()"));

  // Transitive closure of "statements by 0 reach j".
  std::vector<bool> reachable(kPrincipals, false);
  reachable[0] = true;
  for (int pass = 0; pass < kPrincipals; ++pass) {
    for (int i = 0; i < kPrincipals; ++i) {
      for (int j = 0; j < kPrincipals; ++j) {
        if (reachable[i] && edge[i][j]) {
          reachable[j] = true;
        }
      }
    }
  }

  for (int j = 0; j < kPrincipals; ++j) {
    nal::Formula goal = F("Q" + std::to_string(j) + " says fact()");
    nal::ProverOptions options;
    options.max_depth = 12;
    Result<nal::Proof> proof = nal::AutoProve(goal, creds, options);
    if (proof.ok()) {
      // Soundness: the checker accepts, and the graph agrees.
      EXPECT_TRUE(nal::CheckProof(*proof, goal, creds).status.ok());
      EXPECT_TRUE(reachable[j]) << "prover proved an unreachable delegation to Q" << j;
    } else if (reachable[j]) {
      // The bounded prover may miss deep chains; it must never be unsound,
      // and within this depth it should find paths up to the bound.
      // (No assertion: incompleteness is permitted by design.)
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProverSoundnessTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// --------------------------------------------- Guard/engine consistency

TEST(EndToEndConsistencyTest, CacheAndNoCacheAgreeOnVerdicts) {
  Rng tpm_rng(1007);
  tpm::Tpm t(tpm_rng);
  core::Nexus nexus(&t);
  auto owner = *nexus.CreateProcess("owner", ToBytes("o"));
  Rng rng(2024);

  for (int round = 0; round < 40; ++round) {
    auto subject = *nexus.CreateProcess("s" + std::to_string(round), ToBytes("s"));
    std::string object = "obj" + std::to_string(round % 7);
    nexus.engine().RegisterObject(object, owner, kernel::kKernelProcessId);
    bool grant = rng.NextBool(0.5);
    nal::Formula goal = F("Cert says ok" + std::to_string(round) + "()");
    nexus.engine().SetGoal(owner, "use", object, goal);
    if (grant) {
      nexus.engine().SayAs(nal::Principal("Cert"), F("ok" + std::to_string(round) + "()"));
      auto creds = nexus.engine().SystemStore().All();
      nexus.engine().SetProof(subject, "use", object, *nal::AutoProve(goal, creds));
    }
    nexus.kernel().set_decision_cache_enabled(true);
    Status first = nexus.kernel().Authorize(kernel::AuthzRequest::Of(subject, "use", object));
    Status second = nexus.kernel().Authorize(
        kernel::AuthzRequest::Of(subject, "use", object));  // Cached.
    nexus.kernel().set_decision_cache_enabled(false);
    Status uncached = nexus.kernel().Authorize(kernel::AuthzRequest::Of(subject, "use", object));
    EXPECT_EQ(first.ok(), grant) << round;
    EXPECT_EQ(first.ok(), second.ok()) << round;
    EXPECT_EQ(first.ok(), uncached.ok()) << round;
  }
}

}  // namespace
}  // namespace nexus

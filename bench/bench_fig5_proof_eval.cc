// Figure 5: proof evaluation cost vs proof size (#rules), for three rule
// families:
//   delegate : chains of handoff + speaksfor-elimination
//   negate   : stacked double-negation introductions
//   boolean  : conjunction introduction/elimination chains
// Two variants per family, matching the paper's E/F curves:
//   E : isolated proof checking (checker only)
//   F : full path — guard evaluation including credential collection and
//       authority lookup machinery (kernel decision cache disabled so every
//       call reaches the guard; guard proof cache flushed per iteration
//       batch).
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "core/nexus.h"
#include "nal/checker.h"
#include "nal/parser.h"
#include "tpm/tpm.h"

namespace {

using nexus::ToBytes;

nexus::nal::Formula F(const std::string& text) { return *nexus::nal::ParseFormula(text); }

struct ProofCase {
  nexus::nal::Formula goal;
  nexus::nal::Proof proof;
  std::vector<nexus::nal::Formula> credentials;
};

// Delegation chain: P0 says ok(); Pi+1 says (Pi speaksfor Pi+1). Proof uses
// 3 rules per hop (premise, handoff, speaksfor-elim) + 1.
ProofCase MakeDelegationChain(int hops) {
  ProofCase out;
  out.credentials.push_back(F("P0 says ok()"));
  nexus::nal::Proof current = nexus::nal::proof::Premise(F("P0 says ok()"));
  for (int i = 0; i < hops; ++i) {
    std::string hop = "P" + std::to_string(i + 1) + " says (P" + std::to_string(i) +
                      " speaksfor P" + std::to_string(i + 1) + ")";
    out.credentials.push_back(F(hop));
    current = nexus::nal::proof::SpeaksForElim(
        nexus::nal::proof::Handoff(nexus::nal::proof::Premise(F(hop))), current);
  }
  out.goal = F("P" + std::to_string(hops) + " says ok()");
  out.proof = current;
  return out;
}

// Double negation tower: not^2k (A says ok()).
ProofCase MakeNegationChain(int rules) {
  ProofCase out;
  out.credentials.push_back(F("A says ok()"));
  nexus::nal::Proof current = nexus::nal::proof::Premise(F("A says ok()"));
  std::string goal_text = "A says ok()";
  for (int i = 0; i < rules; ++i) {
    current = nexus::nal::proof::DoubleNegIntro(current);
    goal_text = "not not (" + goal_text + ")";
  }
  out.goal = F(goal_text);
  out.proof = current;
  return out;
}

// Boolean chain: ((A says ok()) and true) and true ... via and-intro.
ProofCase MakeBooleanChain(int rules) {
  ProofCase out;
  out.credentials.push_back(F("A says ok()"));
  nexus::nal::Proof current = nexus::nal::proof::Premise(F("A says ok()"));
  std::string goal_text = "A says ok()";
  for (int i = 0; i < rules; ++i) {
    current = nexus::nal::proof::AndIntro(current, nexus::nal::proof::Premise(F("true")));
    goal_text = "(" + goal_text + ") and true";
  }
  out.goal = F(goal_text);
  out.proof = current;
  return out;
}

// E curves: checker in isolation.
void RunIsolated(benchmark::State& state, const ProofCase& pc) {
  for (auto _ : state) {
    auto result = nexus::nal::CheckProof(pc.proof, pc.goal, pc.credentials);
    benchmark::DoNotOptimize(result.status.ok());
  }
  state.counters["rules"] = benchmark::Counter(static_cast<double>(pc.proof->Size()));
}

// F curves: full guard path (credential store walk + authority wiring).
struct FullHarness {
  FullHarness() : tpm_rng(42), tpm(tpm_rng), nexus(&tpm) {
    owner = *nexus.CreateProcess("owner", ToBytes("o"));
    subject = *nexus.CreateProcess("subject", ToBytes("s"));
    nexus.engine().RegisterObject("fig5:obj", owner, nexus::kernel::kKernelProcessId);
    nexus.kernel().set_decision_cache_enabled(false);
  }
  nexus::Rng tpm_rng;
  nexus::tpm::Tpm tpm;
  nexus::core::Nexus nexus;
  nexus::kernel::ProcessId owner = 0, subject = 0;
};

FullHarness& FH() {
  static FullHarness h;
  return h;
}

void RunFull(benchmark::State& state, const ProofCase& pc) {
  FullHarness& h = FH();
  // Install credentials as system labels (fresh store each case).
  for (const auto& cred : pc.credentials) {
    h.nexus.engine().SayAs(cred->speaker(), cred->child1());
  }
  h.nexus.engine().SetGoal(h.owner, "use", "fig5:obj", pc.goal);
  h.nexus.engine().SetProof(h.subject, "use", "fig5:obj", pc.proof);
  for (auto _ : state) {
    h.nexus.guard().FlushCache();  // Measure checking, not verdict caching.
    benchmark::DoNotOptimize(h.nexus.kernel().Authorize(
        nexus::kernel::AuthzRequest::Of(h.subject, "use", "fig5:obj")));
  }
  state.counters["rules"] = benchmark::Counter(static_cast<double>(pc.proof->Size()));
}

void BM_delegate_E(benchmark::State& s) { RunIsolated(s, MakeDelegationChain(static_cast<int>(s.range(0)))); }
void BM_delegate_F(benchmark::State& s) { RunFull(s, MakeDelegationChain(static_cast<int>(s.range(0)))); }
void BM_negate_E(benchmark::State& s) { RunIsolated(s, MakeNegationChain(static_cast<int>(s.range(0)))); }
void BM_negate_F(benchmark::State& s) { RunFull(s, MakeNegationChain(static_cast<int>(s.range(0)))); }
void BM_boolean_E(benchmark::State& s) { RunIsolated(s, MakeBooleanChain(static_cast<int>(s.range(0)))); }
void BM_boolean_F(benchmark::State& s) { RunFull(s, MakeBooleanChain(static_cast<int>(s.range(0)))); }

BENCHMARK(BM_delegate_E)->DenseRange(0, 20, 4);
BENCHMARK(BM_delegate_F)->DenseRange(0, 20, 4);
BENCHMARK(BM_negate_E)->DenseRange(0, 20, 4);
BENCHMARK(BM_negate_F)->DenseRange(0, 20, 4);
BENCHMARK(BM_boolean_E)->DenseRange(0, 20, 4);
BENCHMARK(BM_boolean_F)->DenseRange(0, 20, 4);

// The headline claim (§1): with proof caching, authorization drops to tens
// of cycles — measured here as the kernel-decision-cache hit path.
void BM_cached_authorization_hit(benchmark::State& state) {
  FullHarness& h = FH();
  ProofCase pc = MakeDelegationChain(4);
  for (const auto& cred : pc.credentials) {
    h.nexus.engine().SayAs(cred->speaker(), cred->child1());
  }
  h.nexus.kernel().set_decision_cache_enabled(true);
  h.nexus.engine().SetGoal(h.owner, "use", "fig5:hit", pc.goal);
  h.nexus.engine().RegisterObject("fig5:hit", h.owner, nexus::kernel::kKernelProcessId);
  h.nexus.engine().SetProof(h.subject, "use", "fig5:hit", pc.proof);
  h.nexus.kernel().Authorize(
      nexus::kernel::AuthzRequest::Of(h.subject, "use", "fig5:hit"));  // Warm.
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.nexus.kernel().Authorize(
        nexus::kernel::AuthzRequest::Of(h.subject, "use", "fig5:hit")));
  }
  h.nexus.kernel().set_decision_cache_enabled(false);
}
BENCHMARK(BM_cached_authorization_hit);

}  // namespace

NEXUS_BENCHMARK_MAIN();

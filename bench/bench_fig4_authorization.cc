// Figure 4: authorization cost per call for the eight cases, with the
// kernel decision cache enabled and disabled.
//
//   system call : authorization disabled entirely
//   no goal     : default ALLOW policy (no goal formula set)
//   no proof    : goal set, subject supplied no proof
//   not sound   : supplied proof is structurally invalid
//   pass        : sound proof, all premises supported (cacheable)
//   no cred     : proof cites a credential the subject lacks (not cacheable)
//   embed auth  : proof depends on an authority embedded in the guard
//   auth        : proof depends on an external authority behind IPC
//
// Expected shape: with the cache, (a)-(e) collapse to sub-microsecond,
// while (f)-(h) stay at guard-upcall cost, the external authority being the
// most expensive. An ablation sweep over decision-cache subregion size is
// included at the end (§2.8's invalidation/collision trade-off).
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "core/nexus.h"
#include "nal/parser.h"
#include "tpm/tpm.h"

namespace {

using nexus::ToBytes;
using nexus::core::LambdaAuthority;
using nexus::kernel::IpcMessage;
using nexus::kernel::Syscall;

nexus::nal::Formula F(const char* text) { return *nexus::nal::ParseFormula(text); }

struct Harness {
  Harness() : tpm_rng(42), tpm(tpm_rng), nexus(&tpm) {
    owner = *nexus.CreateProcess("owner", ToBytes("owner"));
    subject = *nexus.CreateProcess("subject", ToBytes("subject"));
    nexus.engine().RegisterObject("bench:object", owner, nexus::kernel::kKernelProcessId);

    // Authorities: one embedded, one external over IPC, both always vouch.
    embedded = std::make_unique<LambdaAuthority>(
        [](const nexus::nal::Formula& f) {
          return nexus::nal::ScopeMatches(f, "EmbeddedState");
        },
        [](const nexus::nal::Formula&) { return true; });
    external = std::make_unique<LambdaAuthority>(
        [](const nexus::nal::Formula& f) {
          return nexus::nal::ScopeMatches(f, "ExternalState");
        },
        [](const nexus::nal::Formula&) { return true; });
    nexus.guard().AddEmbeddedAuthority(embedded.get());
    external_handler = std::make_unique<nexus::core::AuthorityPortHandler>(external.get());
    auto authority_pid = *nexus.CreateProcess("authority", ToBytes("authority"));
    auto port = *nexus.CreatePort(authority_pid);
    nexus.kernel().BindHandler(port, external_handler.get());
    nexus.guard().AddAuthorityPort(port);

    nexus.engine().SayAs(nexus::nal::Principal("Certifier"), F("ok(subject)"));
  }

  void Reset(bool cache) {
    nexus.kernel().set_decision_cache_enabled(cache);
    nexus.kernel().decision_cache().Clear();
    nexus.guard().FlushCache();
  }

  nexus::Rng tpm_rng;
  nexus::tpm::Tpm tpm;
  nexus::core::Nexus nexus;
  nexus::kernel::ProcessId owner = 0;
  nexus::kernel::ProcessId subject = 0;
  std::unique_ptr<LambdaAuthority> embedded;
  std::unique_ptr<LambdaAuthority> external;
  std::unique_ptr<nexus::core::AuthorityPortHandler> external_handler;
};

Harness& H() {
  static Harness harness;
  return harness;
}

enum class Case {
  kSystemCall,
  kNoGoal,
  kNoProof,
  kNotSound,
  kPass,
  kNoCred,
  kEmbedAuth,
  kAuth
};

void Configure(Harness& h, Case which) {
  auto& engine = h.nexus.engine();
  // Restore canonical ownership (case b hands the object to the subject so
  // the default ALLOW policy applies to it).
  engine.RegisterObject("bench:object", h.owner, nexus::kernel::kKernelProcessId);
  engine.ClearGoal(h.owner, "use", "bench:object");
  engine.ClearProof(h.subject, "use", "bench:object");
  switch (which) {
    case Case::kSystemCall:
      break;  // Engine detached below.
    case Case::kNoGoal:
      engine.RegisterObject("bench:object", h.subject, nexus::kernel::kKernelProcessId);
      break;
    case Case::kNoProof:
      engine.SetGoal(h.owner, "use", "bench:object", F("Certifier says ok(subject)"));
      break;
    case Case::kNotSound:
      engine.SetGoal(h.owner, "use", "bench:object", F("Certifier says ok(subject)"));
      engine.SetProof(h.subject, "use", "bench:object",
                      nexus::nal::proof::AndElimL(
                          nexus::nal::proof::Premise(F("Certifier says ok(subject)"))));
      break;
    case Case::kPass:
      engine.SetGoal(h.owner, "use", "bench:object", F("Certifier says ok(subject)"));
      engine.SetProof(h.subject, "use", "bench:object",
                      nexus::nal::proof::Premise(F("Certifier says ok(subject)")));
      break;
    case Case::kNoCred:
      engine.SetGoal(h.owner, "use", "bench:object", F("Missing says ok(subject)"));
      engine.SetProof(h.subject, "use", "bench:object",
                      nexus::nal::proof::Premise(F("Missing says ok(subject)")));
      break;
    case Case::kEmbedAuth:
      engine.SetGoal(h.owner, "use", "bench:object", F("Sensor says EmbeddedState < 10"));
      engine.SetProof(h.subject, "use", "bench:object",
                      nexus::nal::proof::Authority(F("Sensor says EmbeddedState < 10")));
      break;
    case Case::kAuth:
      engine.SetGoal(h.owner, "use", "bench:object", F("Remote says ExternalState < 10"));
      engine.SetProof(h.subject, "use", "bench:object",
                      nexus::nal::proof::Authority(F("Remote says ExternalState < 10")));
      break;
  }
}

void RunCase(benchmark::State& state, Case which, bool cache) {
  Harness& h = H();
  h.Reset(cache);
  Configure(h, which);
  if (which == Case::kSystemCall) {
    h.nexus.kernel().set_engine(nullptr);
  }
  for (auto _ : state) {
    if (which == Case::kSystemCall) {
      benchmark::DoNotOptimize(
          h.nexus.kernel().Call(h.subject, SyscallIpcPort(Syscall::kNull), {}));
    } else {
      benchmark::DoNotOptimize(h.nexus.kernel().Authorize(
          nexus::kernel::AuthzRequest::Of(h.subject, "use", "bench:object")));
    }
  }
  if (which == Case::kSystemCall) {
    h.nexus.kernel().set_engine(&h.nexus.engine());
  }
}

#define FIG4_CASE(name, which)                                                    \
  void BM_##name##_cached(benchmark::State& s) { RunCase(s, which, true); }       \
  void BM_##name##_nocache(benchmark::State& s) { RunCase(s, which, false); }     \
  BENCHMARK(BM_##name##_cached);                                                  \
  BENCHMARK(BM_##name##_nocache)

FIG4_CASE(a_system_call, Case::kSystemCall);
FIG4_CASE(b_no_goal, Case::kNoGoal);
FIG4_CASE(c_no_proof, Case::kNoProof);
FIG4_CASE(d_not_sound, Case::kNotSound);
FIG4_CASE(e_pass, Case::kPass);
FIG4_CASE(f_no_cred, Case::kNoCred);
FIG4_CASE(g_embed_auth, Case::kEmbedAuth);
FIG4_CASE(h_auth, Case::kAuth);

// Interned-vs-string API (§2.8 made concrete): the same cached "pass" case
// with names interned per call (AuthzRequest::Of: two string-table probes
// before the decision-cache lookup) and with a pre-interned
// AuthzRequest (pure integer hashing end to end). The delta is the string
// overhead the api redesign removes from every repeated authorization.
void BM_e_pass_cached_string_keys(benchmark::State& state) {
  Harness& h = H();
  h.Reset(true);
  Configure(h, Case::kPass);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.nexus.kernel().Authorize(
        nexus::kernel::AuthzRequest::Of(h.subject, "use", "bench:object")));
  }
}
BENCHMARK(BM_e_pass_cached_string_keys);

void BM_e_pass_cached_interned_keys(benchmark::State& state) {
  Harness& h = H();
  h.Reset(true);
  Configure(h, Case::kPass);
  nexus::kernel::AuthzRequest request =
      nexus::kernel::AuthzRequest::Of(h.subject, "use", "bench:object");
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.nexus.kernel().Authorize(request));
  }
}
BENCHMARK(BM_e_pass_cached_interned_keys);

// Batched-vs-serial guard evaluation on decision-cache misses: N distinct
// "pass"-style tuples authorized one by one vs in one AuthorizeBatch call
// (credential collection amortized per subject). The decision cache is
// cleared per iteration so every tuple reaches the guard.
void SetupBatchTuples(Harness& h, size_t n, std::vector<nexus::kernel::AuthzRequest>* out) {
  auto& engine = h.nexus.engine();
  for (size_t i = 0; i < n; ++i) {
    std::string object = "batch4:obj" + std::to_string(i);
    engine.RegisterObject(object, h.owner, nexus::kernel::kKernelProcessId);
    engine.SetGoal(h.owner, "use", object, F("Certifier says ok(subject)"));
    engine.SetProof(h.subject, "use", object,
                    nexus::nal::proof::Premise(F("Certifier says ok(subject)")));
    out->push_back(nexus::kernel::AuthzRequest::Of(h.subject, "use", object));
  }
}

void BM_pass_miss_serial(benchmark::State& state) {
  Harness& h = H();
  h.Reset(true);
  std::vector<nexus::kernel::AuthzRequest> requests;
  SetupBatchTuples(h, static_cast<size_t>(state.range(0)), &requests);
  for (auto _ : state) {
    h.nexus.kernel().decision_cache().Clear();
    for (const auto& request : requests) {
      benchmark::DoNotOptimize(h.nexus.kernel().Authorize(request));
    }
  }
  state.SetItemsProcessed(state.iterations() * requests.size());
}
BENCHMARK(BM_pass_miss_serial)->Arg(16)->Arg(64);

void BM_pass_miss_batched(benchmark::State& state) {
  Harness& h = H();
  h.Reset(true);
  std::vector<nexus::kernel::AuthzRequest> requests;
  SetupBatchTuples(h, static_cast<size_t>(state.range(0)), &requests);
  for (auto _ : state) {
    h.nexus.kernel().decision_cache().Clear();
    benchmark::DoNotOptimize(h.nexus.kernel().AuthorizeBatch(requests));
  }
  state.SetItemsProcessed(state.iterations() * requests.size());
}
BENCHMARK(BM_pass_miss_batched)->Arg(16)->Arg(64);

// Ablation (§2.8): decision-cache subregion size vs invalidation cost. A
// workload alternating goal updates with authorization bursts across many
// objects: large subregions amortize invalidation but collide more.
void BM_ablation_subregion(benchmark::State& state) {
  Harness& h = H();
  h.Reset(true);
  size_t entries = static_cast<size_t>(state.range(0));
  h.nexus.kernel().decision_cache().Resize(
      nexus::kernel::DecisionCache::Config{4096 / entries, entries});
  // The cache counts cumulatively across Resize: the hit ratio is the
  // delta from here.
  const nexus::metrics::MetricGroup& counters = h.nexus.kernel().decision_cache().metrics();
  const uint64_t hits_before = *counters.Value("hits");
  const uint64_t misses_before = *counters.Value("misses");
  Configure(h, Case::kPass);
  int i = 0;
  for (auto _ : state) {
    std::string object = "bench:object";  // Same goal; rotate extra objects.
    benchmark::DoNotOptimize(h.nexus.kernel().Authorize(
        nexus::kernel::AuthzRequest::Of(h.subject, "use", object)));
    if (++i % 64 == 0) {
      h.nexus.kernel().OnGoalUpdate("use", "obj" + std::to_string(i % 257));
    }
  }
  const uint64_t hits = *counters.Value("hits") - hits_before;
  const uint64_t misses = *counters.Value("misses") - misses_before;
  const double lookups = static_cast<double>(std::max<uint64_t>(1, hits + misses));
  state.counters["hit%"] = benchmark::Counter(100.0 * static_cast<double>(hits) / lookups);
  h.nexus.kernel().decision_cache().Resize(nexus::kernel::DecisionCache::Config{});
}
BENCHMARK(BM_ablation_subregion)->Arg(8)->Arg(64)->Arg(512);

}  // namespace

NEXUS_BENCHMARK_MAIN();

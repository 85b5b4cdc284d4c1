// Batched authorization sweep: batch size × remote-authority fraction.
//
// Two attested Nexus instances share a simulated fabric. Instance A
// authorizes a batch of distinct (subject, "use", object) tuples; a
// configurable fraction of the objects carry goals whose proofs lean on a
// remote authority living on instance B (each object has its OWN statement,
// so nothing dedupes away — the win measured here is round-trip coalescing,
// not duplicate collapsing). The rest are statically-provable "pass" cases.
//
//   serial : one Kernel::Authorize per tuple — every remote leaf pays its
//            own attested round trip (AES+HMAC framing both ways).
//   batched: one Kernel::AuthorizeBatch — all remote leaves travel in a
//            single Vouch message per remote authority.
//
// The simulated clock makes link latency free; what the numbers show is the
// real CPU cost of per-message channel crypto and dispatch, which is what
// batching amortizes. Counters report remote round trips per iteration.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <memory>
#include <set>
#include <string>

#include "core/nexus.h"
#include "nal/parser.h"
#include "net/node.h"
#include "net/remote_authority.h"
#include "net/transport.h"
#include "tpm/tpm.h"

namespace {

using nexus::ToBytes;
using nexus::core::LambdaAuthority;

nexus::nal::Formula F(const std::string& text) {
  return *nexus::nal::ParseFormula(text);
}

struct World {
  World()
      : rng_a(101),
        rng_b(202),
        tpm_a(rng_a),
        tpm_b(rng_b),
        nexus_a(&tpm_a, nexus::core::NexusOptions{.seed = 1}),
        nexus_b(&tpm_b, nexus::core::NexusOptions{.seed = 2}),
        transport(7) {
    nexus_a.RegisterPeer("b", tpm_b.endorsement_public_key());
    nexus_b.RegisterPeer("a", tpm_a.endorsement_public_key());
    node_a = std::make_unique<nexus::net::NetNode>(&nexus_a, &transport, "a");
    node_b = std::make_unique<nexus::net::NetNode>(&nexus_b, &transport, "b");

    service = std::make_unique<nexus::net::AuthorityService>(node_b.get());
    session = std::make_unique<LambdaAuthority>(
        [](const nexus::nal::Formula& f) {
          return f->kind() == nexus::nal::FormulaKind::kSays &&
                 f->speaker().base() == "Session";
        },
        [](const nexus::nal::Formula&) { return true; });
    service->AddAuthority(session.get());

    remote = std::make_unique<nexus::net::RemoteAuthority>(node_a.get(), "b", nullptr);
    nexus_a.guard().AddRemoteAuthority(remote.get());
    nexus_a.guard().set_remote_query_timeout_us(100000);

    owner = *nexus_a.CreateProcess("owner", ToBytes("o"));
    subject = *nexus_a.CreateProcess("subject", ToBytes("s"));
  }

  // Builds `n` tuples, `remote_pct`% of which require a remote-authority
  // consultation. Objects are memoized so repeated benchmark configs reuse
  // registrations.
  std::vector<nexus::kernel::AuthzRequest> Tuples(size_t n, int remote_pct) {
    std::vector<nexus::kernel::AuthzRequest> requests;
    requests.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      bool is_remote = i * 100 < n * static_cast<size_t>(remote_pct);
      std::string object = (is_remote ? "r:" : "l:") + std::to_string(i);
      if (!configured.contains(object)) {
        configured.insert(object);
        nexus_a.engine().RegisterObject(object, owner, nexus::kernel::kKernelProcessId);
        if (is_remote) {
          nexus::nal::Formula statement =
              F("Session says active(user" + std::to_string(i) + ")");
          nexus_a.engine().SetGoal(owner, "use", object, statement);
          nexus_a.engine().SetProof(subject, "use", object,
                                    nexus::nal::proof::Authority(statement));
        } else {
          nexus::nal::Formula goal = F("Certifier says ok(subject)");
          nexus_a.engine().SetGoal(owner, "use", object, goal);
          nexus_a.engine().SetProof(subject, "use", object,
                                    nexus::nal::proof::Premise(goal));
        }
      }
      requests.push_back(nexus::kernel::AuthzRequest::Of(subject, "use", object));
    }
    return requests;
  }

  nexus::Rng rng_a, rng_b;
  nexus::tpm::Tpm tpm_a, tpm_b;
  nexus::core::Nexus nexus_a, nexus_b;
  nexus::net::Transport transport;
  std::unique_ptr<nexus::net::NetNode> node_a, node_b;
  std::unique_ptr<nexus::net::AuthorityService> service;
  std::unique_ptr<LambdaAuthority> session;
  std::unique_ptr<nexus::net::RemoteAuthority> remote;
  nexus::kernel::ProcessId owner = 0;
  nexus::kernel::ProcessId subject = 0;
  std::set<std::string> configured;
};

World& W() {
  static World* world = new World();
  return *world;
}

void Run(benchmark::State& state, bool batched) {
  World& w = W();
  static bool credential_seeded = false;
  if (!credential_seeded) {
    credential_seeded = true;
    w.nexus_a.engine().SayAs(nexus::nal::Principal("Certifier"), F("ok(subject)"));
  }
  size_t n = static_cast<size_t>(state.range(0));
  int remote_pct = static_cast<int>(state.range(1));
  std::vector<nexus::kernel::AuthzRequest> requests = w.Tuples(n, remote_pct);

  uint64_t round_trips_before = w.remote->stats().queries;
  uint64_t batches_before = w.remote->stats().batch_round_trips;
  for (auto _ : state) {
    w.nexus_a.kernel().decision_cache().Clear();
    if (batched) {
      benchmark::DoNotOptimize(w.nexus_a.kernel().AuthorizeBatch(requests));
    } else {
      for (const auto& request : requests) {
        benchmark::DoNotOptimize(w.nexus_a.kernel().Authorize(request));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * requests.size());
  double iters = static_cast<double>(std::max<int64_t>(1, state.iterations()));
  if (batched) {
    state.counters["wire_rt/iter"] = benchmark::Counter(
        static_cast<double>(w.remote->stats().batch_round_trips - batches_before) / iters);
  } else {
    state.counters["wire_rt/iter"] = benchmark::Counter(
        static_cast<double>(w.remote->stats().queries - round_trips_before) / iters);
  }
}

void BM_authz_serial(benchmark::State& state) { Run(state, false); }
void BM_authz_batched(benchmark::State& state) { Run(state, true); }

#define SWEEP(bench)                                                        \
  BENCHMARK(bench)                                                          \
      ->ArgsProduct({{8, 64, 256}, {0, 25, 100}})                           \
      ->ArgNames({"batch", "remote%"})

SWEEP(BM_authz_serial);
SWEEP(BM_authz_batched);

#undef SWEEP

}  // namespace

NEXUS_BENCHMARK_MAIN();

// Distributed attestation costs: the cross-instance analogue of Fig. 6's
// three-orders-of-magnitude gap between system-backed and cryptographic
// credentials.
//
//   handshake    : full attested channel establishment (2 NK signatures,
//                  4 RSA verifications, key derivation)
//   cert trip    : externalize a label, ship it, verify + import remotely
//   remote query : one authority consultation crossing the channel
//                  (HMAC + AES framing both ways, no RSA)
//
// Expected shape: handshake and certificate shipping are RSA-dominated;
// established-channel queries are symmetric-crypto cheap, which is why
// untransferable authority answers stay practical over the network.
//
// Mesh sweep (NEXUS_MESH_OUT): in addition to the microbenchmarks above,
// setting NEXUS_MESH_OUT=<path> runs a federation-mesh sweep over node
// count (2/4/8/16) x link drop rate (0/1/5%) and writes BENCH_mesh-style
// JSON with, per configuration, the simulated-clock time and anti-entropy
// round count to full registry convergence plus the mean simulated latency
// of a majority-quorum vouch across the converged mesh. The process exits
// nonzero if any configuration fails to converge or to reach quorum, so CI
// can gate on the file's presence alone.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_main.h"

#include "core/authority.h"
#include "nal/parser.h"
#include "net/cert_exchange.h"
#include "net/mesh/mesh.h"
#include "net/node.h"
#include "net/remote_authority.h"
#include "net/transport.h"
#include "tpm/tpm.h"

namespace {

using nexus::Rng;
using nexus::ToBytes;

struct NetHarness {
  NetHarness()
      : rng_a(101),
        rng_b(202),
        tpm_a(rng_a),
        tpm_b(rng_b),
        nexus_a(&tpm_a, nexus::core::NexusOptions{.seed = 1}),
        nexus_b(&tpm_b, nexus::core::NexusOptions{.seed = 2}) {
    nexus_a.RegisterPeer("b", tpm_b.endorsement_public_key());
    nexus_b.RegisterPeer("a", tpm_a.endorsement_public_key());
  }

  Rng rng_a, rng_b;
  nexus::tpm::Tpm tpm_a, tpm_b;
  nexus::core::Nexus nexus_a, nexus_b;
};

NetHarness& H() {
  static NetHarness harness;
  return harness;
}

void BM_AttestedHandshake(benchmark::State& state) {
  NetHarness& h = H();
  for (auto _ : state) {
    nexus::net::Transport transport(7);
    nexus::net::NetNode node_a(&h.nexus_a, &transport, "a");
    nexus::net::NetNode node_b(&h.nexus_b, &transport, "b");
    auto channel = node_a.Connect("b");
    benchmark::DoNotOptimize(channel);
    if (!channel.ok() || !(*channel)->established()) {
      state.SkipWithError("handshake failed");
      return;
    }
  }
}
BENCHMARK(BM_AttestedHandshake)->Unit(benchmark::kMicrosecond);

struct EstablishedPair {
  EstablishedPair()
      : transport(7),
        node_a(&H().nexus_a, &transport, "a"),
        node_b(&H().nexus_b, &transport, "b"),
        importer(&node_a, *H().nexus_a.CreateProcess("gateway", ToBytes("g"))),
        pusher(&node_b, 0),
        prover(*H().nexus_b.CreateProcess("bench-prover", ToBytes("p"))),
        authority_service(&node_b),
        always_yes(
            [](const nexus::nal::Formula&) { return true; },
            [](const nexus::nal::Formula&) { return true; }),
        remote(&node_a, "b", nullptr) {
    authority_service.AddAuthority(&always_yes);
    node_a.Connect("b");
  }

  nexus::net::Transport transport;
  nexus::net::NetNode node_a, node_b;
  nexus::net::CertificateExchange importer, pusher;
  nexus::kernel::ProcessId prover;
  nexus::net::AuthorityService authority_service;
  nexus::core::LambdaAuthority always_yes;
  nexus::net::RemoteAuthority remote;
};

EstablishedPair& P() {
  static EstablishedPair pair;
  return pair;
}

void BM_CertificateRoundTrip(benchmark::State& state) {
  EstablishedPair& p = P();
  uint64_t i = 0;
  for (auto _ : state) {
    // A fresh statement each time so import is never the idempotent no-op.
    auto label = H().nexus_b.engine().Say(p.prover, "bench" + std::to_string(i++) + "()");
    auto shipped = p.pusher.PushLabel("a", p.prover, *label);
    benchmark::DoNotOptimize(shipped);
    if (!shipped.ok()) {
      state.SkipWithError("certificate push failed");
      return;
    }
  }
}
BENCHMARK(BM_CertificateRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_RemoteAuthorityQuery(benchmark::State& state) {
  EstablishedPair& p = P();
  nexus::nal::Formula statement = *nexus::nal::ParseFormula("Session says sessionActive(u)");
  for (auto _ : state) {
    bool vouched = p.remote.VouchOne(statement, /*timeout_us=*/1000000);
    benchmark::DoNotOptimize(vouched);
    if (!vouched) {
      state.SkipWithError("remote authority denied");
      return;
    }
  }
}
BENCHMARK(BM_RemoteAuthorityQuery)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------ mesh sweep

// N chain-pinned instances on one lossy fabric: trust is seeded between
// ADJACENT nodes only and gossip carries it the rest of the way, so the
// convergence time measured here includes the transitive-trust walk.
struct MeshSweepWorld {
  MeshSweepWorld(size_t n, double drop, uint64_t transport_seed)
      : transport(transport_seed) {
    for (size_t i = 0; i < n; ++i) {
      Rng rng(9000 + 17 * i);
      tpms.push_back(std::make_unique<nexus::tpm::Tpm>(rng));
      nexuses.push_back(std::make_unique<nexus::core::Nexus>(
          tpms.back().get(), nexus::core::NexusOptions{.seed = 50 + i}));
    }
    for (size_t i = 0; i + 1 < n; ++i) {
      (void)nexuses[i]->RegisterPeer(Name(i + 1), tpms[i + 1]->endorsement_public_key());
      (void)nexuses[i + 1]->RegisterPeer(Name(i), tpms[i]->endorsement_public_key());
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        transport.SetLink(Name(i), Name(j),
                          nexus::net::LinkConfig{.latency_us = 200, .drop_rate = drop});
      }
    }
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<nexus::net::NetNode>(nexuses[i].get(), &transport,
                                                            Name(i)));
      meshes.push_back(std::make_unique<nexus::net::mesh::MeshNode>(nodes.back().get()));
    }
  }

  static nexus::net::NodeId Name(size_t i) { return "n" + std::to_string(i); }

  nexus::net::Transport transport;
  std::vector<std::unique_ptr<nexus::tpm::Tpm>> tpms;
  std::vector<std::unique_ptr<nexus::core::Nexus>> nexuses;
  std::vector<std::unique_ptr<nexus::net::NetNode>> nodes;
  std::vector<std::unique_ptr<nexus::net::mesh::MeshNode>> meshes;
};

struct MeshSweepResult {
  size_t nodes = 0;
  double drop = 0.0;
  bool converged = false;
  size_t converge_rounds = 0;
  uint64_t converge_sim_us = 0;
  size_t quorum_k = 0;
  size_t vouch_attempts = 0;
  size_t vouch_ok = 0;
  uint64_t vouch_sim_us_mean = 0;
};

// Advances the simulated clock by `us` without touching mesh state: the
// clock only moves when a message delivers, so ship one throwaway message
// across a dedicated link with exactly that latency.
struct NullSink : nexus::net::Endpoint {
  void OnMessage(const nexus::net::Message&) override {}
};

void AdvanceSimClock(nexus::net::Transport& transport, uint64_t us) {
  static NullSink sink;
  transport.Attach("bench_clockhand", &sink);
  transport.SetLink("bench_ticker", "bench_clockhand",
                    nexus::net::LinkConfig{/*latency_us=*/us, /*drop_rate=*/0.0});
  (void)transport.Send(nexus::net::Message{"bench_ticker", "bench_clockhand",
                                           transport.AllocateChannelId(), "tick", {}});
  transport.DeliverAll();
}

MeshSweepResult RunMeshConfig(size_t n, double drop) {
  MeshSweepResult result;
  result.nodes = n;
  result.drop = drop;
  MeshSweepWorld w(n, drop, /*transport_seed=*/1000 + n);

  uint64_t t_start = w.transport.now_us();
  // Joins may lose their handshake or push under drop; anti-entropy below
  // is what guarantees progress, so one retried attempt each is enough.
  for (size_t i = 1; i < n; ++i) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      if (w.meshes[i]->Join(MeshSweepWorld::Name(i - 1)).ok()) {
        break;
      }
    }
    w.transport.DeliverAll();
  }
  const size_t max_rounds = 400;
  for (size_t round = 1; round <= max_rounds; ++round) {
    for (auto& mesh : w.meshes) {
      mesh->AntiEntropy();
    }
    w.transport.DeliverAll();
    bool converged = true;
    for (auto& mesh : w.meshes) {
      converged = converged && mesh->Digest() == w.meshes[0]->Digest() &&
                  mesh->registry().peer_count() == n;
    }
    if (converged) {
      result.converged = true;
      result.converge_rounds = round;
      result.converge_sim_us = w.transport.now_us() - t_start;
      break;
    }
  }
  if (!result.converged) {
    return result;
  }

  // Majority quorum over every other node's always-yes session authority.
  nexus::core::LambdaAuthority always_yes([](const nexus::nal::Formula&) { return true; },
                                          [](const nexus::nal::Formula&) { return true; });
  std::vector<std::unique_ptr<nexus::net::AuthorityService>> services;
  std::vector<std::unique_ptr<nexus::net::RemoteAuthority>> remotes;
  for (size_t i = 1; i < n; ++i) {
    services.push_back(std::make_unique<nexus::net::AuthorityService>(w.nodes[i].get()));
    services.back()->AddAuthority(&always_yes);
    remotes.push_back(std::make_unique<nexus::net::RemoteAuthority>(
        w.nodes[0].get(), MeshSweepWorld::Name(i), nullptr));
  }
  nexus::net::mesh::QuorumPolicy policy;
  policy.quorum = (n - 1) / 2 + 1;
  result.quorum_k = policy.quorum;
  nexus::net::mesh::QuorumAuthority quorum(&w.transport, policy);
  for (auto& remote : remotes) {
    quorum.AddMember(remote.get());
  }

  nexus::nal::Formula statement =
      *nexus::nal::ParseFormula("Session says sessionActive(bench)");
  // One uncounted warm-up: convergence under loss can leave channels
  // half-established (the responder missed the final auth), and the first
  // data message is what triggers the re-ack heal — at the cost of that
  // query. Measured attempts then run on healed channels, spaced past the
  // backoff window so a member sidelined by an unlucky drop returns (the
  // simulated clock only moves on deliveries, so back-to-back queries
  // would pin sidelined members in backoff forever).
  (void)quorum.VouchOne(statement, /*timeout_us=*/50000);
  // Deny-on-no-quorum is the SAFE answer under loss, not a failure of the
  // mesh: with a 1-of-1 or 2-of-3 quorum a single dropped message denies
  // correctly. Availability comes from the caller retrying, so each
  // measured query gets up to 3 tries (clock-spaced past backoff) and the
  // latency recorded is the successful try's.
  const size_t kVouchIters = 5;
  const int kTriesPerQuery = 3;
  uint64_t total_us = 0;
  for (size_t i = 0; i < kVouchIters; ++i) {
    for (int attempt = 0; attempt < kTriesPerQuery; ++attempt) {
      AdvanceSimClock(w.transport, policy.backoff_us + 50000);
      uint64_t t0 = w.transport.now_us();
      bool ok = quorum.VouchOne(statement, /*timeout_us=*/50000);
      if (ok) {
        ++result.vouch_ok;
        total_us += w.transport.now_us() - t0;
        break;
      }
    }
  }
  result.vouch_attempts = kVouchIters;
  result.vouch_sim_us_mean = result.vouch_ok > 0 ? total_us / result.vouch_ok : 0;
  return result;
}

int RunMeshSweep(const char* out_path) {
  const size_t kNodeCounts[] = {2, 4, 8, 16};
  const double kDropRates[] = {0.0, 0.01, 0.05};
  std::vector<MeshSweepResult> results;
  bool ok = true;
  for (size_t n : kNodeCounts) {
    for (double drop : kDropRates) {
      MeshSweepResult r = RunMeshConfig(n, drop);
      std::printf("mesh n=%zu drop=%.2f converged=%d rounds=%zu sim_us=%llu "
                  "quorum_k=%zu vouch=%zu/%zu mean_us=%llu\n",
                  r.nodes, r.drop, r.converged ? 1 : 0, r.converge_rounds,
                  static_cast<unsigned long long>(r.converge_sim_us), r.quorum_k,
                  r.vouch_ok, r.vouch_attempts,
                  static_cast<unsigned long long>(r.vouch_sim_us_mean));
      ok = ok && r.converged && r.vouch_ok == r.vouch_attempts;
      results.push_back(r);
    }
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"mesh_federation\",\n");
  std::fprintf(f, "  \"link_latency_us\": 200,\n  \"all_converged\": %s,\n",
               ok ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const MeshSweepResult& r = results[i];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"drop\": %.2f, \"converged\": %s, "
                 "\"converge_rounds\": %zu, \"converge_sim_us\": %llu, "
                 "\"quorum_k\": %zu, \"vouch_ok\": %zu, \"vouch_attempts\": %zu, "
                 "\"vouch_sim_us_mean\": %llu}%s\n",
                 r.nodes, r.drop, r.converged ? "true" : "false", r.converge_rounds,
                 static_cast<unsigned long long>(r.converge_sim_us), r.quorum_k,
                 r.vouch_ok, r.vouch_attempts,
                 static_cast<unsigned long long>(r.vouch_sim_us_mean),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  char arg0_default[] = "benchmark";
  char* args_default = arg0_default;
  if (!argv) {
    argc = 1;
    argv = &args_default;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  int rc = 0;
  if (const char* out = std::getenv("NEXUS_MESH_OUT")) {
    rc = RunMeshSweep(out);
  }
  ::nexus::metrics::DumpRegistryToEnvPath();
  return rc;
}

// Multi-threaded authorization sweep: worker threads × remote fraction.
//
// The concurrent frontend's two regimes, measured separately:
//
//   BM_mt_cached_authorize (threads sweep, 0% remote): every tuple is
//     pre-warmed into the sharded decision cache and each worker drives
//     its OWN subject, so lookups land on distinct shards and the hit
//     path scales with cores — the ROADMAP's contention win. On an
//     N-core machine expect near-linear items_per_second growth from
//     Threads(1) to Threads(N); on fewer cores the threads timeshare and
//     the numbers flatten (the acceptance sweep runs on >=8 cores).
//
//   BM_mt_miss_authorize (threads sweep, 0% HIT): the decision cache is
//     DISABLED in this world, so every operation is a full miss through
//     the engine — goal lookup, state-plane snapshot, stripe lock, guard
//     evaluation. Each worker drives its own subject, i.e. its own engine
//     stripe: this is the path the read-write split parallelized (under
//     the PR-3 monitor it serialized on one recursive mutex regardless of
//     thread count). Expect miss throughput to scale with cores like the
//     cached sweep does, just at a higher per-op cost.
//
//   BM_mt_authorize_batch (threads × remote%): cache-miss batches flow
//     through the engine's striped core; remote-leaning batches
//     additionally pay attested Vouch round trips (issued as
//     overlapping futures by the async guard pipeline, overlapping across
//     subjects thanks to the stripes).
//
// Subjects, objects, goals, and proofs are all built once (magic-static
// World) on whichever thread arrives first; benchmark threads then only
// touch thread-safe surfaces (Kernel::Authorize/AuthorizeBatch).
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <memory>
#include <string>
#include <vector>

#include "core/nexus.h"
#include "nal/parser.h"
#include "net/node.h"
#include "net/remote_authority.h"
#include "net/transport.h"
#include "tpm/tpm.h"

namespace {

constexpr int kMaxThreads = 8;
constexpr size_t kObjectsPerSubject = 64;

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
    session = std::make_unique<nexus::core::LambdaAuthority>(
        [](const nexus::nal::Formula& f) {
          return f->kind() == nexus::nal::FormulaKind::kSays &&
                 f->speaker().base() == "Session";
        },
        [](const nexus::nal::Formula&) { return true; });
    service->AddAuthority(session.get());
    remote = std::make_unique<nexus::net::RemoteAuthority>(node_a.get(), "b", nullptr);
    nexus_a.guard().AddRemoteAuthority(remote.get());
    nexus_a.guard().set_remote_query_timeout_us(100000);

    owner = *nexus_a.CreateProcess("owner", nexus::ToBytes("o"));
    nexus_a.engine().SayAs(nexus::nal::Principal("Certifier"), F("ok(subject)"));
    nexus::nal::Formula local_goal = F("Certifier says ok(subject)");

    // One subject per potential worker thread: distinct subjects hash to
    // distinct decision-cache shards.
    for (int t = 0; t < kMaxThreads; ++t) {
      nexus::kernel::ProcessId subject =
          *nexus_a.CreateProcess("worker" + std::to_string(t), nexus::ToBytes("w"));
      subjects.push_back(subject);
      cached_requests.emplace_back();
      for (size_t o = 0; o < kObjectsPerSubject; ++o) {
        std::string object = "t" + std::to_string(t) + ":l:" + std::to_string(o);
        nexus_a.engine().RegisterObject(object, owner, nexus::kernel::kKernelProcessId);
        nexus_a.engine().SetGoal(owner, "use", object, local_goal);
        nexus_a.engine().SetProof(subject, "use", object,
                                  nexus::nal::proof::Premise(local_goal));
        cached_requests[t].push_back(
            nexus::kernel::AuthzRequest::Of(subject, "use", object));
      }
      // Warm the decision cache: the cached sweep measures pure hits.
      for (const auto& request : cached_requests[t]) {
        nexus_a.kernel().Authorize(request);
      }
    }
  }

  // Per-thread tuples for the batch sweep, `remote_pct`% of which lean on
  // the remote authority (never decision-cacheable, so every iteration
  // re-runs the engine + guard pipeline).
  const std::vector<nexus::kernel::AuthzRequest>& BatchTuples(int thread, int remote_pct) {
    auto key = std::make_pair(thread, remote_pct);
    std::lock_guard<std::mutex> lock(batch_mu);
    auto it = batch_requests.find(key);
    if (it != batch_requests.end()) {
      return it->second;
    }
    std::vector<nexus::kernel::AuthzRequest>& requests = batch_requests[key];
    for (size_t i = 0; i < kObjectsPerSubject; ++i) {
      bool is_remote = i * 100 < kObjectsPerSubject * static_cast<size_t>(remote_pct);
      std::string object = "t" + std::to_string(thread) + (is_remote ? ":r:" : ":b:") +
                           std::to_string(remote_pct) + ":" + std::to_string(i);
      nexus_a.engine().RegisterObject(object, owner, nexus::kernel::kKernelProcessId);
      if (is_remote) {
        nexus::nal::Formula statement =
            F("Session says active(u" + std::to_string(thread) + "_" + std::to_string(i) + ")");
        nexus_a.engine().SetGoal(owner, "use", object, statement);
        nexus_a.engine().SetProof(subjects[thread], "use", object,
                                  nexus::nal::proof::Authority(statement));
      } else {
        nexus::nal::Formula goal = F("Certifier says ok(subject)");
        nexus_a.engine().SetGoal(owner, "use", object, goal);
        nexus_a.engine().SetProof(subjects[thread], "use", object,
                                  nexus::nal::proof::Premise(goal));
      }
      requests.push_back(nexus::kernel::AuthzRequest::Of(subjects[thread], "use", object));
    }
    return requests;
  }

  nexus::Rng rng_a, rng_b;
  nexus::tpm::Tpm tpm_a, tpm_b;
  nexus::core::Nexus nexus_a, nexus_b;
  nexus::net::Transport transport;
  std::unique_ptr<nexus::net::NetNode> node_a, node_b;
  std::unique_ptr<nexus::net::AuthorityService> service;
  std::unique_ptr<nexus::core::LambdaAuthority> session;
  std::unique_ptr<nexus::net::RemoteAuthority> remote;
  nexus::kernel::ProcessId owner = 0;
  std::vector<nexus::kernel::ProcessId> subjects;
  std::vector<std::vector<nexus::kernel::AuthzRequest>> cached_requests;
  std::mutex batch_mu;
  std::map<std::pair<int, int>, std::vector<nexus::kernel::AuthzRequest>> batch_requests;
};

World& W() {
  // Magic static: the first benchmark thread constructs (single-threaded),
  // every other thread blocks until it is ready.
  static World* world = new World();
  return *world;
}

// A second, smaller world with the decision cache OFF: every Authorize is
// a full engine miss. Local-only (premise proofs) — the remote-miss
// regime is covered by the batch sweep above.
struct MissWorld {
  MissWorld() : rng(303), tpm(rng), nexus(&tpm, nexus::core::NexusOptions{.seed = 3}) {
    nexus.kernel().set_decision_cache_enabled(false);
    owner = *nexus.CreateProcess("owner", nexus::ToBytes("o"));
    nexus.engine().SayAs(nexus::nal::Principal("Certifier"), F("ok(subject)"));
    nexus::nal::Formula goal = F("Certifier says ok(subject)");
    for (int t = 0; t < kMaxThreads; ++t) {
      nexus::kernel::ProcessId subject =
          *nexus.CreateProcess("misser" + std::to_string(t), nexus::ToBytes("m"));
      requests.emplace_back();
      for (size_t o = 0; o < kObjectsPerSubject; ++o) {
        std::string object = "m" + std::to_string(t) + ":" + std::to_string(o);
        nexus.engine().RegisterObject(object, owner, nexus::kernel::kKernelProcessId);
        nexus.engine().SetGoal(owner, "use", object, goal);
        nexus.engine().SetProof(subject, "use", object, nexus::nal::proof::Premise(goal));
        requests[t].push_back(nexus::kernel::AuthzRequest::Of(subject, "use", object));
      }
    }
  }

  nexus::Rng rng;
  nexus::tpm::Tpm tpm;
  nexus::core::Nexus nexus;
  nexus::kernel::ProcessId owner = 0;
  std::vector<std::vector<nexus::kernel::AuthzRequest>> requests;
};

MissWorld& MW() {
  static MissWorld* world = new MissWorld();
  return *world;
}

// Pure decision-cache hits, one shard per worker: the scaling headline.
void BM_mt_cached_authorize(benchmark::State& state) {
  World& w = W();
  const auto& requests = w.cached_requests[state.thread_index() % kMaxThreads];
  for (auto _ : state) {
    for (const auto& request : requests) {
      benchmark::DoNotOptimize(w.nexus_a.kernel().Authorize(request));
    }
  }
  state.SetItemsProcessed(state.iterations() * requests.size());
}

// Miss-heavy sweep (0% hit): the decision cache is disabled, so every
// operation runs the whole engine miss path under the subject's stripe.
void BM_mt_miss_authorize(benchmark::State& state) {
  MissWorld& w = MW();
  const auto& requests = w.requests[state.thread_index() % kMaxThreads];
  for (auto _ : state) {
    for (const auto& request : requests) {
      benchmark::DoNotOptimize(w.nexus.kernel().Authorize(request));
    }
  }
  state.SetItemsProcessed(state.iterations() * requests.size());
}

// Batched misses through the striped engine + async guard pipeline.
void BM_mt_authorize_batch(benchmark::State& state) {
  World& w = W();
  int remote_pct = static_cast<int>(state.range(0));
  const auto& requests =
      w.BatchTuples(state.thread_index() % kMaxThreads, remote_pct);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.nexus_a.kernel().AuthorizeBatch(requests));
  }
  state.SetItemsProcessed(state.iterations() * requests.size());
}

BENCHMARK(BM_mt_cached_authorize)->ThreadRange(1, kMaxThreads)->UseRealTime();
BENCHMARK(BM_mt_miss_authorize)->ThreadRange(1, kMaxThreads)->UseRealTime();
BENCHMARK(BM_mt_authorize_batch)
    ->ArgsProduct({{0, 25, 100}})
    ->ArgNames({"remote%"})
    ->ThreadRange(1, 4)
    ->UseRealTime();

}  // namespace

NEXUS_BENCHMARK_MAIN();

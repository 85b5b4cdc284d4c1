// End-to-end benchmark driver: one named workload per process.
//
// Boots a Nexus with one application scenario, drives it from two
// closed-loop client threads (each blocks on its reply, as a system call
// does, with no think time), checks every reply against an oracle, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//   bench_e2e --selftest          oracle self-test over every workload
//   bench_e2e --benchmark_...     smoke pass: every workload, 0.3 s windows
//
// --trace 0 reports the end-to-end metrics: set-up time (median of several
// boots), then a warm-up of one pass over each client's request stream,
// after which peak RSS is read, then about one measured window per second,
// whose medians are reported. --trace 1 reports the per-layer metrics: it alternates untraced
// and traced windows, and in traced windows records spans around every
// client call and engine upcall while the TraceAuditor checks the flight
// recorder. Workloads, metrics and the layer map: e2ebench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/scenario_adapters.h"
#include "core/nexus.h"
#include "harness/auditor.h"
#include "harness/zipf.h"
#include "kernel/kernel.h"
#include "kernel/trace.h"
#include "latency.h"
#include "spans.h"
#include "tpm/tpm.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace e2e {
namespace {

namespace apps = nexus::apps;
namespace kernel = nexus::kernel;
using Clock = std::chrono::steady_clock;
using nexus::Status;

constexpr size_t kClients = 2;
// Boot and scenario set-up use one fixed seed, so every run sets up the
// same system; --seed drives only the clients' request streams.
constexpr uint64_t kBootSeed = 42;
// Requests are generated before any clock starts and replayed cyclically.
// 2^17 per client is four times the largest working set (cold_miss's 32k
// tuples), so the replay does not shorten reuse distances in the cache.
constexpr size_t kStreamLength = size_t{1} << 17;
constexpr size_t kBatch = 8;  // Messages per CallMany submission.
constexpr uint64_t kUnbounded = ~uint64_t{0};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

// ------------------------------------------------------------- workloads

enum class Verb : uint8_t { kAuthorize, kRead, kReadMany, kWrite, kFlip, kChurn };
constexpr size_t kVerbCount = 6;

struct WorkloadSpec {
  const char* name;
  const char* scenario;  // apps::ScenarioByName.
  size_t holders;        // Subject ranks [0, holders) hold proofs; the rest are virtual.
  size_t virtuals;
  size_t objects;
  size_t guarded;        // Objects [0, guarded) are registered with a goal.
  double subject_theta;  // Zipf skew; 0 = uniform.
  double object_theta;
  std::array<uint32_t, kVerbCount> weights;  // Indexed by Verb.

  bool flips() const { return weights[static_cast<size_t>(Verb::kFlip)] > 0; }
};

// The reasons each workload exists are in README.md; the shapes are fixed
// by name so a later change cannot quietly retune one.
constexpr WorkloadSpec kWorkloads[] = {
    {"hot_authz", "fauxbook", 16, 240, 64, 4, 0.99, 0.99, {60, 40, 0, 0, 0, 0}},
    {"cold_miss", "trudocs", 1024, 0, 32, 32, 0.0, 0.0, {60, 40, 0, 0, 0, 0}},
    {"ipc_interposed", "ddrm", 16, 240, 64, 4, 0.99, 0.99, {0, 0, 75, 25, 0, 0}},
    {"policy_churn", "fauxbook", 16, 240, 64, 4, 0.99, 0.99, {55, 20, 0, 10, 10, 5}},
    {"federated", "federation", 16, 240, 64, 4, 0.99, 0.99, {55, 20, 0, 10, 10, 5}},
};

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------- oracle

// The verdict every (subject, object, verb) tuple must get while its
// object's goal is fixed for the run. Holder reads on a guarded object of a
// goal-flipping workload have no fixed verdict; the traced run's
// TraceAuditor checks those against the mutation log instead.
class Oracle {
 public:
  Oracle(const WorkloadSpec& spec, bool goals_fixed, bool inverted = false)
      : spec_(spec), goals_fixed_(goals_fixed), inverted_(inverted) {}

  // True when `status` is a verdict this oracle accepts. A deny must be
  // PermissionDenied; any other error is a failure whatever the tuple.
  bool Accepts(bool holder, size_t object, bool write, const Status& status) const {
    if (!status.ok() && status.code() != nexus::ErrorCode::kPermissionDenied) {
      return false;
    }
    bool allow = true;
    if (object < spec_.guarded) {
      if (write) {
        allow = false;  // No write goal: the bootstrap policy admits only the owner.
      } else if (!holder) {
        allow = false;  // A virtual subject holds no proof.
      } else if (!goals_fixed_) {
        return true;
      }
    }
    return status.ok() == (allow != inverted_);
  }

  bool AcceptsReply(bool holder, size_t object, bool write, const kernel::IpcReply& reply) const {
    if (!Accepts(holder, object, write, reply.status)) {
      return false;
    }
    if (!reply.status.ok()) {
      return true;
    }
    // The guarded server answers an allowed request with the scalar 1.
    nexus::Result<uint64_t> flag = reply.ArgU64(0);
    return flag.ok() && *flag == 1;
  }

 private:
  const WorkloadSpec& spec_;
  bool goals_fixed_;
  bool inverted_;
};

// ----------------------------------------------------------------- world

struct World {
  // Declaration order is teardown order reversed: the scenario goes first,
  // then the Nexus, then the TPM it was booted on.
  std::unique_ptr<nexus::tpm::Tpm> tpm;
  std::unique_ptr<nexus::core::Nexus> nexus;
  std::unique_ptr<apps::WorkloadScenario> scenario;
};

nexus::Result<World> Boot(const WorkloadSpec& spec) {
  nexus::Result<apps::ScenarioSpec> scenario_spec = apps::ScenarioByName(spec.scenario);
  if (!scenario_spec.ok()) {
    return scenario_spec.status();
  }
  World world;
  nexus::Rng rng(kBootSeed);
  world.tpm = std::make_unique<nexus::tpm::Tpm>(rng);
  world.nexus = std::make_unique<nexus::core::Nexus>(world.tpm.get());
  apps::WorkloadScenario::Params params;
  params.objects = spec.objects;
  params.audited = spec.guarded;
  params.proof_holders = spec.holders;
  nexus::Result<std::unique_ptr<apps::WorkloadScenario>> scenario =
      apps::WorkloadScenario::Create(world.nexus.get(), *scenario_spec, params);
  if (!scenario.ok()) {
    return scenario.status();
  }
  world.scenario = std::move(*scenario);
  return nexus::Result<World>(std::move(world));
}

// Forwards every engine upcall to the engine it replaces and, on a client
// thread inside a traced window, times it as a child span of the client's
// call. Installed after set-up and before any client runs; restores the
// original engine when destroyed.
class TimedEngine : public kernel::AuthorizationEngine {
 public:
  explicit TimedEngine(kernel::Kernel* kernel) : kernel_(kernel), inner_(kernel->engine()) {
    kernel_->set_engine(this);
  }
  ~TimedEngine() override { kernel_->set_engine(inner_); }

  TimedEngine(const TimedEngine&) = delete;
  TimedEngine& operator=(const TimedEngine&) = delete;

  kernel::AuthzDecision Authorize(const kernel::AuthzRequest& request) override {
    SpanLog* log = t_span_log;
    if (log == nullptr) {
      return inner_->Authorize(request);
    }
    log->Begin(SpanName::kEngine, NowNs());
    kernel::AuthzDecision decision = inner_->Authorize(request);
    log->End(NowNs());
    return decision;
  }

  std::vector<kernel::AuthzDecision> AuthorizeBatch(
      std::span<const kernel::AuthzRequest> requests) override {
    SpanLog* log = t_span_log;
    if (log == nullptr) {
      return inner_->AuthorizeBatch(requests);
    }
    log->Begin(SpanName::kEngine, NowNs());
    std::vector<kernel::AuthzDecision> decisions = inner_->AuthorizeBatch(requests);
    log->End(NowNs());
    return decisions;
  }

 private:
  kernel::Kernel* kernel_;
  kernel::AuthorizationEngine* inner_;
};

// ---------------------------------------------------------------- client

struct Op {
  kernel::ProcessId subject = 0;
  uint32_t object = 0;  // Index into the scenario's objects.
  Verb verb = Verb::kAuthorize;
  bool holder = false;
  uint16_t flip = 0;  // Guarded object whose goal a kFlip alternates.
};

std::vector<Op> GenerateStream(const WorkloadSpec& spec, const apps::WorkloadScenario& scenario,
                               uint64_t seed, size_t client) {
  nexus::Rng rng(seed * 0x9E3779B97F4A7C15ull + client + 1);
  const nexus::harness::ZipfSampler subjects(spec.holders + spec.virtuals, spec.subject_theta);
  const nexus::harness::ZipfSampler objects(spec.objects, spec.object_theta);
  uint64_t total_weight = 0;
  for (uint32_t weight : spec.weights) {
    total_weight += weight;
  }
  std::vector<Op> stream(kStreamLength);
  for (Op& op : stream) {
    uint64_t draw = rng.NextBelow(total_weight);
    size_t verb = 0;
    while (draw >= spec.weights[verb]) {
      draw -= spec.weights[verb];
      ++verb;
    }
    const uint64_t rank = subjects.Sample(rng);
    op.verb = static_cast<Verb>(verb);
    op.subject = scenario.SubjectAt(rank);
    op.holder = rank < spec.holders;
    op.object = static_cast<uint32_t>(objects.Sample(rng));
    op.flip = static_cast<uint16_t>(rng.NextBelow(spec.guarded));
  }
  return stream;
}

struct ClientStats {
  LatencyHistogram latency;  // Per submission, in ns.
  uint64_t requests = 0;     // Authorization decisions delivered.
  uint64_t failures = 0;
  std::array<uint64_t, kVerbCount> verbs{};
};

SpanName SpanFor(Verb verb) {
  switch (verb) {
    case Verb::kAuthorize:
      return SpanName::kAuthorize;
    case Verb::kRead:
    case Verb::kWrite:
      return SpanName::kCall;
    case Verb::kReadMany:
      return SpanName::kCallMany;
    case Verb::kFlip:
      return SpanName::kSetGoal;
    case Verb::kChurn:
      return SpanName::kLifecycle;
  }
  return SpanName::kAuthorize;
}

// One closed-loop caller. Its position in the request stream persists
// across windows; each window runs it on a fresh thread.
class Client {
 public:
  Client(const Oracle& oracle, World& world, size_t index, std::vector<Op> stream)
      : oracle_(oracle),
        kernel_(world.nexus->kernel()),
        scenario_(*world.scenario),
        index_(index),
        stream_(std::move(stream)),
        batch_(kBatch),
        replies_(kBatch) {}

  // Issues requests until `stop` or until `limit` have been issued.
  void Run(std::stop_token stop, uint64_t limit, ClientStats* stats, SpanLog* spans) {
    t_span_log = spans;
    for (uint64_t issued = 0; issued < limit && !stop.stop_requested(); ++issued) {
      const Op& op = stream_[cursor_];
      cursor_ = (cursor_ + 1) % stream_.size();
      uint32_t requests = 0;
      const uint64_t start = NowNs();
      if (spans != nullptr) {
        spans->Begin(SpanFor(op.verb), start);
      }
      const uint32_t failures = Execute(op, &requests);
      const uint64_t end = NowNs();
      if (spans != nullptr) {
        spans->End(end);
      }
      stats->latency.Record(end - start);
      stats->requests += requests;
      stats->failures += failures;
      ++stats->verbs[static_cast<size_t>(op.verb)];
    }
    t_span_log = nullptr;
  }

  // Issues one request; returns how many of its `*requests` decisions the
  // oracle rejected.
  uint32_t Execute(const Op& op, uint32_t* requests) {
    const std::vector<kernel::ObjectId>& objects = scenario_.objects();
    switch (op.verb) {
      case Verb::kAuthorize: {
        *requests = 1;
        const Status status = kernel_.Authorize(
            kernel::AuthzRequest{op.subject, scenario_.read_op(), objects[op.object]});
        return oracle_.Accepts(op.holder, op.object, false, status) ? 0 : 1;
      }
      case Verb::kRead:
      case Verb::kWrite: {
        *requests = 1;
        const bool write = op.verb == Verb::kWrite;
        kernel::IpcMessage message =
            kernel::IpcMessage::Of(write ? scenario_.write_op() : scenario_.read_op());
        message.AddObject(objects[op.object]);
        const kernel::IpcReply reply = kernel_.Call(op.subject, scenario_.service_port(), message);
        return oracle_.AcceptsReply(op.holder, op.object, write, reply) ? 0 : 1;
      }
      case Verb::kReadMany: {
        *requests = kBatch;
        for (size_t j = 0; j < kBatch; ++j) {
          batch_[j] = kernel::IpcMessage::Of(scenario_.read_op());
          batch_[j].AddObject(objects[(op.object + j) % objects.size()]);
        }
        kernel_.CallMany(op.subject, scenario_.service_port(), batch_, replies_);
        uint32_t failures = 0;
        for (size_t j = 0; j < kBatch; ++j) {
          if (!oracle_.AcceptsReply(op.holder, (op.object + j) % objects.size(), false,
                                    replies_[j])) {
            ++failures;
          }
        }
        return failures;
      }
      case Verb::kFlip:
        *requests = 1;
        return scenario_.FlipGoal(op.flip).ok() ? 0 : 1;
      case Verb::kChurn: {
        *requests = 1;
        const std::string name = "e2e_" + std::to_string(index_) + "_" + std::to_string(++churned_);
        return scenario_.Churn(name).ok() ? 0 : 1;
      }
    }
    *requests = 1;
    return 1;
  }

 private:
  const Oracle& oracle_;
  kernel::Kernel& kernel_;
  apps::WorkloadScenario& scenario_;
  size_t index_;
  std::vector<Op> stream_;
  size_t cursor_ = 0;
  uint64_t churned_ = 0;
  std::vector<kernel::IpcMessage> batch_;
  std::vector<kernel::IpcReply> replies_;
};

struct Window {
  double seconds = 0;
  ClientStats stats;  // Merged over clients.
};

// Runs every client on its own thread, then joins them. With `ops` set, each
// client issues exactly that many requests; otherwise each runs for
// `seconds` and is then stopped. `spans` (one log per client) turns on span
// recording.
Window RunWindow(std::vector<Client>& clients, double seconds, std::vector<SpanLog>* spans,
                 uint64_t ops = kUnbounded) {
  std::vector<ClientStats> stats(clients.size());
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(clients.size());
    for (size_t i = 0; i < clients.size(); ++i) {
      SpanLog* log = spans != nullptr ? &(*spans)[i] : nullptr;
      threads.emplace_back([&clients, &stats, log, i, ops](std::stop_token stop) {
        clients[i].Run(stop, ops, &stats[i], log);
      });
    }
    if (ops != kUnbounded) {
      for (std::jthread& thread : threads) {
        thread.join();
      }
    } else {
      std::this_thread::sleep_until(start + std::chrono::duration<double>(seconds));
      for (std::jthread& thread : threads) {
        thread.request_stop();
      }
    }
  }  // Joins.
  Window window;
  window.seconds = SecondsSince(start);
  for (const ClientStats& s : stats) {
    window.stats.latency.Merge(s.latency);
    window.stats.requests += s.requests;
    window.stats.failures += s.failures;
    for (size_t v = 0; v < kVerbCount; ++v) {
      window.stats.verbs[v] += s.verbs[v];
    }
  }
  return window;
}

// -------------------------------------------------------------- counters

using Counters = std::map<std::string, int64_t>;

Counters ReadCounters() {
  Counters out;
  for (const auto& [name, value] : nexus::metrics::Registry::Global().TakeSnapshot()) {
    if (value.kind == nexus::metrics::InstrumentValue::Kind::kCounter) {
      out[name] = value.value;
    }
  }
  return out;
}

void AddDelta(const Counters& before, const Counters& after, Counters* total) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*total)[name] += value - (it == before.end() ? 0 : it->second);
  }
}

// ------------------------------------------------------------------- run

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunOptions {
  uint64_t seed = 1;
  bool traced = false;
  uint64_t warmup_ops = kStreamLength;  // Requests per client.
  double window_s = 1;
  // Untraced: measured windows. Traced: untraced/traced window pairs.
  size_t windows = 5;
  std::string spans_out;  // Traced only; empty = do not write.
};

struct RunResult {
  Status status;  // Not OK when the run could not be carried out.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

RunOptions OptionsFor(double seconds, bool traced, uint64_t seed) {
  RunOptions options;
  options.seed = seed;
  options.traced = traced;
  // About one second per window: the reported value is a median over
  // windows, which a few slow seconds on a shared host cannot move.
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(std::lround(seconds)));
  options.windows = traced ? std::max<size_t>(1, windows / 2) : windows;
  options.window_s = seconds / static_cast<double>(traced ? 2 * options.windows : windows);
  return options;
}

// Enables the flight recorder and mutation log for one traced run and
// turns both off again on every exit path.
class ScopedAudit {
 public:
  explicit ScopedAudit(bool enable) : enabled_(enable) {
    if (enabled_) {
      kernel::FlightRecorder::Global().Clear();
      kernel::MutationLog::Global().Clear();
      kernel::FlightRecorder::Global().set_enabled(true);
      kernel::MutationLog::Global().set_enabled(true);
    }
  }
  ~ScopedAudit() {
    if (enabled_) {
      kernel::FlightRecorder::Global().set_enabled(false);
      kernel::MutationLog::Global().set_enabled(false);
    }
  }
  ScopedAudit(const ScopedAudit&) = delete;
  ScopedAudit& operator=(const ScopedAudit&) = delete;

 private:
  bool enabled_;
};

Status WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return nexus::Internal("cannot open " + path + " for writing");
  }
  for (const SpanLog& log : logs) {
    for (const SpanRecord& r : log.kept()) {
      file << "{\"id\": " << r.id << ", \"parent\": " << r.parent << ", \"name\": \""
           << kSpanNameText[static_cast<size_t>(r.name)] << "\", \"start\": " << r.start_ns
           << ", \"end\": " << r.end_ns << "}\n";
    }
  }
  file.flush();
  return file ? nexus::OkStatus() : nexus::Internal("short write to " + path);
}

std::vector<Metric> LayerMetrics(const std::vector<SpanLog>& logs, const Counters& d,
                                 double requests, double flips, double untraced_rps,
                                 double traced_rps,
                                 const nexus::harness::TraceAuditor::Report& audit) {
  struct Merged {
    LatencyHistogram duration;
    double total_ns = 0;
    double self_ns = 0;
    double count = 0;
  };
  std::array<Merged, kSpanNameCount> spans;
  double top_level_ns = 0;
  for (const SpanLog& log : logs) {
    for (size_t n = 0; n < kSpanNameCount; ++n) {
      const SpanLog::Totals& totals = log.totals(static_cast<SpanName>(n));
      spans[n].duration.Merge(totals.duration);
      spans[n].total_ns += static_cast<double>(totals.total_ns);
      spans[n].self_ns += static_cast<double>(totals.self_ns);
      spans[n].count += static_cast<double>(totals.count);
    }
    top_level_ns += static_cast<double>(log.top_level_ns());
  }
  auto quantile = [&](SpanName name, double q) {
    return spans[static_cast<size_t>(name)].duration.Quantile(q);
  };
  // Self time is reported as a mean: means add up along a call's layers,
  // quantiles do not.
  auto self = [&](SpanName name) {
    const Merged& m = spans[static_cast<size_t>(name)];
    return Ratio(m.self_ns, m.count);
  };
  auto counter = [&](const char* name) {
    auto it = d.find(name);
    return it == d.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double lookups = counter("cache.hits") + counter("cache.misses");
  const double misses = counter("engine.misses");
  const double checks = counter("guard.checks");
  const double ddrm = counter("ddrm.allowed") + counter("ddrm.denied");
  const double seen = static_cast<double>(audit.events_ingested + audit.events_dropped);
  const Merged& engine = spans[static_cast<size_t>(SpanName::kEngine)];
  return {
      {"kernel.authorize.p50_ns", quantile(SpanName::kAuthorize, 0.5), "ns"},
      {"kernel.authorize.p99_ns", quantile(SpanName::kAuthorize, 0.99), "ns"},
      {"kernel.authorize.self_ns", self(SpanName::kAuthorize), "ns"},
      {"kernel.call.p50_ns", quantile(SpanName::kCall, 0.5), "ns"},
      {"kernel.call.self_ns", self(SpanName::kCall), "ns"},
      {"kernel.callmany.p50_ns", quantile(SpanName::kCallMany, 0.5), "ns"},
      {"kernel.callmany.self_ns", self(SpanName::kCallMany), "ns"},
      {"kernel.cache.hit_ratio", Ratio(counter("cache.hits"), lookups), "ratio"},
      {"kernel.cache.lookups", lookups, "count"},
      {"kernel.cache.invalidations_per_flip",
       Ratio(counter("cache.subregion_invalidations"), flips), "count"},
      {"kernel.lifecycle.p50_ns", quantile(SpanName::kLifecycle, 0.5), "ns"},
      {"core.engine.calls", misses, "count"},
      {"core.engine.busy_s", engine.total_ns / 1e9, "s"},
      {"core.engine.p50_ns", quantile(SpanName::kEngine, 0.5), "ns"},
      {"core.engine.p99_ns", quantile(SpanName::kEngine, 0.99), "ns"},
      {"core.engine.default_policy_ratio", Ratio(counter("engine.default_policy"), misses),
       "ratio"},
      {"core.engine.verb_share", Ratio(engine.total_ns, top_level_ns), "ratio"},
      {"core.setgoal.p50_ns", quantile(SpanName::kSetGoal, 0.5), "ns"},
      {"core.setgoal.p99_ns", quantile(SpanName::kSetGoal, 0.99), "ns"},
      {"core.guard.checks", checks, "count"},
      {"core.guard.cache_hit_ratio", Ratio(counter("guard.cache_hits"), checks), "ratio"},
      {"nal.proof_checks", checks - counter("guard.cache_hits"), "count"},
      {"services.ddrm.allowed", counter("ddrm.allowed"), "count"},
      {"services.ddrm.denied", counter("ddrm.denied"), "count"},
      {"services.ddrm.per_request", Ratio(ddrm, requests), "ratio"},
      {"net.remote_authority.queries", counter("remote_authority.queries"), "count"},
      {"net.remote_authority.batch_round_trips", counter("remote_authority.batch_round_trips"),
       "count"},
      {"net.remote_authority.denied_timeout", counter("remote_authority.denied_timeout"),
       "count"},
      {"net.transport.sent", counter("transport.sent"), "count"},
      {"net.transport.bytes_carried", counter("transport.bytes_carried"), "bytes"},
      {"net.transport.dropped", counter("transport.dropped"), "count"},
      {"net.transport.msgs_per_miss", Ratio(counter("transport.sent"), misses), "ratio"},
      {"net.mesh.quorum.statements", counter("quorum_authority.statements"), "count"},
      {"net.mesh.quorum.member_rounds", counter("quorum_authority.member_rounds"), "count"},
      {"net.mesh.quorum.vouch_ratio",
       Ratio(counter("quorum_authority.vouched"), counter("quorum_authority.statements")),
       "ratio"},
      {"net.mesh.quorum.denied_no_quorum", counter("quorum_authority.denied_no_quorum"),
       "count"},
      {"harness.trace_overhead", 1.0 - Ratio(traced_rps, untraced_rps), "ratio"},
      {"harness.audit.verdicts_checked", static_cast<double>(audit.verdicts_checked), "count"},
      {"harness.audit.events_dropped_ratio",
       Ratio(static_cast<double>(audit.events_dropped), seen), "ratio"},
  };
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult result;
  // On before set-up in a traced run: set-up's goal and proof mutations
  // give the auditor its initial timeline.
  ScopedAudit audit_streams(options.traced);

  // An untraced run reports the median boot as setup_s: it boots at least
  // 5 times, more while the boots total under a second, and at most 15. A
  // traced run boots once.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::optional<World> world;
  do {
    world.reset();  // Untimed: only boots are measured.
    const Clock::time_point start = Clock::now();
    nexus::Result<World> booted = Boot(spec);
    setup_s.push_back(SecondsSince(start));
    setup_total_s += setup_s.back();
    if (!booted.ok()) {
      result.status = booted.status();
      return result;
    }
    world.emplace(std::move(*booted));
  } while (!options.traced && setup_s.size() < 15 &&
           (setup_s.size() < 5 || setup_total_s < 1.0));
  apps::WorkloadScenario& scenario = *world->scenario;
  kernel::Kernel& kernel = world->nexus->kernel();

  std::optional<nexus::harness::TraceAuditor> auditor;
  std::optional<TimedEngine> timed_engine;
  std::jthread harvester;
  if (options.traced) {
    nexus::harness::TraceAuditor::Config config;
    config.cache_shards = kernel.decision_cache().config().num_shards;
    config.cache_subregions = kernel.decision_cache().config().num_subregions;
    auditor.emplace(config);
    for (size_t i = 0; i < scenario.audited(); ++i) {
      auditor->AuditPair(scenario.read_op(), scenario.objects()[i], scenario.allow_goal_id(),
                         nexus::nal::kInvalidFormulaId, scenario.proof_holders());
    }
    if (scenario.interposed()) {
      auditor->RequireInterposed(scenario.service_port());
    }
    harvester = std::jthread([&auditor](std::stop_token stop) {
      while (!stop.stop_requested()) {
        auditor->Harvest();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    timed_engine.emplace(&kernel);
    // The recorder runs only inside traced windows; the mutation log stays
    // on throughout so the auditor's timeline has no gaps.
    kernel::FlightRecorder::Global().set_enabled(false);
  }

  const Oracle oracle(spec, /*goals_fixed=*/!spec.flips());
  std::vector<Client> clients;
  clients.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(oracle, *world, i,
                         GenerateStream(spec, scenario, options.seed, i));
  }

  auto tally = [&result](const Window& window) {
    result.attempted += window.stats.requests;
    result.failed += window.stats.failures;
  };
  // The warm-up is a fixed amount of work, one pass over each client's
  // stream, and peak_rss_mb is read after it. Churning workloads leave a
  // process record per create+kill that the kernel never frees, so a peak
  // read after a timed phase would grow with throughput.
  if (options.warmup_ops > 0) {
    tally(RunWindow(clients, 0, nullptr, options.warmup_ops));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (!options.traced) {
    std::vector<double> rps, p50, p99;
    for (size_t w = 0; w < options.windows; ++w) {
      const Window window = RunWindow(clients, options.window_s, nullptr);
      tally(window);
      rps.push_back(static_cast<double>(window.stats.requests) / window.seconds);
      p50.push_back(window.stats.latency.Quantile(0.5));
      p99.push_back(window.stats.latency.Quantile(0.99));
      std::printf("window %zu: %.0f requests/s, p50 %.1f ns, p99 %.1f ns, %llu failed\n", w,
                  rps.back(), p50.back(), p99.back(),
                  static_cast<unsigned long long>(window.stats.failures));
    }
    result.metrics = {
        {"throughput_rps", Median(rps), "requests/s"},
        {"latency_p50_ns", Median(p50), "ns"},
        {"latency_p99_ns", Median(p99), "ns"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    return result;
  }

  std::vector<SpanLog> logs;
  for (size_t i = 0; i < kClients; ++i) {
    logs.emplace_back((uint64_t{i} + 1) << 48);
  }
  Counters deltas;
  uint64_t traced_requests = 0;
  uint64_t traced_flips = 0;
  std::vector<double> untraced_rps, traced_rps;
  for (size_t pair = 0; pair < options.windows; ++pair) {
    // Alternate which half of the pair goes first, so slow drift of the
    // host does not bias the trace-overhead ratio.
    for (size_t half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (pair % 2 == 1);
      if (!traced) {
        const Window window = RunWindow(clients, options.window_s, nullptr);
        tally(window);
        untraced_rps.push_back(static_cast<double>(window.stats.requests) / window.seconds);
        continue;
      }
      const Counters before = ReadCounters();
      kernel::FlightRecorder::Global().set_enabled(true);
      const Window window = RunWindow(clients, options.window_s, &logs);
      kernel::FlightRecorder::Global().set_enabled(false);
      AddDelta(before, ReadCounters(), &deltas);
      tally(window);
      traced_rps.push_back(static_cast<double>(window.stats.requests) / window.seconds);
      traced_requests += window.stats.requests;
      traced_flips += window.stats.verbs[static_cast<size_t>(Verb::kFlip)];
    }
  }
  harvester.request_stop();
  harvester.join();
  auditor->Harvest();
  const nexus::harness::TraceAuditor::Report report = auditor->Finish();
  std::printf("audit: %s\n", report.Summary().c_str());
  for (const auto& violation : report.samples) {
    std::fprintf(stderr, "  audit [%s] %s\n", violation.kind.c_str(), violation.detail.c_str());
  }
  result.failed += report.total_violations();
  result.metrics = LayerMetrics(logs, deltas, static_cast<double>(traced_requests),
                                static_cast<double>(traced_flips), Median(untraced_rps),
                                Median(traced_rps), report);
  if (!options.spans_out.empty()) {
    result.status = WriteSpans(options.spans_out, logs);
  }
  return result;
}

// ---------------------------------------------------------------- output

std::string Number(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buffer[64];
  const std::to_chars_result end = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, end.ptr);
}

void PrintResult(const RunResult& result) {
  for (const Metric& metric : result.metrics) {
    std::printf("%-40s %18s %s\n", metric.name.c_str(), Number(metric.value).c_str(),
                metric.unit);
  }
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            Number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------- self-test

// Serially issues every verb for a holder and a virtual subject on a
// guarded and an unguarded object of every workload, and requires the
// oracle to accept each reply. Then requires the inverted oracle to reject
// each one: a checker that cannot fail checks nothing. Finally flips a goal
// and churns a process, which must succeed and take effect.
int SelfTest() {
  int failures = 0;
  auto fail = [&failures](const std::string& what) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
    ++failures;
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    nexus::Result<World> booted = Boot(spec);
    if (!booted.ok()) {
      fail(std::string(spec.name) + " boot: " + booted.status().ToString());
      continue;
    }
    World& world = *booted;
    const Oracle oracle(spec, /*goals_fixed=*/true);
    const Oracle inverted(spec, /*goals_fixed=*/true, /*inverted=*/true);
    Client client(oracle, world, 0, {});
    Client inverted_client(inverted, world, 1, {});

    std::vector<std::pair<uint64_t, bool>> subjects = {{0, true}};  // (rank, holder)
    if (spec.virtuals > 0) {
      subjects.push_back({spec.holders, false});
    }
    std::vector<uint32_t> objects = {0};
    if (spec.objects > spec.guarded) {
      objects.push_back(static_cast<uint32_t>(spec.guarded));
    }
    size_t checked = 0;
    for (const auto& [rank, holder] : subjects) {
      for (uint32_t object : objects) {
        for (Verb verb : {Verb::kAuthorize, Verb::kRead, Verb::kReadMany, Verb::kWrite}) {
          Op op;
          op.subject = world.scenario->SubjectAt(rank);
          op.holder = holder;
          op.object = object;
          op.verb = verb;
          uint32_t requests = 0;
          const std::string what = std::string(spec.name) + " verb " +
                                   std::to_string(static_cast<int>(verb)) + " rank " +
                                   std::to_string(rank) + " object " + std::to_string(object);
          if (client.Execute(op, &requests) != 0) {
            fail(what + ": oracle rejected a correct reply");
          }
          if (inverted_client.Execute(op, &requests) != requests) {
            fail(what + ": inverted oracle accepted a reply");
          }
          checked += requests;
        }
      }
    }

    const kernel::AuthzRequest holder_read{world.scenario->SubjectAt(0),
                                           world.scenario->read_op(),
                                           world.scenario->objects()[0]};
    kernel::Kernel& kernel = world.nexus->kernel();
    if (!world.scenario->FlipGoal(0).ok()) {
      fail(std::string(spec.name) + ": flip to the deny goal failed");
    } else if (kernel.Authorize(holder_read).code() != nexus::ErrorCode::kPermissionDenied) {
      fail(std::string(spec.name) + ": holder still allowed after the deny goal");
    }
    if (!world.scenario->FlipGoal(0).ok()) {
      fail(std::string(spec.name) + ": flip back to the allow goal failed");
    } else if (!kernel.Authorize(holder_read).ok()) {
      fail(std::string(spec.name) + ": holder denied after the allow goal returned");
    }
    if (!world.scenario->Churn("selftest_churn").ok()) {
      fail(std::string(spec.name) + ": churn failed");
    }
    std::printf("selftest %-15s %zu decisions checked both ways\n", spec.name, checked);
  }
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// A pass over every workload in the traced mode (oracle and audit on), with
// no warm-up and one 0.3 s window pair: what a job that runs each bench
// binary with --benchmark_* flags gets from this one, and the second half of
// run_benchmark.py --check.
int Smoke() {
  bool ok = true;
  for (const WorkloadSpec& spec : kWorkloads) {
    RunOptions options;
    options.traced = true;
    options.warmup_ops = 0;
    options.window_s = 0.3;
    options.windows = 1;
    const RunResult result = RunWorkload(spec, options);
    const bool passed = result.status.ok() && result.failed == 0 && result.attempted > 0;
    std::printf("smoke %-15s attempted=%llu failed=%llu %s\n", spec.name,
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                passed ? "ok" : result.status.ToString().c_str());
    ok = ok && passed;
  }
  return ok ? 0 : 1;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n"
               "       bench_e2e --selftest\n"
               "workloads: hot_authz cold_miss ipc_interposed policy_churn federated\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--benchmark_")) {
      return Smoke();
    }
    if (arg == "--selftest") {
      return SelfTest();
    }
    if (i + 1 >= argc) {
      return Usage("missing value after a flag");
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return Usage("unknown flag");
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage("malformed number");
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) {
    return Usage("unknown or missing --workload");
  }
  if (!(seconds > 0 && seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  if (trace != 0 && trace != 1) {
    return Usage("--trace must be 0 or 1");
  }
  RunOptions options = OptionsFor(seconds, trace == 1, seed);
  options.spans_out = spans_out;
  const RunResult result = RunWorkload(*spec, options);
  if (!result.status.ok()) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", spec->name, result.status.ToString().c_str());
    return 1;
  }
  PrintResult(result);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }

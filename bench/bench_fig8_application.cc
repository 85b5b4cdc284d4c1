// Figure 8: application-level impact on the Fauxbook web stack, in requests
// per second, for file sizes 100 B .. 1 MB.
//
// Three cost sources, each measured for a static file server row and a
// dynamic (framework + cobuf) row:
//   access control   : none / static (cacheable proof) / dynamic (external
//                      authority per request)
//   interposition    : none / kernel monitor ±cache / user monitor ±cache
//   attested storage : none / hash (integrity SSR) / decrypt (encrypted SSR)
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "apps/fauxbook.h"
#include "core/nexus.h"
#include "nal/parser.h"
#include "services/ddrm.h"
#include "storage/ssr.h"
#include "tpm/tpm.h"

namespace {

using nexus::Bytes;
using nexus::ToBytes;

nexus::nal::Formula F(const std::string& text) { return *nexus::nal::ParseFormula(text); }

constexpr int64_t kSizes[] = {100, 1000, 10000, 100000, 1000000};

class UserSpaceMonitor : public nexus::kernel::Interceptor {
 public:
  explicit UserSpaceMonitor(nexus::services::DeviceDriverMonitor* inner) : inner_(inner) {}
  nexus::kernel::InterposeVerdict OnCall(const nexus::kernel::IpcContext& context,
                                         nexus::kernel::IpcMessage& message) override {
    auto wire = MarshalMessage(message);
    if (!wire.ok()) {
      return nexus::kernel::InterposeVerdict::kDeny;
    }
    auto unmarshaled = nexus::kernel::UnmarshalMessage(*wire);
    if (!unmarshaled.ok()) {
      return nexus::kernel::InterposeVerdict::kDeny;
    }
    nexus::kernel::IpcMessage copy = std::move(*unmarshaled);
    return inner_->OnCall(context, copy);
  }

 private:
  nexus::services::DeviceDriverMonitor* inner_;
};

struct Harness {
  Harness()
      : tpm_rng(42),
        tpm(tpm_rng),
        nexus(&tpm),
        fauxbook(&nexus),
        vdirs(*nexus::storage::VdirTable::Boot(&tpm, &disk)),
        vkeys(&tpm, &nexus.rng()),
        ssrs(&disk, &vdirs, &vkeys) {
    fauxbook.AddUser("alice");
    for (int64_t size : kSizes) {
      std::string path = "/www/f" + std::to_string(size);
      nexus.fs().CreateFile(path, Bytes(static_cast<size_t>(size), 'x'));
      // SSR-backed copies for the attested-storage columns.
      plain_ssr[size] = *ssrs.Create(/*encrypted=*/false);
      ssrs.Write(plain_ssr[size], 0, Bytes(static_cast<size_t>(size), 'x'));
      nexus::storage::VkeyId key = *vkeys.Create();
      crypt_ssr[size] = *ssrs.Create(/*encrypted=*/true, key, /*nonce=*/size);
      ssrs.Write(crypt_ssr[size], 0, Bytes(static_cast<size_t>(size), 'x'));
    }
    // Authority for the dynamic-access-control column.
    authority = std::make_unique<nexus::core::LambdaAuthority>(
        [](const nexus::nal::Formula& f) { return nexus::nal::ScopeMatches(f, "Session"); },
        [](const nexus::nal::Formula&) { return true; });
    nexus.guard().AddEmbeddedAuthority(authority.get());

    nexus::services::DdrmPolicy policy;
    policy.allowed_operations = {"open", "close", "read", "write", "stat", "create"};
    fs_monitor_cached = std::make_unique<nexus::services::DeviceDriverMonitor>(policy, true);
    fs_monitor_uncached =
        std::make_unique<nexus::services::DeviceDriverMonitor>(policy, false);
    user_monitor_cached = std::make_unique<UserSpaceMonitor>(fs_monitor_cached.get());
    user_monitor_uncached = std::make_unique<UserSpaceMonitor>(fs_monitor_uncached.get());
  }

  // One post of `size` bytes so the dynamic row's payload tracks filesize.
  void SetPostSize(int64_t size) {
    if (current_post_size == size) {
      return;
    }
    current_post_size = size;
    fauxbook_reset();
  }
  void fauxbook_reset() {
    // Posts accumulate; rebuild the user with a single sized post by using
    // a distinct user per size.
    std::string user = "u" + std::to_string(current_post_size);
    if (!fauxbook.AreFriends(user, user)) {
      fauxbook.AddUser(user);
      fauxbook.PostStatus(user, std::string(static_cast<size_t>(current_post_size), 'p'));
    }
    dynamic_user = user;
  }

  nexus::Rng tpm_rng;
  nexus::tpm::Tpm tpm;
  nexus::core::Nexus nexus;
  nexus::apps::Fauxbook fauxbook;
  nexus::storage::BlockDevice disk;
  nexus::storage::VdirTable vdirs;
  nexus::storage::VkeyTable vkeys;
  nexus::storage::SsrManager ssrs;
  std::map<int64_t, nexus::storage::SsrId> plain_ssr;
  std::map<int64_t, nexus::storage::SsrId> crypt_ssr;
  std::unique_ptr<nexus::core::LambdaAuthority> authority;
  std::unique_ptr<nexus::services::DeviceDriverMonitor> fs_monitor_cached;
  std::unique_ptr<nexus::services::DeviceDriverMonitor> fs_monitor_uncached;
  std::unique_ptr<UserSpaceMonitor> user_monitor_cached;
  std::unique_ptr<UserSpaceMonitor> user_monitor_uncached;
  int64_t current_post_size = -1;
  std::string dynamic_user;
};

Harness& H() {
  static Harness h;
  return h;
}

void ReportRps(benchmark::State& state) {
  state.counters["req/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

// ---------------------------------------------------- Access control rows

enum class Access { kNone, kStatic, kDynamic };

void ConfigureAccess(Harness& h, const std::string& path, Access mode) {
  auto& engine = h.nexus.engine();
  h.nexus.kernel().set_decision_cache_enabled(true);
  h.nexus.kernel().decision_cache().Clear();
  std::string object = "file:" + path;
  engine.ClearGoal(nexus::kernel::kKernelProcessId, "open", object);
  switch (mode) {
    case Access::kNone:
      break;
    case Access::kStatic: {
      engine.SayAs(nexus::nal::Principal("Admin"), F("mayServe(webserver)"));
      engine.SetGoal(nexus::kernel::kKernelProcessId, "open", object,
                     F("Admin says mayServe(webserver)"));
      engine.SetProof(h.fauxbook.webserver_pid(), "open", object,
                      nexus::nal::proof::Premise(F("Admin says mayServe(webserver)")));
      break;
    }
    case Access::kDynamic: {
      engine.SetGoal(nexus::kernel::kKernelProcessId, "open", object,
                     F("Auth says Session < 1000000"));
      engine.SetProof(h.fauxbook.webserver_pid(), "open", object,
                      nexus::nal::proof::Authority(F("Auth says Session < 1000000")));
      break;
    }
  }
}

void RunStaticAccess(benchmark::State& state, Access mode) {
  Harness& h = H();
  int64_t size = state.range(0);
  std::string path = "/www/f" + std::to_string(size);
  ConfigureAccess(h, path, mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.fauxbook.ServeStatic(path));
  }
  ConfigureAccess(h, path, Access::kNone);
  ReportRps(state);
}

void RunDynamicAccess(benchmark::State& state, Access mode) {
  Harness& h = H();
  int64_t size = state.range(0);
  h.SetPostSize(size);
  std::string path = "/www/f" + std::to_string(size);
  ConfigureAccess(h, path, mode);  // Guard on the framework's data file.
  for (auto _ : state) {
    if (mode != Access::kNone) {
      benchmark::DoNotOptimize(
          h.nexus.kernel().Authorize(
              nexus::kernel::AuthzRequest::Of(h.fauxbook.webserver_pid(), "open", "file:" + path)));
    }
    benchmark::DoNotOptimize(h.fauxbook.ServeDynamic(h.dynamic_user));
  }
  ConfigureAccess(h, path, Access::kNone);
  ReportRps(state);
}

void BM_static_ac_none(benchmark::State& s) { RunStaticAccess(s, Access::kNone); }
void BM_static_ac_static(benchmark::State& s) { RunStaticAccess(s, Access::kStatic); }
void BM_static_ac_dynamic(benchmark::State& s) { RunStaticAccess(s, Access::kDynamic); }
void BM_www_ac_none(benchmark::State& s) { RunDynamicAccess(s, Access::kNone); }
void BM_www_ac_static(benchmark::State& s) { RunDynamicAccess(s, Access::kStatic); }
void BM_www_ac_dynamic(benchmark::State& s) { RunDynamicAccess(s, Access::kDynamic); }

// ---------------------------------------------------- Interposition rows

void RunStaticInterpose(benchmark::State& state, nexus::kernel::Interceptor* interceptor) {
  Harness& h = H();
  int64_t size = state.range(0);
  std::string path = "/www/f" + std::to_string(size);
  uint64_t token = 0;
  if (interceptor != nullptr) {
    token = *h.nexus.kernel().Interpose(h.fauxbook.webserver_pid(), h.nexus.kernel().fs_port(),
                                        interceptor);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.fauxbook.ServeStatic(path));
  }
  if (interceptor != nullptr) {
    h.nexus.kernel().RemoveInterposition(token);
  }
  ReportRps(state);
}

void RunDynamicInterpose(benchmark::State& state, nexus::kernel::Interceptor* interceptor) {
  Harness& h = H();
  int64_t size = state.range(0);
  h.SetPostSize(size);
  std::string path = "/www/f" + std::to_string(size);
  uint64_t token = 0;
  if (interceptor != nullptr) {
    token = *h.nexus.kernel().Interpose(h.fauxbook.webserver_pid(), h.nexus.kernel().fs_port(),
                                        interceptor);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.fauxbook.ServeStatic(path));  // File leg.
    benchmark::DoNotOptimize(h.fauxbook.ServeDynamic(h.dynamic_user));
  }
  if (interceptor != nullptr) {
    h.nexus.kernel().RemoveInterposition(token);
  }
  ReportRps(state);
}

void BM_static_ref_none(benchmark::State& s) { RunStaticInterpose(s, nullptr); }
void BM_static_kref_cached(benchmark::State& s) {
  RunStaticInterpose(s, H().fs_monitor_cached.get());
}
void BM_static_kref_uncached(benchmark::State& s) {
  RunStaticInterpose(s, H().fs_monitor_uncached.get());
}
void BM_static_uref_cached(benchmark::State& s) {
  RunStaticInterpose(s, H().user_monitor_cached.get());
}
void BM_static_uref_uncached(benchmark::State& s) {
  RunStaticInterpose(s, H().user_monitor_uncached.get());
}
void BM_www_ref_none(benchmark::State& s) { RunDynamicInterpose(s, nullptr); }
void BM_www_kref_cached(benchmark::State& s) {
  RunDynamicInterpose(s, H().fs_monitor_cached.get());
}
void BM_www_kref_uncached(benchmark::State& s) {
  RunDynamicInterpose(s, H().fs_monitor_uncached.get());
}
void BM_www_uref_cached(benchmark::State& s) {
  RunDynamicInterpose(s, H().user_monitor_cached.get());
}
void BM_www_uref_uncached(benchmark::State& s) {
  RunDynamicInterpose(s, H().user_monitor_uncached.get());
}

// -------------------------------------------------- Attested storage rows

enum class Storage { kNone, kHash, kDecrypt };

void RunStaticStorage(benchmark::State& state, Storage mode) {
  Harness& h = H();
  int64_t size = state.range(0);
  std::string path = "/www/f" + std::to_string(size);
  for (auto _ : state) {
    switch (mode) {
      case Storage::kNone:
        benchmark::DoNotOptimize(h.fauxbook.ServeStatic(path));
        break;
      case Storage::kHash:
        benchmark::DoNotOptimize(
            h.ssrs.Read(h.plain_ssr[size], 0, static_cast<size_t>(size)));
        break;
      case Storage::kDecrypt:
        benchmark::DoNotOptimize(
            h.ssrs.Read(h.crypt_ssr[size], 0, static_cast<size_t>(size)));
        break;
    }
  }
  ReportRps(state);
}

void RunDynamicStorage(benchmark::State& state, Storage mode) {
  Harness& h = H();
  int64_t size = state.range(0);
  h.SetPostSize(size);
  for (auto _ : state) {
    switch (mode) {
      case Storage::kNone:
        break;
      case Storage::kHash:
        benchmark::DoNotOptimize(
            h.ssrs.Read(h.plain_ssr[size], 0, static_cast<size_t>(size)));
        break;
      case Storage::kDecrypt:
        benchmark::DoNotOptimize(
            h.ssrs.Read(h.crypt_ssr[size], 0, static_cast<size_t>(size)));
        break;
    }
    benchmark::DoNotOptimize(h.fauxbook.ServeDynamic(h.dynamic_user));
  }
  ReportRps(state);
}

void BM_static_store_none(benchmark::State& s) { RunStaticStorage(s, Storage::kNone); }
void BM_static_store_hash(benchmark::State& s) { RunStaticStorage(s, Storage::kHash); }
void BM_static_store_decrypt(benchmark::State& s) { RunStaticStorage(s, Storage::kDecrypt); }
void BM_www_store_none(benchmark::State& s) { RunDynamicStorage(s, Storage::kNone); }
void BM_www_store_hash(benchmark::State& s) { RunDynamicStorage(s, Storage::kHash); }
void BM_www_store_decrypt(benchmark::State& s) { RunDynamicStorage(s, Storage::kDecrypt); }

void Sizes(benchmark::internal::Benchmark* b) {
  for (int64_t size : kSizes) {
    b->Arg(size);
  }
}

BENCHMARK(BM_static_ac_none)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_ac_static)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_ac_dynamic)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_ac_none)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_ac_static)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_ac_dynamic)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_ref_none)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_kref_cached)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_kref_uncached)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_uref_cached)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_uref_uncached)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_ref_none)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_kref_cached)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_kref_uncached)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_uref_cached)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_uref_uncached)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_store_none)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_store_hash)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_static_store_decrypt)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_store_none)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_store_hash)->Apply(Sizes)->MinTime(0.05);
BENCHMARK(BM_www_store_decrypt)->Apply(Sizes)->MinTime(0.05);

}  // namespace

NEXUS_BENCHMARK_MAIN();

// Table 1: system call overhead in cycles.
//
// Columns reproduced: "Nexus Bare" (interposition disabled), "Nexus"
// (standard: marshaling + syscall-channel interposition), and "Linux"
// (monolithic baseline: the same operation as a direct function call with
// no IPC hop). A blocked interposed null call is also measured (it returns
// earlier than a completed call).
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "core/nexus.h"
#include "kernel/kernel.h"
#include "tpm/tpm.h"
#include "util/cycles.h"

namespace {

using nexus::Bytes;
using nexus::ToBytes;
using nexus::kernel::IpcMessage;
using nexus::kernel::Syscall;

struct Harness {
  Harness() : tpm_rng(42), tpm(tpm_rng), nexus(&tpm) {
    client = *nexus.CreateProcess("bench-client", ToBytes("bench-client"));
    nexus.fs().CreateFile("/bench/file", Bytes(4096, 'x'));
    nexus.fs().CreateFile("/bench/big", Bytes(64 * 1024, 'x'));
    IpcMessage open_msg;
    open_msg.AddString("/bench/file");
    open_fd = *nexus.kernel().Call(client, SyscallIpcPort(Syscall::kOpen), open_msg).ArgU64(0);
    IpcMessage open_big;
    open_big.AddString("/bench/big");
    big_fd = *nexus.kernel().Call(client, SyscallIpcPort(Syscall::kOpen), open_big).ArgU64(0);
    nexus.kernel().scheduler().AddClient(client, 1);
  }

  nexus::Rng tpm_rng;
  nexus::tpm::Tpm tpm;
  nexus::core::Nexus nexus;
  nexus::kernel::ProcessId client = 0;
  uint64_t open_fd = 0;
  uint64_t big_fd = 0;
};

Harness& H() {
  static Harness harness;
  return harness;
}

// Blocks every syscall: measures the early-return path ("null (block)").
class BlockAll : public nexus::kernel::Interceptor {
 public:
  nexus::kernel::InterposeVerdict OnCall(const nexus::kernel::IpcContext&,
                                         IpcMessage&) override {
    return nexus::kernel::InterposeVerdict::kDeny;
  }
};

void RunSyscall(benchmark::State& state, Syscall call, bool interposition,
                IpcMessage msg = {}) {
  Harness& h = H();
  h.nexus.kernel().set_interposition_enabled(interposition);
  uint64_t cycles = 0;
  uint64_t calls = 0;
  for (auto _ : state) {
    uint64_t start = nexus::ReadCycleCounter();
    benchmark::DoNotOptimize(h.nexus.kernel().Call(h.client, SyscallIpcPort(call), msg));
    cycles += nexus::ReadCycleCounter() - start;
    ++calls;
  }
  h.nexus.kernel().set_interposition_enabled(true);
  state.counters["cycles/call"] =
      benchmark::Counter(static_cast<double>(cycles) / static_cast<double>(calls));
}

// "Linux": monolithic path — the equivalent operation as one direct call.
void RunDirect(benchmark::State& state, const std::function<void()>& op) {
  uint64_t cycles = 0;
  uint64_t calls = 0;
  for (auto _ : state) {
    uint64_t start = nexus::ReadCycleCounter();
    op();
    cycles += nexus::ReadCycleCounter() - start;
    ++calls;
  }
  state.counters["cycles/call"] =
      benchmark::Counter(static_cast<double>(cycles) / static_cast<double>(calls));
}

void BM_null_bare(benchmark::State& s) { RunSyscall(s, Syscall::kNull, false); }
void BM_null_nexus(benchmark::State& s) { RunSyscall(s, Syscall::kNull, true); }
void BM_null_blocked(benchmark::State& s) {
  Harness& h = H();
  BlockAll blocker;
  auto port = nexus::kernel::SyscallIpcPort(Syscall::kNull);
  uint64_t token = *h.nexus.kernel().Interpose(nexus::kernel::kKernelProcessId, port, &blocker);
  RunSyscall(s, Syscall::kNull, true);
  h.nexus.kernel().RemoveInterposition(token);
}
void BM_getppid_bare(benchmark::State& s) { RunSyscall(s, Syscall::kGetPpid, false); }
void BM_getppid_nexus(benchmark::State& s) { RunSyscall(s, Syscall::kGetPpid, true); }
void BM_getppid_linux(benchmark::State& s) {
  Harness& h = H();
  RunDirect(s, [&h] {
    benchmark::DoNotOptimize(h.nexus.kernel().GetParent(h.client));
  });
}
void BM_gettimeofday_bare(benchmark::State& s) { RunSyscall(s, Syscall::kGetTimeOfDay, false); }
void BM_gettimeofday_nexus(benchmark::State& s) { RunSyscall(s, Syscall::kGetTimeOfDay, true); }
void BM_gettimeofday_linux(benchmark::State& s) {
  Harness& h = H();
  RunDirect(s, [&h] { benchmark::DoNotOptimize(h.nexus.kernel().NowMicros()); });
}
void BM_yield_bare(benchmark::State& s) { RunSyscall(s, Syscall::kYield, false); }
void BM_yield_nexus(benchmark::State& s) { RunSyscall(s, Syscall::kYield, true); }
void BM_yield_linux(benchmark::State& s) {
  Harness& h = H();
  RunDirect(s, [&h] { benchmark::DoNotOptimize(h.nexus.kernel().scheduler().Tick()); });
}
void BM_open_nexus(benchmark::State& s) {
  // open+close so fd tables do not grow unboundedly; reported as one op.
  Harness& h = H();
  h.nexus.kernel().set_interposition_enabled(true);
  uint64_t cycles = 0;
  uint64_t calls = 0;
  IpcMessage open_msg;
  open_msg.AddString("/bench/file");
  for (auto _ : s) {
    uint64_t start = nexus::ReadCycleCounter();
    auto reply = h.nexus.kernel().Call(h.client, SyscallIpcPort(Syscall::kOpen), open_msg);
    cycles += nexus::ReadCycleCounter() - start;
    ++calls;
    IpcMessage close_msg;
    close_msg.AddU64(*reply.ArgU64(0));
    h.nexus.kernel().Call(h.client, SyscallIpcPort(Syscall::kClose), close_msg);
  }
  s.counters["cycles/call"] =
      benchmark::Counter(static_cast<double>(cycles) / static_cast<double>(calls));
}
void BM_close_nexus(benchmark::State& s) {
  Harness& h = H();
  uint64_t cycles = 0;
  uint64_t calls = 0;
  IpcMessage open_msg;
  open_msg.AddString("/bench/file");
  for (auto _ : s) {
    auto reply = h.nexus.kernel().Call(h.client, SyscallIpcPort(Syscall::kOpen), open_msg);
    IpcMessage close_msg;
    close_msg.AddU64(*reply.ArgU64(0));
    uint64_t start = nexus::ReadCycleCounter();
    h.nexus.kernel().Call(h.client, SyscallIpcPort(Syscall::kClose), close_msg);
    cycles += nexus::ReadCycleCounter() - start;
    ++calls;
  }
  s.counters["cycles/call"] =
      benchmark::Counter(static_cast<double>(cycles) / static_cast<double>(calls));
}
void BM_read_nexus(benchmark::State& s) {
  // Typed fd/offset/length slots: the interposed read path builds and
  // parses zero strings (ABI v2).
  IpcMessage msg;
  msg.AddU64(H().open_fd).AddU64(0).AddU64(1024);
  RunSyscall(s, Syscall::kRead, true, std::move(msg));
}
void BM_read64k_nexus(benchmark::State& s) {
  // The zero-copy showcase: a 64KiB read reply is a slice of the
  // fileserver's backing store — no payload memcpy end to end.
  IpcMessage msg;
  msg.AddU64(H().big_fd).AddU64(0).AddU64(64 * 1024);
  RunSyscall(s, Syscall::kRead, true, std::move(msg));
}
void BM_write_nexus(benchmark::State& s) {
  Harness& h = H();
  IpcMessage msg;
  msg.AddU64(h.open_fd).AddU64(0);
  msg.data = Bytes(1024, 'y');
  uint64_t cycles = 0;
  uint64_t calls = 0;
  for (auto _ : s) {
    uint64_t start = nexus::ReadCycleCounter();
    benchmark::DoNotOptimize(h.nexus.kernel().Call(h.client, SyscallIpcPort(Syscall::kWrite), msg));
    cycles += nexus::ReadCycleCounter() - start;
    ++calls;
  }
  s.counters["cycles/call"] =
      benchmark::Counter(static_cast<double>(cycles) / static_cast<double>(calls));
}

BENCHMARK(BM_null_bare);
BENCHMARK(BM_null_nexus);
BENCHMARK(BM_null_blocked);
BENCHMARK(BM_getppid_bare);
BENCHMARK(BM_getppid_nexus);
BENCHMARK(BM_getppid_linux);
BENCHMARK(BM_gettimeofday_bare);
BENCHMARK(BM_gettimeofday_nexus);
BENCHMARK(BM_gettimeofday_linux);
BENCHMARK(BM_yield_bare);
BENCHMARK(BM_yield_nexus);
BENCHMARK(BM_yield_linux);
BENCHMARK(BM_open_nexus);
BENCHMARK(BM_close_nexus);
BENCHMARK(BM_read_nexus);
BENCHMARK(BM_read64k_nexus);
BENCHMARK(BM_write_nexus);

}  // namespace

NEXUS_BENCHMARK_MAIN();

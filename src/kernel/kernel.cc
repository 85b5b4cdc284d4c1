#include "kernel/kernel.h"

#include <algorithm>
#include <array>
#include <chrono>

namespace nexus::kernel {

Kernel::Kernel() {
  // The reserved-port table (kernel/syscall_ports.h) exists from cycle
  // zero: boot-service ports waiting for their ClaimBootPort, and one
  // kernel-owned port per syscall so interposing on a syscall is
  // interposing on a compile-time-constant port id. No registration step,
  // no per-process lazy creation — the layout IS the ABI.
  for (PortId id = kGuardBootPort; id < kFirstDynamicPort; ++id) {
    PortShard& shard = port_shards_[ShardOfId(id)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.ports[id] = Port{id, kKernelProcessId, nullptr, 0};
  }
  for (PortId id = kGuardBootPort; id < kFirstDynamicPort; ++id) {
    procfs_.PublishValue(kKernelProcessId, "/proc/port/" + std::to_string(id) + "/owner",
                         "0");
  }
  procfs_.PublishValue(kKernelProcessId, "/proc/kernel/name", "nexus");
  // The metrics plane exported through the introspection namespace (§3.1):
  // one node per top-level registry prefix, plus the flight recorder.
  // Reading telemetry is itself a guarded proc-read — the kProcRead syscall
  // authorizes "read" on "proc:/stats/<component>" like any other path.
  // observability_test pins this list against every prefix registered.
  static constexpr const char* kStatComponents[] = {
      "kernel", "cache", "guard", "engine",
      "transport", "channel", "cert_exchange", "remote_authority", "authority_service",
      "mesh", "quorum_authority",
      "ddrm", "redactor", "bgp_verifier",
  };
  for (const char* component : kStatComponents) {
    procfs_.Publish(kKernelProcessId, std::string("/stats/") + component,
                    [component] { return metrics::Registry::Global().RenderText(component); });
  }
  procfs_.Publish(kKernelProcessId, "/stats/trace", [] {
    const FlightRecorder& recorder = FlightRecorder::Global();
    std::string out = "enabled ";
    out += recorder.enabled() ? '1' : '0';
    out += "\nevents_emitted " + std::to_string(recorder.events_emitted());
    out += "\nrings " + std::to_string(recorder.ring_count());
    out += '\n';
    return out;
  });
  procfs_.Publish(kKernelProcessId, "/trace/recent", [] {
    return FormatTraceEvents(FlightRecorder::Global().Recent(64));
  });
}

uint64_t Kernel::NowMicros() const {
  if (time_source_) {
    return time_source_();
  }
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

// ------------------------------------------------------------- Processes

Result<ProcessId> Kernel::CreateProcess(const std::string& name, ByteView binary,
                                        ProcessId parent) {
  Process p;
  p.parent = parent;
  p.name = name;
  p.binary_hash = crypto::Sha256::Hash(binary);
  // The quota root is the topmost non-kernel ancestor: incessantly spawned
  // children are all charged to the tree's root (§2.9). Read it from the
  // parent's shard; a parent killed between this read and the insert below
  // yields a child of a dead parent, exactly as a kill landing just after
  // the spawn would.
  if (parent == kKernelProcessId) {
    p.quota_root = 0;  // Fixed up to the child's own pid below.
  } else {
    const ProcessShard& shard = process_shards_[ShardOfId(parent)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.procs.find(parent);
    if (it == shard.procs.end() || !it->second.alive.load()) {
      return NotFound("parent process not alive");
    }
    p.quota_root = it->second.quota_root;
  }
  ProcessId pid = next_pid_.fetch_add(1);
  p.pid = pid;
  if (parent == kKernelProcessId) {
    p.quota_root = pid;
  }
  PublishProcessNodes(p);
  {
    ProcessShard& shard = process_shards_[ShardOfId(pid)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.procs.emplace(pid, std::move(p));
  }
  lifecycle_generation_.fetch_add(1);
  return pid;
}

void Kernel::PublishProcessNodes(const Process& process) {
  const std::string base = ProcPath(process.pid);
  procfs_.PublishValue(process.pid, base + "/name", process.name);
  procfs_.PublishValue(process.pid, base + "/parent", std::to_string(process.parent));
  procfs_.PublishValue(
      process.pid, base + "/hash",
      HexEncode(ByteView(process.binary_hash.data(), process.binary_hash.size())));
}

Status Kernel::KillProcess(ProcessId pid) {
  {
    ProcessShard& shard = process_shards_[ShardOfId(pid)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.procs.find(pid);
    if (it == shard.procs.end() || !it->second.alive.load()) {
      return NotFound("no such process");
    }
    it->second.alive.store(false);
  }
  procfs_.RemoveOwned(pid);
  // Tear down the process's ports shard by shard, then unlink the dead
  // ports from every remaining channel set.
  std::vector<PortId> dead_ports;
  for (PortShard& shard : port_shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    for (auto port_it = shard.ports.begin(); port_it != shard.ports.end();) {
      if (port_it->second.owner == pid) {
        if (port_it->first < kFirstDynamicPort) {
          // Reserved ids outlive their claimant: revert to an unclaimed
          // kernel-owned slot so the next boot service can reclaim it.
          port_it->second.owner = kKernelProcessId;
          port_it->second.handler = nullptr;
          ++port_it;
          continue;
        }
        dead_ports.push_back(port_it->first);
        port_it = shard.ports.erase(port_it);
      } else {
        ++port_it;
      }
    }
  }
  {
    std::unique_lock<std::shared_mutex> lock(channels_mu_);
    channels_.erase(pid);
    for (PortId dead : dead_ports) {
      for (auto& [owner, connected] : channels_) {
        connected.erase(dead);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    scheduler_->RemoveClient(pid);  // Best effort; may not be scheduled.
  }
  lifecycle_generation_.fetch_add(1);
  return OkStatus();
}

Result<const Process*> Kernel::GetProcess(ProcessId pid) const {
  const ProcessShard& shard = process_shards_[ShardOfId(pid)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(pid);
  if (it == shard.procs.end()) {
    return NotFound("no such process");
  }
  // Stable: records are marked dead, never erased, and std::map nodes do
  // not move. Liveness is an atomic; other mutable fields are only touched
  // under the shard writer lock.
  return &it->second;
}

bool Kernel::IsAlive(ProcessId pid) const {
  const ProcessShard& shard = process_shards_[ShardOfId(pid)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(pid);
  return it != shard.procs.end() && it->second.alive.load();
}

Result<ProcessId> Kernel::GetParent(ProcessId pid) const {
  const ProcessShard& shard = process_shards_[ShardOfId(pid)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(pid);
  if (it == shard.procs.end()) {
    return NotFound("no such process");
  }
  return it->second.parent;
}

std::vector<ProcessId> Kernel::Processes() const {
  std::vector<ProcessId> out;
  for (const ProcessShard& shard : process_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [pid, p] : shard.procs) {
      if (p.alive.load()) {
        out.push_back(pid);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status Kernel::RestrictSyscalls(ProcessId pid, std::set<Syscall> allowed) {
  ProcessShard& shard = process_shards_[ShardOfId(pid)];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(pid);
  if (it == shard.procs.end() || !it->second.alive.load()) {
    return NotFound("no such process");
  }
  // Restriction is monotone: a process can only narrow its own surface.
  if (it->second.allowed_syscalls.has_value()) {
    for (Syscall sc : allowed) {
      if (!it->second.allowed_syscalls->contains(sc)) {
        return PermissionDenied("cannot re-acquire relinquished system calls");
      }
    }
  }
  it->second.allowed_syscalls = std::move(allowed);
  return OkStatus();
}

nal::Principal Kernel::ProcessPrincipal(ProcessId pid) const {
  return KernelPrincipal().Sub("ipd").Sub(std::to_string(pid));
}

std::string Kernel::ProcPath(ProcessId pid) { return "/proc/ipd/" + std::to_string(pid); }

// ----------------------------------------------------------------- Ports

std::optional<Kernel::Port> Kernel::SnapshotPort(PortId port) const {
  const PortShard& shard = port_shards_[ShardOfId(port)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.ports.find(port);
  if (it == shard.ports.end()) {
    return std::nullopt;
  }
  return it->second;
}

Result<PortId> Kernel::CreatePort(ProcessId owner) {
  if (owner != kKernelProcessId && !IsAlive(owner)) {
    return NotFound("no such process");
  }
  PortId id = next_port_.fetch_add(1);
  uint64_t generation = lifecycle_generation_.fetch_add(1) + 1;
  const std::string proc_node = "/proc/port/" + std::to_string(id) + "/owner";
  {
    PortShard& shard = port_shards_[ShardOfId(id)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.ports[id] = Port{id, owner, nullptr, generation};
  }
  procfs_.PublishValue(owner, proc_node, std::to_string(owner));
  // Revalidate AFTER publishing: a KillProcess that raced the liveness
  // check above may have swept the port shards before our insert landed,
  // which would leak a live port owned by a dead process forever. Insert-
  // then-recheck closes the window — either the kill's sweep sees our
  // port, or we see the kill and reap our own debris.
  if (owner != kKernelProcessId && !IsAlive(owner)) {
    {
      PortShard& shard = port_shards_[ShardOfId(id)];
      std::unique_lock<std::shared_mutex> lock(shard.mu);
      shard.ports.erase(id);  // May already be gone (the kill swept it).
    }
    procfs_.Remove(proc_node);  // Ditto.
    return NotFound("no such process");
  }
  return id;
}

Status Kernel::ClaimBootPort(PortId port, ProcessId owner, PortHandler* handler) {
  if (port == 0 || port >= kFirstDynamicPort) {
    return InvalidArgument("not a reserved boot port");
  }
  if (owner != kKernelProcessId && !IsAlive(owner)) {
    return NotFound("no such process");
  }
  {
    PortShard& shard = port_shards_[ShardOfId(port)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.ports.find(port);
    if (it == shard.ports.end()) {
      return NotFound("no such port");
    }
    if (it->second.owner != kKernelProcessId || it->second.handler != nullptr) {
      return AlreadyExists("boot port already claimed");
    }
    it->second.owner = owner;
    it->second.handler = handler;
    it->second.generation = lifecycle_generation_.fetch_add(1) + 1;
  }
  procfs_.PublishValue(owner, "/proc/port/" + std::to_string(port) + "/owner",
                       std::to_string(owner));
  return OkStatus();
}

Status Kernel::DestroyPort(PortId port) {
  if (port < kFirstDynamicPort) {
    return PermissionDenied("reserved port cannot be destroyed");
  }
  {
    PortShard& shard = port_shards_[ShardOfId(port)];
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (shard.ports.erase(port) == 0) {
      return NotFound("no such port");
    }
  }
  {
    std::unique_lock<std::shared_mutex> lock(channels_mu_);
    for (auto& [owner, connected] : channels_) {
      connected.erase(port);
    }
  }
  procfs_.Remove("/proc/port/" + std::to_string(port) + "/owner");
  lifecycle_generation_.fetch_add(1);
  return OkStatus();
}

Status Kernel::BindHandler(PortId port, PortHandler* handler) {
  PortShard& shard = port_shards_[ShardOfId(port)];
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.ports.find(port);
  if (it == shard.ports.end()) {
    return NotFound("no such port");
  }
  it->second.handler = handler;
  lifecycle_generation_.fetch_add(1);
  return OkStatus();
}

Result<ProcessId> Kernel::PortOwner(PortId port) const {
  std::optional<Port> snapshot = SnapshotPort(port);
  if (!snapshot.has_value()) {
    return NotFound("no such port");
  }
  return snapshot->owner;
}

Status Kernel::ConnectPort(ProcessId pid, PortId port) {
  if (!IsAlive(pid) && pid != kKernelProcessId) {
    return NotFound("no such process");
  }
  if (!SnapshotPort(port).has_value()) {
    return NotFound("no such port");
  }
  {
    std::unique_lock<std::shared_mutex> lock(channels_mu_);
    channels_[pid].insert(port);
  }
  // Revalidate: a DestroyPort/KillProcess racing the existence check above
  // may have swept channels_ before our edge landed, leaving a permanent
  // ghost edge to a nonexistent port (and a phantom path for the IPC
  // analyzer). Either the destroy's sweep sees our edge, or we see the
  // destroy and retract it.
  if (!SnapshotPort(port).has_value()) {
    std::unique_lock<std::shared_mutex> lock(channels_mu_);
    auto it = channels_.find(pid);
    if (it != channels_.end()) {
      it->second.erase(port);
    }
    return NotFound("no such port");
  }
  return OkStatus();
}

Status Kernel::DisconnectPort(ProcessId pid, PortId port) {
  std::unique_lock<std::shared_mutex> lock(channels_mu_);
  auto it = channels_.find(pid);
  if (it == channels_.end() || it->second.erase(port) == 0) {
    return NotFound("no such channel");
  }
  return OkStatus();
}

bool Kernel::HasChannel(ProcessId pid, PortId port) const {
  std::shared_lock<std::shared_mutex> lock(channels_mu_);
  auto it = channels_.find(pid);
  return it != channels_.end() && it->second.contains(port);
}

Result<uint64_t> Kernel::PortGeneration(PortId port) const {
  std::optional<Port> snapshot = SnapshotPort(port);
  if (!snapshot.has_value()) {
    return NotFound("no such port");
  }
  return snapshot->generation;
}

std::map<ProcessId, std::set<PortId>> Kernel::ChannelsSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(channels_mu_);
  return channels_;
}

// ------------------------------------------------------------------- IPC

namespace {

// One provenance event of a crossing (kCall, kSyscall, kReplyInterpose).
// No-op on untraced calls; no cycle read on traced ones (Call is the fig7
// hot path — the latency histograms are fed from syscalls and misses).
void EmitIpcEvent(const TraceScope& trace, TraceStage stage, ProcessId caller, OpId op,
                  uint64_t aux, uint16_t flags, uint8_t verdict) {
  if (!trace.active()) {
    return;
  }
  TraceEvent e;
  e.trace_id = trace.id();
  e.subject = caller;
  e.op = op;
  e.aux = aux;
  e.flags = flags;
  e.verdict = verdict;
  e.stage = stage;
  FlightRecorder::Global().Emit(e);
}

uint8_t VerdictOf(const IpcReply& reply) {
  return reply.status.ok() ? kTraceVerdictAllow : kTraceVerdictDeny;
}

// Records elapsed cycles into a histogram across every return path of the
// enclosing function. Pass nullptr to measure nothing (untraced calls pay
// no rdtsc).
class ScopedCycleHistogram {
 public:
  explicit ScopedCycleHistogram(metrics::Histogram* histogram)
      : histogram_(histogram), start_(histogram != nullptr ? ReadCycleCounter() : 0) {}
  ~ScopedCycleHistogram() {
    if (histogram_ != nullptr) {
      histogram_->Record(ReadCycleCounter() - start_);
    }
  }
  ScopedCycleHistogram(const ScopedCycleHistogram&) = delete;
  ScopedCycleHistogram& operator=(const ScopedCycleHistogram&) = delete;

 private:
  metrics::Histogram* histogram_;
  uint64_t start_;
};

// Per-thread staging for batched crossings: the working copies of the
// admitted messages and each one's slot in the caller's span. Reused
// capacity matters — a fresh 256-message allocation per batch shows up as
// page churn at high rates. A crossing moves the staging out for its
// duration and back after, so a handler that re-enters CallMany on this
// thread finds it empty and stages its own.
struct Staging {
  std::vector<IpcMessage> working;
  std::vector<size_t> slot_of;
};
thread_local Staging t_staging;

// Per-thread capacity for interceptor-chain snapshots, lent the same way:
// a crossing that finds a monitor on its port takes it and gives it back
// after, and a re-entrant crossing finds it empty and allocates its own. A
// crossing that finds no monitor never touches it.
thread_local std::vector<Interceptor*> t_chain;

}  // namespace

IpcReply Kernel::Call(ProcessId caller, PortId port, const IpcMessage& message) {
  IpcReply reply;
  CallMany(caller, port, std::span<const IpcMessage>(&message, 1),
           std::span<IpcReply>(&reply, 1));
  return reply;
}

size_t Kernel::CallMany(ProcessId caller, PortId port, std::span<const IpcMessage> messages,
                        std::span<IpcReply> replies) {
  const size_t n = std::min(messages.size(), replies.size());
  if (n == 0) {
    return 0;
  }
  messages = messages.first(n);
  replies = replies.first(n);
  // One trace scope per crossing. A nested crossing (interposed hop,
  // ipc_call, file-syscall forward) adopts the surrounding id, and every
  // message of a batch shares it, so one logical operation is one chain.
  TraceScope trace;
  const IpcContext context{caller, port};
  const bool syscall = IsSyscallPort(port);
  const uint16_t batched = n > 1 ? kTraceFlagBatched : 0;

  // Crossing admission. A call addressed to a reserved syscall port IS
  // that syscall (SYSCALL_IPCPORT in the real kernel): the caller must be
  // alive and must not have relinquished it. Any other port is
  // snapshotted once; its handler runs with no kernel lock held, and a
  // concurrent DestroyPort lets this crossing complete against the
  // handler captured here.
  auto refuse = [&](const Status& status) {
    for (IpcReply& reply : replies) {
      reply = IpcReply(status);
    }
    return size_t{0};
  };
  ScopedCycleHistogram timer(syscall && trace.active() ? call_cycles_ : nullptr);
  PortHandler* handler = nullptr;
  ProcessId parent = kKernelProcessId;
  if (syscall) {
    syscalls_->Increment(n);
    const ProcessShard& shard = process_shards_[ShardOfId(caller)];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.procs.find(caller);
    if (it == shard.procs.end() || !it->second.alive.load()) {
      lock.unlock();
      return refuse(NotFound("no such process"));
    }
    if (it->second.allowed_syscalls.has_value() &&
        !it->second.allowed_syscalls->contains(SyscallOfPort(port))) {
      lock.unlock();
      return refuse(PermissionDenied("system call relinquished"));
    }
    parent = it->second.parent;
  } else {
    calls_->Increment(n);
    std::optional<Port> snapshot = SnapshotPort(port);
    if (!snapshot.has_value()) {
      return refuse(NotFound("no such port"));
    }
    handler = snapshot->handler;
  }

  // Newest monitor first; composition is simply nesting (§3.2).
  std::vector<Interceptor*> monitors;
  SnapshotInterceptors(port, &monitors);

  // Fast path: a port with no monitor and every message in bounds. The
  // caller's messages go to the handler as they are, with no copies.
  bool fast = !syscall && monitors.empty();
  for (size_t i = 0; fast && i < n; ++i) {
    fast = CheckWireBounds(messages[i]).ok();
  }

  // Otherwise each message is admitted into a working copy (a syscall
  // overrides its op; monitors may rewrite it). One message stages on the
  // stack, a batch in the thread's staging.
  IpcMessage one;
  size_t one_slot = 0;
  Staging staging;
  std::span<IpcMessage> working(&one, 1);
  std::span<size_t> slot_of(&one_slot, 1);
  std::span<const IpcMessage> admitted = messages;
  if (!fast) {
    if (n > 1) {
      staging = std::move(t_staging);
      staging.working.resize(n);
      staging.slot_of.resize(n);
      working = staging.working;
      slot_of = staging.slot_of;
    }
    // Per-message admission: wire bounds, which hold with or without a
    // monitor, then the forward interceptor chain.
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      IpcMessage& message = working[count];
      message = messages[i];
      if (syscall) {
        // The syscall's own op overrides whatever the caller wrote (the
        // inner operation of ipc_call is an ARGUMENT).
        message.op = SyscallOp(SyscallOfPort(port));
      }
      if (Status bounded = CheckWireBounds(message); !bounded.ok()) {
        replies[i] = IpcReply(std::move(bounded));
        continue;
      }
      if (syscall) {
        EmitIpcEvent(trace, TraceStage::kSyscall, caller, message.op,
                     static_cast<uint64_t>(SyscallOfPort(port)), 0, kTraceVerdictNone);
      }
      bool blocked = false;
      for (Interceptor* monitor : monitors) {
        if (monitor->OnCall(context, message) == InterposeVerdict::kDeny) {
          blocked = true;
          break;
        }
      }
      if (blocked) {
        // A blocked call returns earlier than a completed call (Table 1).
        if (!syscall) {
          EmitIpcEvent(trace, TraceStage::kCall, caller, message.op, port,
                       batched | kTraceFlagInterposed | kTraceFlagDenied, kTraceVerdictDeny);
        }
        replies[i] = IpcReply(PermissionDenied("blocked by reference monitor"));
        continue;
      }
      slot_of[count++] = i;
    }
    admitted = working.first(count);
  }

  // ONE dispatch for the admitted messages. When all were admitted the
  // handler writes straight into the caller's replies; only a partially
  // admitted batch stages its replies and scatters them.
  const bool dense = admitted.size() == n;
  std::vector<IpcReply> staged;
  if (!dense) {
    staged.resize(admitted.size());
  }
  std::span<IpcReply> out = dense ? replies : std::span<IpcReply>(staged);
  if (syscall) {
    // Direct-indexed by the enumerator, mirroring the reserved-port
    // layout: "which port" and "which handler" are the same arithmetic.
    static constexpr std::array<SyscallHandler, kSyscallCount> kSyscallTable = {
        &Kernel::SysNull,          // kNull
        &Kernel::SysGetPpid,       // kGetPpid
        &Kernel::SysGetTimeOfDay,  // kGetTimeOfDay
        &Kernel::SysYield,         // kYield
        &Kernel::SysFileForward,   // kOpen
        &Kernel::SysFileForward,   // kClose
        &Kernel::SysFileForward,   // kRead
        &Kernel::SysFileForward,   // kWrite
        &Kernel::SysControl,       // kSay
        &Kernel::SysControl,       // kSetGoal
        &Kernel::SysControl,       // kSetProof
        &Kernel::SysControl,       // kInterpose
        &Kernel::SysIpcCall,       // kIpcCall
        &Kernel::SysProcRead,      // kProcRead
    };
    const SyscallHandler sys = kSyscallTable[static_cast<size_t>(SyscallOfPort(port))];
    for (size_t j = 0; j < admitted.size(); ++j) {
      out[j] = (this->*sys)(caller, parent, working[j]);
    }
  } else if (handler == nullptr) {
    for (IpcReply& reply : out) {
      reply = IpcReply(Unavailable("no handler bound to port"));
    }
  } else if (admitted.size() == 1) {
    out[0] = handler->Handle(context, admitted[0]);
  } else if (!admitted.empty()) {
    // Servers override HandleMany to amortize authorization across the
    // batch; a single message never pays for that.
    handler->HandleMany(context, admitted, out);
  }

  // Per-message completion: reply bounds (so whether a reply is accepted
  // never depends on a monitor being present), the reverse interceptor
  // chain (the innermost monitor sees the handler's reply first), then the
  // trace stages. A syscall's chain carries kSyscall instead of kCall.
  uint16_t flags = batched;
  if (!monitors.empty()) {
    flags |= kTraceFlagInterposed;
  }
  for (size_t j = 0; j < admitted.size(); ++j) {
    IpcReply& reply = out[j];
    if (Status bounds = CheckReplyWireBounds(reply); !bounds.ok()) {
      reply = IpcReply(std::move(bounds));
    }
    if (!monitors.empty()) {
      uint16_t reply_flags = flags;
      for (auto it = monitors.rbegin(); it != monitors.rend(); ++it) {
        if ((*it)->OnReply(context, admitted[j], reply) == InterposeVerdict::kDeny) {
          reply = IpcReply(PermissionDenied("reply blocked by reference monitor"));
          reply_flags |= kTraceFlagDenied;
          break;
        }
      }
      EmitIpcEvent(trace, TraceStage::kReplyInterpose, caller, admitted[j].op, port,
                   reply_flags, VerdictOf(reply));
    }
    if (!syscall) {
      EmitIpcEvent(trace, TraceStage::kCall, caller, admitted[j].op, port, flags,
                   VerdictOf(reply));
    }
    if (!dense) {
      replies[slot_of[j]] = std::move(reply);
    }
  }
  if (!fast && n > 1) {
    staging.working.clear();
    t_staging = std::move(staging);
  }
  if (monitors.capacity() != 0) {
    monitors.clear();
    t_chain = std::move(monitors);
  }
  size_t ok = 0;
  for (const IpcReply& reply : replies) {
    ok += reply.status.ok() ? 1 : 0;
  }
  return ok;
}

void Kernel::SnapshotInterceptors(PortId port, std::vector<Interceptor*>* active) const {
  if (!interposition_enabled_.load(std::memory_order_relaxed) ||
      interpose_count_.load(std::memory_order_acquire) == 0) {
    return;
  }
  std::shared_lock<std::shared_mutex> lock(interpose_mu_);
  for (auto it = interpositions_.rbegin(); it != interpositions_.rend(); ++it) {
    if (it->port == port) {
      if (active->capacity() == 0) {
        *active = std::move(t_chain);
      }
      active->push_back(it->interceptor);
    }
  }
}

// ---------------------------------------------------------- Interposition

Result<uint64_t> Kernel::Interpose(ProcessId monitor, PortId port, Interceptor* interceptor) {
  if (!SnapshotPort(port).has_value()) {
    return NotFound("no such port");
  }
  if (interceptor == nullptr) {
    return InvalidArgument("null interceptor");
  }
  // Interposition is itself a guarded operation: consent is expressed by a
  // goal formula on the port (§3.2). The op id is hoisted; the object name
  // is caller-influenced, so it interns through the charged surface.
  static const OpId interpose_op = InternOp("interpose");
  Result<ObjectId> object = InternObjectCharged(monitor, "port:" + std::to_string(port));
  if (!object.ok()) {
    return object.status();
  }
  Status authorized = Authorize(AuthzRequest{monitor, interpose_op, *object});
  if (!authorized.ok()) {
    return authorized;
  }
  uint64_t token = next_interpose_token_.fetch_add(1);
  std::unique_lock<std::shared_mutex> lock(interpose_mu_);
  interpositions_.push_back(Interposition{token, port, monitor, interceptor});
  // Release publish: the uninterposed fast path reads this count with
  // acquire and skips the interpose_mu_ shared lock entirely when zero.
  interpose_count_.store(interpositions_.size(), std::memory_order_release);
  return token;
}

Status Kernel::RemoveInterposition(uint64_t token) {
  std::unique_lock<std::shared_mutex> lock(interpose_mu_);
  for (auto it = interpositions_.begin(); it != interpositions_.end(); ++it) {
    if (it->token == token) {
      interpositions_.erase(it);
      interpose_count_.store(interpositions_.size(), std::memory_order_release);
      return OkStatus();
    }
  }
  return NotFound("no such interposition");
}

// -------------------------------------------------------------- Syscalls

IpcReply Kernel::SysNull(ProcessId, ProcessId, IpcMessage&) { return IpcReply::Ok(); }

IpcReply Kernel::SysGetPpid(ProcessId, ProcessId parent, IpcMessage&) {
  return IpcReply::Ok().AddU64(parent);
}

IpcReply Kernel::SysGetTimeOfDay(ProcessId, ProcessId, IpcMessage&) {
  return IpcReply::Ok().AddU64(NowMicros());
}

IpcReply Kernel::SysYield(ProcessId caller, ProcessId, IpcMessage&) {
  std::unique_lock<std::mutex> lock(sched_mu_);
  Result<ProcessId> next = scheduler_->Tick();
  lock.unlock();
  return IpcReply::Ok().AddU64(next.ok() ? *next : caller);
}

IpcReply Kernel::SysFileForward(ProcessId caller, ProcessId, IpcMessage& working) {
  PortId fs_port = fs_port_.load();
  if (fs_port == 0) {
    return IpcReply(Unavailable("no filesystem server"));
  }
  // Client-server microkernel architecture: the file operation is one
  // more IPC hop to the user-level server (Table 1's 2-3x). The op is
  // already the hoisted syscall id; no string is built for the hop.
  return Call(caller, fs_port, working);
}

IpcReply Kernel::SysControl(ProcessId, ProcessId, IpcMessage&) {
  // Control operations are handled by the core layer (which owns label
  // and goal stores); reaching the raw kernel is a wiring error.
  return IpcReply(Unavailable("control syscall not wired to an authorization engine"));
}

IpcReply Kernel::SysProcRead(ProcessId caller, ProcessId, IpcMessage& working) {
  // Paths are inherently text; everything derived from one is memoized.
  Result<std::string_view> path = working.ArgString(0);
  if (!path.ok()) {
    return IpcReply(InvalidArgument("proc_read needs a path"));
  }
  // Interned fast path: the op id is hoisted once, and the
  // "proc:<path>" object id is built exactly once per novel path —
  // repeat reads find it in the memo with no concatenation. The memo
  // miss interns through the charged surface (a process probing
  // endless novel proc paths exhausts its own name quota, not the
  // table).
  static const OpId read_op = InternOp("read");
  Result<ObjectId> object = ProcObjectFor(caller, *path);
  if (!object.ok()) {
    return IpcReply(object.status());
  }
  Status authorized = Authorize(AuthzRequest{caller, read_op, *object});
  if (!authorized.ok()) {
    return IpcReply(authorized);
  }
  Result<std::string> value = procfs_.Read(*path);
  if (!value.ok()) {
    return IpcReply(value.status());
  }
  return IpcReply::Ok().AddString(*value);
}

IpcReply Kernel::SysIpcCall(ProcessId caller, ProcessId, IpcMessage& working) {
  if (working.args.empty()) {
    return IpcReply(InvalidArgument("ipc_call needs a port"));
  }
  Result<PortId> port = working.ArgPort(0);
  if (!port.ok()) {
    return IpcReply(InvalidArgument("ipc_call: port must be a port id"));
  }
  IpcMessage inner;
  if (working.args.size() > 1) {
    // args[1] is the inner operation's interned id. A value that names no
    // interned operation must not truncate onto one.
    Result<uint64_t> op = working.ArgU64(1);
    if (!op.ok() || !IsKnownOpId(*op)) {
      return IpcReply(InvalidArgument("ipc_call: operation must be a known op id"));
    }
    inner.op = static_cast<OpId>(*op);
    // Tail() aliases the outer arena for payload slots — the inner
    // message forwards the caller's bytes by reference, not by copy.
    inner.args = working.args.Tail(2);
  }
  inner.data = std::move(working.data);
  return Call(caller, *port, inner);
}

// ---------------------------------------------------------- Authorization

namespace {

// One decision-plane event (kCacheProbe or kVerdict) for `request`; callers
// emit only under an active trace.
void EmitAuthzEvent(const TraceScope& trace, TraceStage stage, const AuthzRequest& request,
                    uint64_t generation, uint16_t flags, uint8_t verdict, uint32_t latency = 0,
                    uint64_t aux = 0) {
  TraceEvent e;
  e.trace_id = trace.id();
  e.subject = request.subject;
  e.op = request.op;
  e.obj = request.obj;
  e.generation = generation;
  e.flags = flags;
  e.verdict = verdict;
  e.latency = latency;
  e.aux = aux;
  e.stage = stage;
  FlightRecorder::Global().Emit(e);
}

// A miss waiting for the engine: its slot in the caller's span and the
// subregion generation snapshotted before the upcall.
struct PendingMiss {
  size_t slot = 0;
  uint64_t generation = 0;
};

}  // namespace

Status Kernel::Authorize(const AuthzRequest& request) {
  Status verdict;
  AuthorizeRequests(std::span<const AuthzRequest>(&request, 1), std::span<Status>(&verdict, 1));
  return verdict;
}

std::vector<Status> Kernel::AuthorizeBatch(std::span<const AuthzRequest> requests) {
  std::vector<Status> verdicts(requests.size());
  AuthorizeRequests(requests, verdicts);
  return verdicts;
}

void Kernel::AuthorizeRequests(std::span<const AuthzRequest> requests,
                               std::span<Status> verdicts) {
  if (engine_ == nullptr) {
    return;  // Authorization disabled (Fig. 4 case "system call").
  }
  const size_t n = requests.size();
  authorize_requests_->Increment(n);
  // Adopts the surrounding Call's trace id when one is active (the usual
  // case: a server authorizes inside the Call); at the root it opens its
  // own. A batch shares one id: its requests share one evaluation.
  TraceScope trace;
  const bool cache_enabled = decision_cache_enabled_.load();
  // Misses wait here for one engine upcall. A single request's miss stays
  // on the stack; a batch's misses are collected in vectors, sized at its
  // first miss.
  AuthzRequest one_miss;
  PendingMiss one_pending;
  std::vector<AuthzRequest> batch_misses;
  std::vector<PendingMiss> batch_pending;
  std::span<AuthzRequest> misses(&one_miss, 1);
  std::span<PendingMiss> pending(&one_pending, 1);
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const AuthzRequest& request = requests[i];
    // A run of identical tuples (a batched server asking the same question
    // per message) shares its head's probe and verdict, copied below: the
    // batch serializes at one authorization point, so asking again inside
    // it could not observe a different answer.
    if (i > 0 && request == requests[i - 1]) {
      continue;
    }
    std::optional<bool> cached;
    uint64_t generation = 0;
    if (cache_enabled) {
      // The probe yields the subregion generation it ran under. It stamps
      // a traced probe and hit, and a miss carries it as the snapshot for
      // the engine upcall, which runs outside the cache locks:
      // InsertIfUnchanged then drops a verdict that raced a setgoal/setproof
      // invalidation instead of caching it stale.
      cached = decision_cache_.Lookup(request, &generation);
      if (trace.active()) {
        EmitAuthzEvent(trace, TraceStage::kCacheProbe, request, generation,
                       cached.has_value() ? kTraceFlagCacheHit : kTraceFlagCacheMiss,
                       kTraceVerdictNone);
      }
    }
    if (cached.has_value()) {
      if (!*cached) {
        authorize_denies_->Increment();
        // Short enough for std::string's inline buffer: a cached deny
        // allocates nothing.
        verdicts[i] = PermissionDenied("cached deny");
      }
      if (trace.active()) {
        // A hit is valid exactly under the generation its probe read
        // (Lookup only returns entries stamped with that generation).
        EmitAuthzEvent(trace, TraceStage::kVerdict, request, generation,
                       kTraceFlagCacheHit | (*cached ? uint16_t{0} : kTraceFlagDenied),
                       *cached ? kTraceVerdictAllow : kTraceVerdictDeny);
      }
      continue;
    }
    if (n > 1 && m == 0) {
      batch_misses.resize(n);
      batch_pending.resize(n);
      misses = batch_misses;
      pending = batch_pending;
    }
    // The engine sees the trace id (0 when untraced), so the guard,
    // designated-guard upcall and remote authorities tag their events.
    misses[m] = request;
    if (misses[m].trace == 0) {
      misses[m].trace = trace.id();
    }
    pending[m++] = PendingMiss{i, generation};
  }

  // One miss goes to the engine's single path; a batch's misses go in one
  // AuthorizeBatch upcall, which amortizes credential collection and
  // deduplicates authority consultations. A miss crosses the engine (proof
  // check, possibly remote round trips), so a cycle read here is free
  // relative to what it measures.
  const uint64_t start = trace.active() && m > 0 ? ReadCycleCounter() : 0;
  auto finish = [&](std::span<const AuthzDecision> decisions) {
    const uint32_t elapsed =
        trace.active() ? static_cast<uint32_t>(ReadCycleCounter() - start) : 0;
    if (trace.active()) {
      authorize_cycles_->Record(elapsed);
    }
    for (size_t j = 0; j < decisions.size(); ++j) {
      const AuthzRequest& request = requests[pending[j].slot];
      const AuthzDecision& decision = decisions[j];
      if (cache_enabled && decision.cacheable) {
        decision_cache_.InsertIfUnchanged(request, decision.allowed(), pending[j].generation);
      }
      if (!decision.allowed()) {
        authorize_denies_->Increment();
        verdicts[pending[j].slot] = decision.ToStatus();
      }
      if (trace.active()) {
        // Re-read after the engine returned: with the probe's stamp this
        // brackets the verdict's validity window [probe gen, this gen],
        // the auditor's serializability join key.
        EmitAuthzEvent(trace, TraceStage::kVerdict, request,
                       cache_enabled ? decision_cache_.Generation(request) : 0,
                       static_cast<uint16_t>((cache_enabled ? kTraceFlagCacheMiss : 0) |
                                             (decision.cacheable ? 0 : kTraceFlagUncacheable) |
                                             (decision.allowed() ? 0 : kTraceFlagDenied)),
                       decision.allowed() ? kTraceVerdictAllow : kTraceVerdictDeny, elapsed,
                       decision.consulted_authorities);
      }
    }
  };
  if (m == 1) {
    const AuthzDecision decision = engine_->Authorize(misses[0]);
    finish(std::span<const AuthzDecision>(&decision, 1));
  } else if (m > 1) {
    finish(engine_->AuthorizeBatch(misses.first(m)));
  }
  // Run members take their head's verdict (they arrived OK, so only a
  // denial is copied); deny accounting stays per request, matching the
  // single path.
  for (size_t i = 1; i < n; ++i) {
    if (requests[i] == requests[i - 1] && !verdicts[i - 1].ok()) {
      verdicts[i] = verdicts[i - 1];
      authorize_denies_->Increment();
    }
  }
}

ProcessId Kernel::QuotaRootOf(ProcessId subject) const {
  const ProcessShard& shard = process_shards_[ShardOfId(subject)];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.procs.find(subject);
  return it != shard.procs.end() ? it->second.quota_root : subject;
}

Result<ObjectId> Kernel::InternObjectCharged(ProcessId subject, std::string_view object) {
  // Length-bounded: the quota caps the COUNT of novel names, so without a
  // size bound each charge could pin arbitrary memory in the immortal
  // append-only table. The bound is the wire's per-slot payload cap plus
  // headroom for server-added prefixes ("file:", "proc:", "port:<id>") — a
  // maximum-length path the wire accepts must intern.
  if (object.size() > kMaxObjectNameLen) {
    return InvalidArgument("object name too long");
  }
  size_t cap = object_name_quota_.load();
  if (cap == 0) {
    return InternObject(object);  // Quotas disabled.
  }
  // Already-interned names cost nothing: the common case (every repeat
  // authorization of a known object) takes one striped Find probe and
  // never touches the quota lock.
  std::optional<ObjectId> existing = FindObject(object);
  if (existing.has_value()) {
    return *existing;
  }
  ProcessId root = QuotaRootOf(subject);
  // Charging serializes on one mutex, but only for genuinely novel names —
  // a workload that stays inside its working set never lands here. A root
  // at its cap is denied with a reason BEFORE the table can grow.
  std::lock_guard<std::mutex> lock(name_quota_mu_);
  size_t& charged = object_names_charged_[root];
  if (charged >= cap) {
    return ResourceExhausted("object name quota exhausted for quota root " +
                             std::to_string(root) + " (" + std::to_string(cap) +
                             " novel names); denied before interning \"" +
                             std::string(object) + "\"");
  }
  bool created = false;
  ObjectId id = ObjectTable().Intern(object, &created);
  if (created) {
    ++charged;
  }
  return id;
}

Result<ObjectId> Kernel::ProcObjectFor(ProcessId caller, std::string_view path) {
  {
    std::shared_lock<std::shared_mutex> lock(proc_memo_mu_);
    auto it = proc_object_memo_.find(path);
    if (it != proc_object_memo_.end()) {
      return it->second;  // Memoized: no concatenation, no intern probe.
    }
  }
  // First sight of this path: build "proc:<path>" once and intern it
  // through the charged surface. Quota denials are NOT memoized — a root
  // whose budget frees up (quota raised at runtime) must be able to retry.
  Result<ObjectId> object = InternObjectCharged(caller, "proc:" + std::string(path));
  if (object.ok()) {
    std::unique_lock<std::shared_mutex> lock(proc_memo_mu_);
    proc_object_memo_.emplace(std::string(path), *object);
  }
  return object;
}

void Kernel::OnProofUpdate(const AuthzRequest& request, uint64_t* post_gen) {
  decision_cache_.InvalidateEntry(request, post_gen);
  if (invalidation_sink_) {
    invalidation_sink_(request.op, request.obj);
  }
}

void Kernel::OnGoalUpdate(OpId op, ObjectId obj, std::vector<uint64_t>* post_gens) {
  decision_cache_.InvalidateSubregion(op, obj, post_gens);
  if (invalidation_sink_) {
    invalidation_sink_(op, obj);
  }
}

}  // namespace nexus::kernel

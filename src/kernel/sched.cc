#include "kernel/sched.h"

#include <algorithm>

namespace nexus::kernel {

Status StrideScheduler::AddClient(ProcessId pid, uint32_t weight) {
  if (weight == 0) {
    return InvalidArgument("weight must be positive");
  }
  if (clients_.contains(pid)) {
    return AlreadyExists("client already scheduled");
  }
  // A new client starts at the minimum live pass so it cannot monopolize
  // past quanta nor be starved.
  uint64_t min_pass = 0;
  if (!clients_.empty()) {
    min_pass = UINT64_MAX;
    for (const auto& [id, c] : clients_) {
      min_pass = std::min(min_pass, c.pass);
    }
  }
  Client c;
  c.weight = weight;
  c.stride = kStrideUnit / weight;
  c.pass = min_pass;
  clients_[pid] = c;
  return OkStatus();
}

Status StrideScheduler::RemoveClient(ProcessId pid) {
  if (clients_.erase(pid) == 0) {
    return NotFound("client not scheduled");
  }
  return OkStatus();
}

Status StrideScheduler::SetWeight(ProcessId pid, uint32_t weight) {
  if (weight == 0) {
    return InvalidArgument("weight must be positive");
  }
  auto it = clients_.find(pid);
  if (it == clients_.end()) {
    return NotFound("client not scheduled");
  }
  it->second.weight = weight;
  it->second.stride = kStrideUnit / weight;
  return OkStatus();
}

Result<ProcessId> StrideScheduler::Tick() {
  if (clients_.empty()) {
    return FailedPrecondition("no runnable clients");
  }
  auto best = clients_.begin();
  for (auto it = clients_.begin(); it != clients_.end(); ++it) {
    if (it->second.pass < best->second.pass) {
      best = it;
    }
  }
  best->second.pass += best->second.stride;
  ++best->second.quanta;
  ++total_quanta_;
  return best->first;
}

uint64_t StrideScheduler::QuantaReceived(ProcessId pid) const {
  auto it = clients_.find(pid);
  return it == clients_.end() ? 0 : it->second.quanta;
}

std::vector<ProcessId> StrideScheduler::Clients() const {
  std::vector<ProcessId> out;
  out.reserve(clients_.size());
  for (const auto& [pid, c] : clients_) {
    out.push_back(pid);
  }
  return out;
}

uint32_t StrideScheduler::Weight(ProcessId pid) const {
  auto it = clients_.find(pid);
  return it == clients_.end() ? 0 : it->second.weight;
}

}  // namespace nexus::kernel

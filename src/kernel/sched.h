// The CPU scheduler (§4.1, "Resource Attestation").
//
// Fauxbook's resource-attestation guarantee relies on a proportional-share
// scheduler whose internal allocation state is visible through the
// introspection interface: a labeling function reads per-tenant weights and
// realized shares and vouches that the provider delivers the contracted
// fraction of the CPU. Stride scheduling provides that proportional share.
#ifndef NEXUS_KERNEL_SCHED_H_
#define NEXUS_KERNEL_SCHED_H_

#include <cstdint>
#include <map>
#include <vector>

#include "kernel/types.h"
#include "util/status.h"

namespace nexus::kernel {

// Stride scheduling: client with weight w receives w / sum(w) of quanta,
// with O(log n) selection via pass values (linear scan here; client counts
// are small).
class StrideScheduler {
 public:
  Status AddClient(ProcessId pid, uint32_t weight);
  Status RemoveClient(ProcessId pid);
  Status SetWeight(ProcessId pid, uint32_t weight);
  // Picks the next process to run and accounts one quantum to it.
  Result<ProcessId> Tick();
  uint64_t QuantaReceived(ProcessId pid) const;
  uint64_t TotalQuanta() const { return total_quanta_; }
  std::vector<ProcessId> Clients() const;
  uint32_t Weight(ProcessId pid) const;

 private:
  static constexpr uint64_t kStrideUnit = 1 << 20;

  struct Client {
    uint32_t weight = 1;
    uint64_t stride = kStrideUnit;
    uint64_t pass = 0;
    uint64_t quanta = 0;
  };

  std::map<ProcessId, Client> clients_;
  uint64_t total_quanta_ = 0;
};

}  // namespace nexus::kernel

#endif  // NEXUS_KERNEL_SCHED_H_

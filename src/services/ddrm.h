// Device Driver Reference Monitor (DDRM) — the synthetic basis for trust
// applied to drivers (§4.1, [Williams et al., OSDI 2008]).
//
// A DDRM interposes on a user-level driver's IPC and constrains it to a
// device-safety policy: which operations it may perform, whether it may
// touch packet/page contents, and which IPC targets it may reach. A
// monitored driver can then *prove* properties like "forwards packets
// unmodified between the NIC and the web server" — the monitor issues the
// corresponding labels, because it is what enforces them.
#ifndef NEXUS_SERVICES_DDRM_H_
#define NEXUS_SERVICES_DDRM_H_

#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "kernel/kernel.h"
#include "util/metrics.h"

namespace nexus::services {

struct DdrmPolicy {
  // Operations the driver may invoke ("dma_setup", "send", "recv", ...).
  std::set<std::string> allowed_operations;
  // May the driver read or write the contents of the pages it manages?
  // (NIC drivers can do DMA setup without content access.)
  bool allow_page_content_access = false;
  // IPC destinations the driver may message (by port). Empty = any.
  std::set<kernel::PortId> allowed_ipc_targets;
};

class DeviceDriverMonitor : public kernel::Interceptor {
 public:
  // `cache_decisions` picks how OnCall decides, the two monitor rows of
  // Fig. 7: from the verdict table built here (kref-min) or by a proof
  // check per message (kref-max).
  explicit DeviceDriverMonitor(DdrmPolicy policy, bool cache_decisions = true);

  // Safe for concurrent callers on either path.
  kernel::InterposeVerdict OnCall(const kernel::IpcContext& context,
                                  kernel::IpcMessage& message) override;

  // Issues the monitor's attestations about the driver it constrains:
  //   <monitor> says mediated(/proc/ipd/<driver>)
  //   <monitor> says not canReadPages(/proc/ipd/<driver>)   [if applicable]
  Status AttestDriver(core::Engine* engine, kernel::ProcessId self,
                      kernel::ProcessId driver) const;

  // "ddrm.*" counters; a fresh monitor reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }
  const DdrmPolicy& policy() const { return policy_; }

 private:
  // May the driver invoke `op` at all? A NAL proof check of
  // `Policy says allows(<op>)` against the policy's labels, as the paper's
  // monitors decide, then the page-content rule.
  bool OperationAllowed(kernel::OpId op) const;
  // The ipc_send target rule, an integer check that both paths make per
  // call: the target is the message's first slot.
  bool TargetAllowed(const kernel::IpcMessage& message) const;

  DdrmPolicy policy_;
  bool cache_decisions_;
  // `Policy says allows(<op>)` for each allowed operation. Pre-built.
  std::vector<nal::Formula> policy_credentials_;
  // The verdict table, the reference-monitor decision cache of Fig. 7:
  // the sorted ids of every operation OperationAllowed admits. The
  // constructor builds it and nothing writes it after, so the cached path
  // reads it with no lock and allocates nothing. An op absent from it,
  // including one interned after construction, is denied.
  std::vector<kernel::OpId> allowed_ops_;
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "ddrm"};
  struct {
    metrics::Counter* allowed;
    metrics::Counter* denied;
  } stats_{metrics_.NewCounter("allowed"), metrics_.NewCounter("denied")};
};

}  // namespace nexus::services

#endif  // NEXUS_SERVICES_DDRM_H_

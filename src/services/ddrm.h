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

#include <map>
#include <set>
#include <string>
#include <tuple>

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
  explicit DeviceDriverMonitor(DdrmPolicy policy, bool cache_decisions = true);

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
  bool Evaluate(const kernel::IpcMessage& message);

  DdrmPolicy policy_;
  bool cache_decisions_;
  // Verdict memo keyed by (interned op id, arg shape, target): models the
  // reference-monitor decision cache measured in Fig. 7 (min vs max).
  // Integer keys — the cached path builds no strings (typed ABI v2). The
  // shape discriminator keeps a no-arg ipc_send distinct from "port 0",
  // and calls the memo cannot key faithfully (targets that are not port
  // ids) are simply not memoized.
  enum class MemoShape : uint8_t { kPlain, kTarget };
  using MemoKey = std::tuple<kernel::OpId, MemoShape, uint64_t>;
  std::map<MemoKey, bool> decision_memo_;
  // The uncached path evaluates the policy as the paper's monitors do: a
  // NAL proof check of `Policy says allows(<op>)` against the policy's
  // labels. Pre-built at construction.
  std::vector<nal::Formula> policy_credentials_;
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "ddrm"};
  struct {
    metrics::Counter* allowed;
    metrics::Counter* denied;
  } stats_{metrics_.NewCounter("allowed"), metrics_.NewCounter("denied")};
};

}  // namespace nexus::services

#endif  // NEXUS_SERVICES_DDRM_H_

// The IPC connectivity analyzer (§2.2): the paper's flagship *analytic*
// basis for trust.
//
// Enumerates the transitive IPC connection graph through the kernel's
// introspection interface. Because Nexus disk and network drivers live in
// user space and are reachable only via IPC, a process whose transitive
// reach excludes those drivers provably has no channel to disk or network —
// without ever revealing the process's binary hash (the movie-player
// scenario).
#ifndef NEXUS_SERVICES_IPC_ANALYZER_H_
#define NEXUS_SERVICES_IPC_ANALYZER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/engine.h"
#include "kernel/kernel.h"

namespace nexus::services {

class IpcAnalyzer {
 public:
  // `self` is the process identity the analyzer's labels are attributed to.
  IpcAnalyzer(kernel::Kernel* kernel, core::Engine* engine, kernel::ProcessId self);

  // Transitive reachability over the current IPC graph: `from` reaches `to`
  // if it holds a channel to a port owned by `to`, or to any process that
  // transitively reaches `to`.
  bool HasPath(kernel::ProcessId from, kernel::ProcessId to) const;

  // Every process reachable from `from` (excluding `from` itself unless it
  // loops back).
  std::set<kernel::ProcessId> ReachableFrom(kernel::ProcessId from) const;

  // Issues the label
  //   <analyzer> says not hasPath(/proc/ipd/<subject>, <target-name>)
  // into the analyzer's labelstore, where <target-name> covers every live
  // process with that name. Fails if a path exists.
  Result<core::LabelHandle> AttestNoPath(kernel::ProcessId subject,
                                         const std::string& target_name);

  // Positive form: <analyzer> says hasPath(...). Fails if no path exists.
  Result<core::LabelHandle> AttestPath(kernel::ProcessId subject,
                                       const std::string& target_name);

  // ---------------------------------------------- observed traffic (trace)
  // The static channel graph above says who COULD talk; the flight
  // recorder says who DID. These walk every retained kCall event of every
  // ring (subject = caller, aux = destination port) and resolve each port to
  // its owner, yielding caller->callee edges weighted by call count. Only
  // meaningful while FlightRecorder::Global() is enabled; ports whose
  // owner died resolve to no edge.
  std::map<std::pair<kernel::ProcessId, kernel::ProcessId>, uint64_t> ObservedEdges() const;
  // Calls observed from `from` to any port owned by `to`.
  uint64_t ObservedTraffic(kernel::ProcessId from, kernel::ProcessId to) const;

 private:
  std::set<kernel::ProcessId> ProcessesNamed(const std::string& name) const;

  kernel::Kernel* kernel_;
  core::Engine* engine_;
  kernel::ProcessId self_;
};

}  // namespace nexus::services

#endif  // NEXUS_SERVICES_IPC_ANALYZER_H_

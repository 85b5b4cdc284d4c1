#include "services/ipc_analyzer.h"

#include <vector>

#include "kernel/trace.h"

namespace nexus::services {

IpcAnalyzer::IpcAnalyzer(kernel::Kernel* kernel, core::Engine* engine, kernel::ProcessId self)
    : kernel_(kernel), engine_(engine), self_(self) {}

std::set<kernel::ProcessId> IpcAnalyzer::ReachableFrom(kernel::ProcessId from) const {
  // One coherent snapshot of the channel graph: the analyzer's answer is
  // exact for the instant of the snapshot even while lifecycle churn
  // rewires channels concurrently.
  const std::map<kernel::ProcessId, std::set<kernel::PortId>> graph =
      kernel_->ChannelsSnapshot();
  std::set<kernel::ProcessId> visited;
  std::vector<kernel::ProcessId> frontier = {from};
  while (!frontier.empty()) {
    kernel::ProcessId current = frontier.back();
    frontier.pop_back();
    auto channels = graph.find(current);
    if (channels == graph.end()) {
      continue;
    }
    for (kernel::PortId port : channels->second) {
      Result<kernel::ProcessId> owner = kernel_->PortOwner(port);
      if (!owner.ok()) {
        continue;
      }
      if (visited.insert(*owner).second) {
        frontier.push_back(*owner);
      }
    }
  }
  return visited;
}

bool IpcAnalyzer::HasPath(kernel::ProcessId from, kernel::ProcessId to) const {
  return ReachableFrom(from).contains(to);
}

std::map<std::pair<kernel::ProcessId, kernel::ProcessId>, uint64_t> IpcAnalyzer::ObservedEdges()
    const {
  std::map<std::pair<kernel::ProcessId, kernel::ProcessId>, uint64_t> edges;
  // Port ownership is resolved at read time, once per distinct port.
  std::map<kernel::PortId, Result<kernel::ProcessId>> owners;
  for (const kernel::TraceEvent& event : kernel::FlightRecorder::Global().Recent()) {
    if (event.stage != kernel::TraceStage::kCall) {
      continue;
    }
    auto port = static_cast<kernel::PortId>(event.aux);
    auto [it, inserted] = owners.try_emplace(port, kernel::ProcessId{0});
    if (inserted) {
      it->second = kernel_->PortOwner(port);
    }
    if (!it->second.ok()) {
      continue;
    }
    ++edges[{event.subject, *it->second}];
  }
  return edges;
}

uint64_t IpcAnalyzer::ObservedTraffic(kernel::ProcessId from, kernel::ProcessId to) const {
  uint64_t total = 0;
  for (const auto& [edge, count] : ObservedEdges()) {
    if (edge.first == from && edge.second == to) {
      total += count;
    }
  }
  return total;
}

std::set<kernel::ProcessId> IpcAnalyzer::ProcessesNamed(const std::string& name) const {
  std::set<kernel::ProcessId> out;
  for (kernel::ProcessId pid : kernel_->Processes()) {
    Result<const kernel::Process*> p = kernel_->GetProcess(pid);
    if (p.ok() && (*p)->name == name) {
      out.insert(pid);
    }
  }
  return out;
}

Result<core::LabelHandle> IpcAnalyzer::AttestNoPath(kernel::ProcessId subject,
                                                    const std::string& target_name) {
  std::set<kernel::ProcessId> targets = ProcessesNamed(target_name);
  std::set<kernel::ProcessId> reachable = ReachableFrom(subject);
  for (kernel::ProcessId t : targets) {
    if (reachable.contains(t)) {
      return FailedPrecondition("subject has an IPC path to " + target_name + " (pid " +
                                std::to_string(t) + "); refusing to attest otherwise");
    }
  }
  nal::Formula statement = nal::FormulaNode::Not(nal::FormulaNode::Pred(
      "hasPath", {nal::Term::Symbol(kernel::Kernel::ProcPath(subject)),
                  nal::Term::Symbol(target_name)}));
  return engine_->SayFormula(self_, statement);
}

Result<core::LabelHandle> IpcAnalyzer::AttestPath(kernel::ProcessId subject,
                                                  const std::string& target_name) {
  std::set<kernel::ProcessId> targets = ProcessesNamed(target_name);
  std::set<kernel::ProcessId> reachable = ReachableFrom(subject);
  bool found = false;
  for (kernel::ProcessId t : targets) {
    if (reachable.contains(t)) {
      found = true;
      break;
    }
  }
  if (!found) {
    return FailedPrecondition("no IPC path from subject to " + target_name);
  }
  nal::Formula statement = nal::FormulaNode::Pred(
      "hasPath", {nal::Term::Symbol(kernel::Kernel::ProcPath(subject)),
                  nal::Term::Symbol(target_name)});
  return engine_->SayFormula(self_, statement);
}

}  // namespace nexus::services

#include "services/ddrm.h"

#include <algorithm>

#include "nal/checker.h"
#include "nal/proof.h"

namespace nexus::services {

namespace {

// Hoisted: the content-access and IPC-target rules compare interned ids,
// not operation strings.
const kernel::OpId kReadPageOp = kernel::InternOp("read_page");
const kernel::OpId kWritePageOp = kernel::InternOp("write_page");
const kernel::OpId kIpcSendOp = kernel::InternOp("ipc_send");

nal::Formula AllowsFormula(std::string_view operation) {
  return nal::FormulaNode::Says(
      nal::Principal("Policy"),
      nal::FormulaNode::Pred("allows", {nal::Term::Symbol(std::string(operation))}));
}

}  // namespace

DeviceDriverMonitor::DeviceDriverMonitor(DdrmPolicy policy, bool cache_decisions)
    : policy_(std::move(policy)), cache_decisions_(cache_decisions) {
  for (const std::string& operation : policy_.allowed_operations) {
    policy_credentials_.push_back(AllowsFormula(operation));
  }
  for (const std::string& operation : policy_.allowed_operations) {
    const kernel::OpId op = kernel::InternOp(operation);
    if (OperationAllowed(op)) {
      allowed_ops_.push_back(op);
    }
  }
  std::sort(allowed_ops_.begin(), allowed_ops_.end());
}

bool DeviceDriverMonitor::OperationAllowed(kernel::OpId op) const {
  // The policy question "may this driver invoke <op>?" is discharged as a
  // proof check against the policy labels — the guard machinery a Nexus
  // reference monitor really runs. The verdict table holds its outcome
  // for every allowed operation.
  nal::Formula goal = AllowsFormula(kernel::OpName(op));
  nal::CheckResult checked =
      nal::CheckProof(nal::proof::Premise(goal), goal, policy_credentials_);
  if (!checked.status.ok()) {
    return false;
  }
  return policy_.allow_page_content_access || (op != kReadPageOp && op != kWritePageOp);
}

bool DeviceDriverMonitor::TargetAllowed(const kernel::IpcMessage& message) const {
  if (message.op != kIpcSendOp || policy_.allowed_ipc_targets.empty()) {
    return true;
  }
  // The target port is an integer slot; anything else is a deny.
  Result<kernel::PortId> target = message.ArgPort(0);
  return target.ok() && policy_.allowed_ipc_targets.contains(*target);
}

kernel::InterposeVerdict DeviceDriverMonitor::OnCall(const kernel::IpcContext& context,
                                                     kernel::IpcMessage& message) {
  (void)context;
  const bool operation_allowed =
      cache_decisions_ ? std::binary_search(allowed_ops_.begin(), allowed_ops_.end(), message.op)
                       : OperationAllowed(message.op);
  if (operation_allowed && TargetAllowed(message)) {
    stats_.allowed->Increment();
    return kernel::InterposeVerdict::kAllow;
  }
  stats_.denied->Increment();
  return kernel::InterposeVerdict::kDeny;
}

Status DeviceDriverMonitor::AttestDriver(core::Engine* engine, kernel::ProcessId self,
                                         kernel::ProcessId driver) const {
  std::string driver_path = kernel::Kernel::ProcPath(driver);
  Result<core::LabelHandle> mediated = engine->SayFormula(
      self, nal::FormulaNode::Pred("mediated", {nal::Term::Symbol(driver_path)}));
  if (!mediated.ok()) {
    return mediated.status();
  }
  if (!policy_.allow_page_content_access) {
    Result<core::LabelHandle> no_read = engine->SayFormula(
        self, nal::FormulaNode::Not(
                  nal::FormulaNode::Pred("canReadPages", {nal::Term::Symbol(driver_path)})));
    if (!no_read.ok()) {
      return no_read.status();
    }
  }
  return OkStatus();
}

}  // namespace nexus::services

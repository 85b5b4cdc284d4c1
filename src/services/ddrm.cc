#include "services/ddrm.h"

#include "nal/checker.h"
#include "nal/proof.h"

namespace nexus::services {

namespace {

// Hoisted: the content-access and IPC-target policy hooks compare interned
// ids, not operation strings, on every intercepted call.
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
}

bool DeviceDriverMonitor::Evaluate(const kernel::IpcMessage& message) {
  // The policy question "may this driver invoke <op>?" is discharged as a
  // proof check against the policy labels — the guard machinery a Nexus
  // reference monitor really runs. The memo above caches its outcome.
  nal::Formula goal = AllowsFormula(message.operation());
  nal::CheckResult checked =
      nal::CheckProof(nal::proof::Premise(goal), goal, policy_credentials_);
  if (!checked.status.ok()) {
    return false;
  }
  if (!policy_.allow_page_content_access &&
      (message.op == kReadPageOp || message.op == kWritePageOp)) {
    return false;
  }
  if (message.op == kIpcSendOp && !policy_.allowed_ipc_targets.empty()) {
    // The target port is an integer slot; anything else is a deny.
    Result<kernel::PortId> target = message.ArgPort(0);
    if (!target.ok() || !policy_.allowed_ipc_targets.contains(*target)) {
      return false;
    }
  }
  return true;
}

kernel::InterposeVerdict DeviceDriverMonitor::OnCall(const kernel::IpcContext& context,
                                                     kernel::IpcMessage& message) {
  (void)context;
  bool allowed;
  // Only memoize calls the integer key can represent faithfully: for
  // ipc_send, a port-id target. Everything else (garbage targets)
  // evaluates fresh, so no verdict is ever replayed for a different call
  // shape than the one that produced it.
  bool memoizable = cache_decisions_;
  MemoKey key{message.op, MemoShape::kPlain, 0};
  if (memoizable && message.op == kIpcSendOp && !message.args.empty()) {
    Result<kernel::PortId> target = message.ArgPort(0);
    if (target.ok()) {
      key = MemoKey{message.op, MemoShape::kTarget, *target};
    } else {
      memoizable = false;
    }
  }
  if (memoizable) {
    auto it = decision_memo_.find(key);
    if (it != decision_memo_.end()) {
      allowed = it->second;
    } else {
      allowed = Evaluate(message);
      decision_memo_[key] = allowed;
    }
  } else {
    allowed = Evaluate(message);
  }
  if (allowed) {
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

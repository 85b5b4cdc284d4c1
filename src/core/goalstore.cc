#include "core/goalstore.h"

namespace nexus::core {

Status ValidateAuthzName(std::string_view name, std::string_view what) {
  if (name.find('\x1f') != std::string_view::npos) {
    return InvalidArgument(std::string(what) +
                           " names may not contain the reserved separator \\x1f");
  }
  return OkStatus();
}

Status GoalStore::SetGoal(kernel::OpId op, kernel::ObjectId obj, nal::Formula goal,
                          kernel::PortId guard_port) {
  if (goal == nullptr) {
    return InvalidArgument("null goal formula");
  }
  nal::Interner& interner = nal::Interner::Global();
  nal::FormulaId goal_id = interner.Intern(goal);
  std::unique_lock<std::shared_mutex> lock(mu_);
  goals_[Key(op, obj)] = GoalEntry{interner.Resolve(goal_id), goal_id, guard_port};
  return OkStatus();
}

Status GoalStore::SetGoal(const std::string& operation, const std::string& object,
                          nal::Formula goal, kernel::PortId guard_port) {
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(operation, "operation"));
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(object, "object"));
  return SetGoal(kernel::InternOp(operation), kernel::InternObject(object), std::move(goal),
                 guard_port);
}

Status GoalStore::ClearGoal(kernel::OpId op, kernel::ObjectId obj) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (goals_.erase(Key(op, obj)) == 0) {
    return NotFound("no goal for " + std::string(kernel::OpName(op)) + " on " +
                    std::string(kernel::ObjectName(obj)));
  }
  return OkStatus();
}

std::optional<GoalEntry> GoalStore::Get(kernel::OpId op, kernel::ObjectId obj) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = goals_.find(Key(op, obj));
  if (it == goals_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Status ObjectRegistry::Register(kernel::ObjectId object, kernel::ProcessId owner,
                                kernel::ProcessId manager) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_[object] = Entry{owner, manager};
  return OkStatus();
}

Status ObjectRegistry::Register(const std::string& object, kernel::ProcessId owner,
                                kernel::ProcessId manager) {
  NEXUS_RETURN_IF_ERROR(ValidateAuthzName(object, "object"));
  return Register(kernel::InternObject(object), owner, manager);
}

Status ObjectRegistry::TransferOwnership(kernel::ObjectId object,
                                         kernel::ProcessId new_owner) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(object);
  if (it == entries_.end()) {
    return NotFound("unknown object: " + std::string(kernel::ObjectName(object)));
  }
  it->second.owner = new_owner;
  return OkStatus();
}

std::optional<kernel::ProcessId> ObjectRegistry::Owner(kernel::ObjectId object) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(object);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second.owner;
}

std::optional<kernel::ProcessId> ObjectRegistry::Manager(kernel::ObjectId object) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(object);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second.manager;
}

}  // namespace nexus::core

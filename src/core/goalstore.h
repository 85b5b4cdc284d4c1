// The goalstore (§2.5).
//
// Associates a NAL goal formula (and optionally a designated guard port)
// with each (operation, resource) pair. Absence of a goal means the
// kernel-designated guard's bootstrap policy applies: only the object's
// owner or its resource manager may operate on it.
//
// Pairs are keyed on interned (OpId, ObjectId) — one integer map probe per
// lookup. Goal formulas are hash-consed on insertion, so the stored node is
// canonical and the entry carries its FormulaId for O(1) identity in guard
// cache keys. String-taking overloads intern-and-forward (and reject names
// containing '\x1f', the legacy key separator).
//
// Both stores are internally thread-safe under reader-writer locks: Get /
// Owner / Manager / Known take the reader side (the engine's read-mostly
// plane and designated-guard port handlers probe them from worker threads
// mid-miss), SetGoal / ClearGoal / Register / TransferOwnership the writer
// side. Returned GoalEntry values are copies; the goal formula inside is a
// canonical immortal interned node, safe to use with no lock held.
#ifndef NEXUS_CORE_GOALSTORE_H_
#define NEXUS_CORE_GOALSTORE_H_

#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>

#include "kernel/types.h"
#include "nal/formula.h"
#include "nal/interner.h"
#include "util/status.h"

namespace nexus::core {

// Rejects object/operation names that would have collided in the legacy
// "op\x1f.object" string keys. Interned keys cannot collide, but the shim
// surface must refuse such names so serialized forms stay unambiguous.
Status ValidateAuthzName(std::string_view name, std::string_view what);

struct GoalEntry {
  nal::Formula goal;
  // Interned identity of `goal` (the canonical node); guards key their
  // proof-check caches on this instead of goal->ToString().
  nal::FormulaId goal_id = nal::kInvalidFormulaId;
  // 0 = kernel-designated default guard.
  kernel::PortId guard_port = 0;
};

class GoalStore {
 public:
  Status SetGoal(kernel::OpId op, kernel::ObjectId obj, nal::Formula goal,
                 kernel::PortId guard_port = 0);
  Status SetGoal(const std::string& operation, const std::string& object, nal::Formula goal,
                 kernel::PortId guard_port = 0);
  Status ClearGoal(kernel::OpId op, kernel::ObjectId obj);
  std::optional<GoalEntry> Get(kernel::OpId op, kernel::ObjectId obj) const;
  std::optional<GoalEntry> Get(const std::string& operation, const std::string& object) const {
    // Read path: never-interned names cannot have goals, and must not grow
    // the intern tables (probing with novel names would otherwise leak).
    std::optional<kernel::OpId> op = kernel::FindOp(operation);
    std::optional<kernel::ObjectId> obj = kernel::FindObject(object);
    if (!op.has_value() || !obj.has_value()) {
      return std::nullopt;
    }
    return Get(*op, *obj);
  }
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return goals_.size();
  }

 private:
  static uint64_t Key(kernel::OpId op, kernel::ObjectId obj) {
    return (static_cast<uint64_t>(op) << 32) | obj;
  }

  mutable std::shared_mutex mu_;
  std::map<uint64_t, GoalEntry> goals_;
};

// Object ownership registry backing the bootstrap policy: a nascent object
// with no goal formula may be touched only by its owner or the resource
// manager that created it (§2.6).
class ObjectRegistry {
 public:
  Status Register(kernel::ObjectId object, kernel::ProcessId owner,
                  kernel::ProcessId manager);
  Status Register(const std::string& object, kernel::ProcessId owner,
                  kernel::ProcessId manager);
  Status TransferOwnership(kernel::ObjectId object, kernel::ProcessId new_owner);
  Status TransferOwnership(const std::string& object, kernel::ProcessId new_owner) {
    std::optional<kernel::ObjectId> id = kernel::FindObject(object);
    return id.has_value() ? TransferOwnership(*id, new_owner)
                          : NotFound("unknown object: " + object);
  }
  // Read paths resolve without interning: a name never registered cannot
  // be known, and lookups must not grow the append-only intern tables.
  std::optional<kernel::ProcessId> Owner(kernel::ObjectId object) const;
  std::optional<kernel::ProcessId> Owner(const std::string& object) const {
    std::optional<kernel::ObjectId> id = kernel::FindObject(object);
    return id.has_value() ? Owner(*id) : std::nullopt;
  }
  std::optional<kernel::ProcessId> Manager(kernel::ObjectId object) const;
  std::optional<kernel::ProcessId> Manager(const std::string& object) const {
    std::optional<kernel::ObjectId> id = kernel::FindObject(object);
    return id.has_value() ? Manager(*id) : std::nullopt;
  }
  bool Known(kernel::ObjectId object) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return entries_.contains(object);
  }
  bool Known(const std::string& object) const {
    std::optional<kernel::ObjectId> id = kernel::FindObject(object);
    return id.has_value() && Known(*id);
  }

 private:
  struct Entry {
    kernel::ProcessId owner;
    kernel::ProcessId manager;
  };
  mutable std::shared_mutex mu_;
  std::map<kernel::ObjectId, Entry> entries_;
};

}  // namespace nexus::core

#endif  // NEXUS_CORE_GOALSTORE_H_

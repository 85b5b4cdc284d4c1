#include "core/labelstore.h"

#include <atomic>

namespace nexus::core {

const SnapshotHandle& CredentialSnapshot::Empty() {
  static const SnapshotHandle empty = std::make_shared<const CredentialSnapshot>();
  return empty;
}

SnapshotHandle CredentialSnapshot::Of(std::vector<nal::Formula> formulas) {
  if (formulas.empty()) {
    return Empty();
  }
  static std::atomic<uint64_t> next_id{1};
  auto snapshot = std::make_shared<CredentialSnapshot>();
  snapshot->id = next_id.fetch_add(1, std::memory_order_relaxed);
  snapshot->formulas = std::move(formulas);
  return snapshot;
}

LabelHandle LabelStore::Insert(const nal::Principal& speaker, const nal::Formula& statement) {
  nal::Interner& interner = nal::Interner::Global();
  nal::FormulaId id = interner.Intern(nal::FormulaNode::Says(speaker, statement));
  LabelHandle handle = next_handle_++;
  labels_[handle] = Label{interner.Resolve(id), id};
  ++version_;
  return handle;
}

Result<LabelHandle> LabelStore::InsertLabel(const nal::Formula& says_formula) {
  if (says_formula == nullptr || says_formula->kind() != nal::FormulaKind::kSays) {
    return InvalidArgument("labels must have the form 'P says S'");
  }
  if (!nal::IsGround(says_formula)) {
    return InvalidArgument("labels must be ground formulas");
  }
  nal::Interner& interner = nal::Interner::Global();
  nal::FormulaId id = interner.Intern(says_formula);
  LabelHandle handle = next_handle_++;
  labels_[handle] = Label{interner.Resolve(id), id};
  ++version_;
  return handle;
}

Result<nal::Formula> LabelStore::Get(LabelHandle handle) const {
  auto it = labels_.find(handle);
  if (it == labels_.end()) {
    return NotFound("no such label");
  }
  return it->second.formula;
}

nal::FormulaId LabelStore::IdOf(LabelHandle handle) const {
  auto it = labels_.find(handle);
  return it == labels_.end() ? nal::kInvalidFormulaId : it->second.id;
}

Status LabelStore::Delete(LabelHandle handle) {
  if (labels_.erase(handle) == 0) {
    return NotFound("no such label");
  }
  ++version_;
  return OkStatus();
}

Status LabelStore::Transfer(LabelHandle handle, LabelStore& destination) {
  auto it = labels_.find(handle);
  if (it == labels_.end()) {
    return NotFound("no such label");
  }
  // Both stores' version counters advance (destination via InsertLabel),
  // so each publishes a fresh snapshot, with a fresh id, on its next read.
  destination.InsertLabel(it->second.formula).status();  // Ground says-formula: cannot fail.
  labels_.erase(it);
  ++version_;
  return OkStatus();
}

const SnapshotHandle& LabelStore::Snapshot() const {
  // Current: no rebuild can start before the next mutation, which the
  // caller's contract excludes, so snapshot_ is stable to read.
  if (snapshot_version_.load(std::memory_order_acquire) != version_) {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (snapshot_version_.load(std::memory_order_relaxed) != version_) {
      snapshot_ = CredentialSnapshot::Of(All());
      snapshot_version_.store(version_, std::memory_order_release);
    }
  }
  return snapshot_;
}

std::vector<nal::Formula> LabelStore::All() const {
  std::vector<nal::Formula> out;
  out.reserve(labels_.size());
  for (const auto& [handle, label] : labels_) {
    out.push_back(label.formula);
  }
  return out;
}

}  // namespace nexus::core

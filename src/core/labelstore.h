// Labelstores (§2.3).
//
// A label is an unforgeable statement `P says S` created by the `say`
// system call. Because the syscall channel is itself a secure channel from
// the process to the kernel, labels inside one Nexus instance carry no
// signatures — they are stored as attributed formulas, and attribution is
// enforced by construction (the store refuses to record a statement under a
// speaker other than the calling process unless the caller is the kernel).
// Labels become cryptographic objects only when externalized (certificate.h).
//
// Readers see a store through CREDENTIAL SNAPSHOTS: an immutable, shared
// vector of the store's canonical formulas plus an id unique to that exact
// content. A snapshot is rebuilt lazily, on the first read after a mutation
// (detected by a version() mismatch), never on the write path, so a burst
// of N inserts costs O(N) and the next reader pays one O(N) rebuild. The
// guard's proof cache keys verdicts on snapshot ids (guard.h).
#ifndef NEXUS_CORE_LABELSTORE_H_
#define NEXUS_CORE_LABELSTORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nal/formula.h"
#include "nal/interner.h"
#include "util/status.h"

namespace nexus::core {

using LabelHandle = uint64_t;

struct CredentialSnapshot;
using SnapshotHandle = std::shared_ptr<const CredentialSnapshot>;

// An immutable published label set. Every empty set is the one shared
// Empty() snapshot with id 0; every other snapshot carries a process-wide
// unique nonzero id, so equal ids mean identical formulas.
struct CredentialSnapshot {
  uint64_t id = 0;
  std::vector<nal::Formula> formulas;

  static const SnapshotHandle& Empty();
  // A fresh snapshot of `formulas` (Empty() if there are none).
  static SnapshotHandle Of(std::vector<nal::Formula> formulas);
};

class LabelStore {
 public:
  // Records `speaker says statement`. The caller (engine) has already
  // authenticated the speaker. Labels are hash-consed: the stored formula
  // is the canonical interned node, so identical statements inserted into
  // any store share one tree and one FormulaId.
  LabelHandle Insert(const nal::Principal& speaker, const nal::Formula& statement);

  // Inserts an already-formed says-formula (certificate import, transfers).
  Result<LabelHandle> InsertLabel(const nal::Formula& says_formula);

  Result<nal::Formula> Get(LabelHandle handle) const;
  // Interned identity of a stored label (kInvalidFormulaId if unknown).
  nal::FormulaId IdOf(LabelHandle handle) const;
  Status Delete(LabelHandle handle);

  // Moves one label into another store (the paper's labelstore-to-
  // labelstore transfer).
  Status Transfer(LabelHandle handle, LabelStore& destination);

  // All labels, usable directly as checker credentials.
  std::vector<nal::Formula> All() const;
  size_t size() const { return labels_.size(); }

  // The labels as a shared immutable snapshot, rebuilt here if the store
  // changed since the last call. The reference stays valid until the next
  // mutation. Concurrent callers are safe as long as no mutation runs at
  // the same time (the engine calls this under the reader side of its
  // state lock and mutates under the writer side). Once the snapshot is
  // current a call only reads: no lock and no shared write, so concurrent
  // misses do not contend on the store.
  const SnapshotHandle& Snapshot() const;

  // Monotonic mutation counter: a snapshot built at an older version is
  // stale.
  uint64_t version() const { return version_; }

 private:
  struct Label {
    nal::Formula formula;  // Canonical interned node.
    nal::FormulaId id = nal::kInvalidFormulaId;
  };
  std::map<LabelHandle, Label> labels_;
  LabelHandle next_handle_ = 1;
  uint64_t version_ = 0;

  // The last published snapshot and the version it was built at. The
  // mutex only orders concurrent readers racing to rebuild; the version is
  // stored after the snapshot, with release order, so a reader that sees
  // it current also sees the snapshot.
  mutable std::mutex snapshot_mu_;
  mutable SnapshotHandle snapshot_ = CredentialSnapshot::Empty();
  mutable std::atomic<uint64_t> snapshot_version_{0};
};

}  // namespace nexus::core

#endif  // NEXUS_CORE_LABELSTORE_H_

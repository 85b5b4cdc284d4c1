// The authorization engine: the core-layer half of Figure 1.
//
// Implements the kernel's AuthorizationEngine upcall interface. On a
// decision-cache miss the kernel lands here; the engine locates the goal
// formula, assembles the subject's credentials (its labelstore, the system
// labelstore, and object-scoped auxiliary labels), retrieves the proof the
// subject pre-submitted for this access-control tuple, and dispatches to
// the designated guard — the kernel-designated default guard for kernel
// resources, or any guard process the goal names (§2.5, §2.6).
//
// The engine is identity-based end to end: access-control tuples are
// (ProcessId, OpId, ObjectId) — interned integers, no string keys. It has
// one miss routine over spans: Authorize runs it on one request staged on
// the stack, AuthorizeBatch on many, letting the guard collapse duplicate
// authority consultations across the batch. Credentials are never copied
// per miss: a miss holds three shared, immutable snapshots (subject store,
// system store, object labels) and hands the guard a view over them. The
// string-taking control-plane calls (setgoal, setproof, object
// registration) intern-and-forward, rejecting names that would have been
// ambiguous under the legacy "\x1f"-joined string keys.
#ifndef NEXUS_CORE_ENGINE_H_
#define NEXUS_CORE_ENGINE_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/goalstore.h"
#include "core/guard.h"
#include "core/labelstore.h"
#include "kernel/kernel.h"
#include "nal/proof.h"

namespace nexus::core {

// Threading: the engine is a READ-WRITE SPLIT, PER-SUBJECT STRIPED core —
// the PR-3 monitor (one recursive mutex across every entry point, which
// serialized all cache misses) is gone. Two locking planes replace it:
//
//  - A read-mostly STATE plane under `state_mu_` (std::shared_mutex):
//    label stores, object labels, and the proof registry. A miss takes the
//    reader side just long enough to copy the proof and take handles to
//    the subject, system and object credential snapshots (see
//    Credentials), then releases it. A store whose labels changed rebuilds
//    its snapshot on that first read (labelstore.h); object labels are
//    copy-on-write, republished by AddObjectLabel. Control-plane
//    mutations (Say/SayAs, SetProof, ClearProof, AddObjectLabel) take the
//    writer side; proof and goal
//    updates then bump the kernel DecisionCache generations, so a verdict
//    computed from a pre-write snapshot is dropped by the kernel's
//    generation-checked insert instead of cached stale. The goalstore and
//    object registry carry their own internal reader-writer locks (guard
//    port handlers probe them from worker threads mid-miss).
//
//  - Per-subject STRIPE locks (`stripes_`, selected by Mix64(subject)):
//    held only around default-guard evaluation, never while the state lock
//    is held. Misses by different subjects overlap end to end — including
//    their remote-authority round trips — while two concurrent misses by
//    the SAME subject serialize, preserving per-subject decision ordering.
//    The stripes are recursive (an embedded authority or the setgoal
//    permission check may re-enter authorization for the same subject on
//    the same thread). A miss acquires the stripes of every subject in
//    its segment in ascending index order, so concurrent batches cannot
//    deadlock against each other.
//
// Designated-guard upcalls hold NO state or stripe lock — the guard
// process executes arbitrary code (it may Say, SetProof, or re-authorize),
// and the kernel's IPC/process/port surfaces are themselves
// concurrency-safe — but they DO serialize on one engine-wide recursive
// mutex: guard processes are single-dispatcher servers, and two misses
// must never run one guard's Handle() concurrently.
// Authority handlers reached from inside a guard evaluation, by contrast,
// run WITH the subject's stripe held — they must not synchronously
// authorize on behalf of arbitrary OTHER subjects (a cross-stripe wait
// could cycle with a concurrent batch).
//
// Consistency contract: the proof and the three credential snapshots are
// taken in one reader critical section, so they are jointly consistent —
// each verdict is serializable against label writes (the argument of the
// related network-systems work: only genuine read-write conflicts
// serialize, independent proof checks do not). The goal is read from the
// separately locked goalstore, so a miss racing a SetGoal may pair an old
// goal with new labels; such a verdict carries a pre-write cache
// generation and is never cached past the write. The guard's proof cache
// keys on the snapshot ids, which name exactly the labels a verdict saw.
//
// Reference-returning accessors (StoreFor, SystemStore, goals, objects,
// default_guard) hand out state whose MUTATION is only safe quiescent;
// confine mutations through them to the kernel thread.
class Engine : public kernel::AuthorizationEngine {
 public:
  Engine(kernel::Kernel* kernel, Guard* default_guard);

  // ---------------------------------------------- kernel upcall interface
  kernel::AuthzDecision Authorize(const kernel::AuthzRequest& request) override;
  // Batched authorization: duplicate authority queries are collapsed
  // batch-wide (a remote authority consulted by K requests costs one Vouch
  // round trip, not K).
  std::vector<kernel::AuthzDecision> AuthorizeBatch(
      std::span<const kernel::AuthzRequest> requests) override;

  // ------------------------------------------------------------- Labels
  // The `say` system call: records `<subject's principal> says <statement>`
  // in the subject's labelstore. The statement text is parsed as NAL.
  Result<LabelHandle> Say(kernel::ProcessId speaker, const std::string& statement_text);
  Result<LabelHandle> SayFormula(kernel::ProcessId speaker, const nal::Formula& statement);
  // System-issued labels (kernel bindings, service attestations). These
  // live in the system labelstore visible to every guard evaluation.
  LabelHandle SayAs(const nal::Principal& speaker, const nal::Formula& statement);
  LabelStore& StoreFor(kernel::ProcessId pid) {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    return stores_[pid];
  }
  LabelStore& SystemStore() { return system_store_; }
  // Auxiliary labels the resource owner attaches to one object (§2.5).
  void AddObjectLabel(kernel::ObjectId object, const nal::Formula& label);
  void AddObjectLabel(const std::string& object, const nal::Formula& label) {
    AddObjectLabel(kernel::InternObject(object), label);
  }

  // -------------------------------------------------------------- Goals
  // The `setgoal` system call; itself a guarded operation on the object.
  Status SetGoal(kernel::ProcessId caller, kernel::OpId op, kernel::ObjectId obj,
                 nal::Formula goal, kernel::PortId guard_port = 0);
  Status SetGoal(kernel::ProcessId caller, const std::string& operation,
                 const std::string& object, nal::Formula goal, kernel::PortId guard_port = 0);
  Status ClearGoal(kernel::ProcessId caller, kernel::OpId op, kernel::ObjectId obj);
  Status ClearGoal(kernel::ProcessId caller, const std::string& operation,
                   const std::string& object);
  const GoalStore& goals() const { return goals_; }

  // -------------------------------------------------------------- Proofs
  // Pre-submits the proof to use for an access-control tuple (the paper's
  // call(sbj, op, obj, proof, labels) carries the proof; pre-submission
  // plus the decision cache is how repeated calls stay cheap).
  Status SetProof(const kernel::AuthzRequest& tuple, nal::Proof proof);
  Status SetProof(kernel::ProcessId subject, const std::string& operation,
                  const std::string& object, nal::Proof proof);
  Status ClearProof(const kernel::AuthzRequest& tuple);
  Status ClearProof(kernel::ProcessId subject, const std::string& operation,
                    const std::string& object);

  // ------------------------------------------------------------- Objects
  Status RegisterObject(kernel::ObjectId object, kernel::ProcessId owner,
                        kernel::ProcessId manager);
  Status RegisterObject(const std::string& object, kernel::ProcessId owner,
                        kernel::ProcessId manager);
  Status TransferOwnership(kernel::ProcessId caller, const std::string& object,
                           kernel::ProcessId new_owner);
  const ObjectRegistry& objects() const { return objects_; }

  Guard& default_guard() { return *default_guard_; }

  // Stripe selection: same mixer as the kernel decision cache, so a
  // subject that scales there scales here. Public so tests can pick
  // subjects that provably land on distinct stripes.
  static constexpr size_t kNumStripes = 16;
  static size_t StripeOf(kernel::ProcessId subject) {
    return static_cast<size_t>(kernel::Mix64(subject) % kNumStripes);
  }

 private:
  // Interned access-control tuple as an ordered map key.
  struct TupleKey {
    kernel::ProcessId subject = 0;
    kernel::OpId op = 0;
    kernel::ObjectId obj = 0;
    friend auto operator<=>(const TupleKey&, const TupleKey&) = default;
  };
  static TupleKey KeyOf(const kernel::AuthzRequest& r) {
    return TupleKey{r.subject, r.op, r.obj};
  }

  // The bootstrap policy when no goal formula exists (§2.6). Touches only
  // the internally-locked object registry.
  kernel::AuthzDecision DefaultPolicy(const kernel::AuthzRequest& request);

  // The credential snapshots one evaluation sees. Holding the handles
  // keeps the arrays behind View() alive. No miss writes a reference count
  // that other threads' misses also write: a null handle is the empty set
  // (id 0), and non-empty snapshots are held through per-thread pins
  // (PinForThisThread in engine.cc).
  struct Credentials {
    SnapshotHandle subject;
    SnapshotHandle system;
    SnapshotHandle object;

    nal::CredentialView View() const {
      return {FormulasOf(subject), FormulasOf(system), FormulasOf(object)};
    }
    Guard::CredentialStamp Stamp() const {
      return Guard::CredentialStamp::Snapshots(IdOf(subject), IdOf(system), IdOf(object));
    }

   private:
    static std::span<const nal::Formula> FormulasOf(const SnapshotHandle& snapshot) {
      return snapshot == nullptr ? std::span<const nal::Formula>{} : snapshot->formulas;
    }
    static uint64_t IdOf(const SnapshotHandle& snapshot) {
      return snapshot == nullptr ? 0 : snapshot->id;
    }
  };
  // Caller holds state_mu_ (either side).
  Credentials CredentialsLocked(kernel::ProcessId subject, kernel::ObjectId object) const;

  // Where the miss routine stages its default-guard work: the guard items,
  // each item's slot in the caller's span, the snapshots behind each
  // item's credential view, and the guard's verdicts. Each span holds at
  // least as many slots as the routine has requests. A single request
  // stages on the stack, a batch in reusable per-thread scratch.
  struct Staging {
    std::span<Guard::BatchItem> items;
    std::span<size_t> slots;
    std::span<Credentials> credentials;
    std::span<kernel::AuthzDecision> verdicts;
  };
  // The engine's one miss routine: decisions[i] answers requests[i].
  void Decide(std::span<const kernel::AuthzRequest> requests,
              std::span<kernel::AuthzDecision> decisions, const Staging& staging);

  // Designated guard: serialize the request and upcall over IPC. Runs with
  // no engine lock held.
  kernel::AuthzDecision UpcallDesignatedGuard(const Guard::BatchItem& item,
                                              kernel::PortId guard_port);

  // The read-mostly state plane (see class comment): guards stores_,
  // system_store_, object_labels_, proofs_. Never held across guard
  // evaluation or any upcall.
  mutable std::shared_mutex state_mu_;
  // Serializes designated-guard upcalls engine-wide: guard processes are
  // single-dispatcher servers, so their Handle() must never run on two
  // threads at once even though the upcall holds no other engine lock.
  mutable std::recursive_mutex designated_mu_;
  // Per-subject evaluation stripes (see class comment). Leaf-ward of
  // state_mu_: a stripe is only ever acquired with no state lock held.
  mutable std::array<std::recursive_mutex, kNumStripes> stripes_;

  kernel::Kernel* kernel_;
  Guard* default_guard_;
  // Metrics plane ("engine.*"): every entry here is a decision-cache miss
  // reaching the core layer.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "engine"};
  metrics::Counter* misses_ = metrics_.NewCounter("misses");
  metrics::Counter* default_policy_ = metrics_.NewCounter("default_policy");
  metrics::Counter* designated_upcalls_ = metrics_.NewCounter("designated_upcalls");
  GoalStore goals_;        // Internally locked.
  ObjectRegistry objects_; // Internally locked.
  std::map<kernel::ProcessId, LabelStore> stores_;
  LabelStore system_store_;
  std::map<kernel::ObjectId, SnapshotHandle> object_labels_;  // Copy-on-write.
  std::map<TupleKey, nal::Proof> proofs_;
};

}  // namespace nexus::core

#endif  // NEXUS_CORE_ENGINE_H_

// Authorities (§2.7).
//
// An authority attests to the veracity of a statement only when asked and
// never in transferable form: the yes/no answer travels back over the
// querying IPC channel and may not be stored, cached, or forwarded. This
// split — indefinitely-cacheable labels vs untransferable authority
// answers — is what lets Nexus avoid a revocation infrastructure.
//
// Every consultation is one primitive, Authority::Vouch: a batch of
// statements, a deadline, and a future of the answers. A single query is a
// batch of one waited on at once (VouchOne). Local authorities answer at
// issue time; a RemoteAuthority (src/net) puts the batch on the wire at
// issue and collects it at Wait(), so a caller can have round trips to
// several peers in flight together.
#ifndef NEXUS_CORE_AUTHORITY_H_
#define NEXUS_CORE_AUTHORITY_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "kernel/ipc.h"
#include "nal/formula.h"

namespace nexus::core {

// The answers to one consultation. `responsive` distinguishes "the
// authority said no" from "no answer arrived at all". Both read as deny to
// a guard — fail closed — but a quorum aggregating several authorities
// needs the difference: an unresponsive member is skipped and backed off,
// a responsive deny is a vote.
struct VouchOutcome {
  std::vector<bool> answers;  // One per issued statement, issue order.
  bool responsive = true;     // False: timeout / loss / unreachable peer —
                              // `answers` is all-false filler, not votes.
};

// A handle to an issued consultation. Wait() completes it — for a remote
// authority it pumps the simulated fabric until the reply lands or the
// deadline passes — and returns the outcome. Call Wait() exactly once; the
// answers are fresh, untransferable, and consumed by the decision that
// asked and nothing else.
class VouchFuture final {
 public:
  // Answered at issue time.
  explicit VouchFuture(VouchOutcome ready) : ready_(std::move(ready)) {}
  // Completed by `collect` at Wait().
  explicit VouchFuture(std::function<VouchOutcome()> collect)
      : collect_(std::move(collect)) {}

  VouchOutcome Wait() { return collect_ ? collect_() : std::move(ready_); }

 private:
  VouchOutcome ready_;
  std::function<VouchOutcome()> collect_;
};

class Authority {
 public:
  virtual ~Authority() = default;
  // Which statements this authority is willing to evaluate at all (used by
  // the guard to route queries). A statement is typically of the form
  // `Self says <condition over dynamic state>`.
  virtual bool Handles(const nal::Formula& statement) const = 0;
  // Starts consulting this authority on `statements`. The deadline clock
  // starts now; an answer that cannot arrive within `timeout_us` is a
  // deny. Answers align with `statements`.
  virtual VouchFuture Vouch(std::span<const nal::Formula> statements, uint64_t timeout_us) = 0;

  // A batch of one, waited on at once.
  bool VouchOne(const nal::Formula& statement, uint64_t timeout_us) {
    VouchOutcome outcome = Vouch(std::span(&statement, 1), timeout_us).Wait();
    return !outcome.answers.empty() && outcome.answers[0];
  }
};

// An authority that answers in-process from local state: at issue time,
// always responsive, and no deadline ever binds.
class LocalAuthority : public Authority {
 public:
  VouchFuture Vouch(std::span<const nal::Formula> statements, uint64_t timeout_us) final;

 protected:
  // The current answer for one statement.
  virtual bool Answer(const nal::Formula& statement) = 0;
};

// Adapts a local authority to an IPC port: operation "check" with the
// formula text in args[0]; the reply's value is 1 (vouches) or 0. The
// kernel's port-to-process binding is what makes the answer attributable.
class AuthorityPortHandler : public kernel::PortHandler {
 public:
  explicit AuthorityPortHandler(LocalAuthority* authority) : authority_(authority) {}
  kernel::IpcReply Handle(const kernel::IpcContext& context,
                          const kernel::IpcMessage& message) override;

 private:
  LocalAuthority* authority_;
};

// A function-backed authority for simple dynamic predicates.
class LambdaAuthority : public LocalAuthority {
 public:
  using Predicate = std::function<bool(const nal::Formula&)>;
  LambdaAuthority(Predicate handles, Predicate vouches)
      : handles_(std::move(handles)), vouches_(std::move(vouches)) {}

  bool Handles(const nal::Formula& statement) const override { return handles_(statement); }

 protected:
  bool Answer(const nal::Formula& statement) override { return vouches_(statement); }

 private:
  Predicate handles_;
  Predicate vouches_;
};

}  // namespace nexus::core

#endif  // NEXUS_CORE_AUTHORITY_H_

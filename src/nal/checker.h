// The NAL proof checker.
//
// Checking is decidable and cheap (the paper's guard executes proofs of
// fewer than 15 steps in under a millisecond); this module performs no proof
// search. The checker walks the proof tree once, computing each node's
// conclusion and validating the rule application, then matches the final
// conclusion against the goal formula (instantiating $-variables).
#ifndef NEXUS_NAL_CHECKER_H_
#define NEXUS_NAL_CHECKER_H_

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "nal/formula.h"
#include "nal/proof.h"
#include "util/status.h"

namespace nexus::nal {

// Answers whether a live authority currently vouches for a formula. The
// answer is used once and never cached or stored (§2.7). The checker calls
// it once per authority leaf it reaches, in proof order; a caller that
// answers yes without asking learns every leaf a passing proof rests on.
using AuthorityCallback = std::function<bool(const Formula&)>;

struct CheckResult {
  Status status;          // OK iff the proof is valid and discharges the goal
  Formula conclusion;     // what the proof actually proves (if valid)
  int rules_applied = 0;  // proof size, for accounting
  Bindings bindings;      // goal-variable instantiation on success
  // True if the failure was a premise absent from the credential set. Such
  // denials must not be cached: the subject may acquire the credential
  // later without updating the proof (Fig. 4's "no cred" case stays
  // expensive even with the decision cache on).
  bool missing_credential = false;
};

// The credentials a check may cite: an ordered list of spans over arrays
// the caller owns. The engine passes its subject, system and object label
// snapshots as three parts without flattening them into one vector; any
// other caller passes a plain vector, which converts implicitly. The view
// does not own its arrays: they must outlive every use of the view.
class CredentialView {
 public:
  CredentialView() = default;
  CredentialView(const std::vector<Formula>& credentials) {  // NOLINT: implicit by design.
    Append(credentials);
  }
  CredentialView(std::span<const Formula> a, std::span<const Formula> b,
                 std::span<const Formula> c) {
    Append(a);
    Append(b);
    Append(c);
  }

  // The non-empty parts, in order.
  std::span<const std::span<const Formula>> parts() const { return {parts_.data(), count_}; }

 private:
  static constexpr size_t kMaxParts = 3;  // Each constructor appends at most this many.

  void Append(std::span<const Formula> part) {
    if (!part.empty()) {
      parts_[count_++] = part;
    }
  }

  std::array<std::span<const Formula>, kMaxParts> parts_{};
  size_t count_ = 0;
};

// Verifies that `p` is a valid derivation from `credentials` (plus authority
// answers) and that its conclusion instantiates `goal`.
CheckResult CheckProof(const Proof& p, const Formula& goal, CredentialView credentials,
                       const AuthorityCallback& authority = nullptr);

// Verifies derivation validity only, returning the conclusion.
CheckResult ConcludeProof(const Proof& p, CredentialView credentials,
                          const AuthorityCallback& authority = nullptr);

}  // namespace nexus::nal

#endif  // NEXUS_NAL_CHECKER_H_

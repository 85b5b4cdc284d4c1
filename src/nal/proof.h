// NAL proof objects.
//
// Proof derivation in NAL is undecidable, so Nexus places the burden of
// proof construction on the client; the guard only *checks* proofs (§2.6).
// A proof is a tree of rule applications whose leaves are premises
// (credentials from a labelstore), assumptions (hypotheses opened by
// implies-introduction), authority queries (discharged at check time by a
// live authority, §2.7), or the subprincipal axiom.
//
// The rule set is the constructive core of NAL [Schneider, Walsh & Sirer,
// TISSEC 2011]: conjunction/disjunction/implication intro & elim, double
// negation introduction (a constructive logic has no ¬¬-elimination),
// says-introduction (necessitation, restricted to subproofs attributable to
// the speaker), says-distribution, speaksfor elimination & transitivity,
// the handoff rule, and the subprincipal axiom.
#ifndef NEXUS_NAL_PROOF_H_
#define NEXUS_NAL_PROOF_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nal/formula.h"
#include "util/status.h"

namespace nexus::nal {

enum class ProofRule : uint8_t {
  kPremise,        // leaf: formula must appear among the supplied credentials
  kAssumption,     // leaf: formula must be an open hypothesis
  kAuthority,      // leaf: formula is vouched for by a live authority
  kSubprincipal,   // leaf: A speaksfor A.tau (name-prefix axiom)
  kAndIntro,       // A, B |- A and B
  kAndElimL,       // A and B |- A
  kAndElimR,       // A and B |- B
  kOrIntroL,       // A |- A or B   (aux = B)
  kOrIntroR,       // B |- A or B   (aux = A)
  kOrElim,         // A or B, A => C, B => C |- C
  kImpliesIntro,   // [A] ... B |- A => B   (aux = A, discharged)
  kImpliesElim,    // A => B, A |- B  (modus ponens)
  kDoubleNegIntro, // A |- not not A
  kSaysIntro,      // F |- P says F  (subproof must be attributable to P)
  kSaysImpliesElim,// P says (A => B), P says A |- P says B
  kSaysAndIntro,   // P says A, P says B |- P says (A and B)
  kSaysAndElimL,   // P says (A and B) |- P says A
  kSaysAndElimR,   // P says (A and B) |- P says B
  kSpeaksForElim,  // A speaksfor B [on s], A says F |- B says F  (scope check)
  kSpeaksForTrans, // A speaksfor B, B speaksfor C |- A speaksfor C
  kHandoff,        // B says (A speaksfor B [on s]) |- A speaksfor B [on s]
};

std::string_view ProofRuleName(ProofRule rule);

class ProofNode;
using Proof = std::shared_ptr<const ProofNode>;

class ProofNode {
 public:
  ProofRule rule() const { return rule_; }
  const std::vector<Proof>& children() const { return children_; }
  // Leaf formula (premise/assumption/authority/subprincipal conclusion) or
  // auxiliary formula (the B of or-intro-l, the discharged A of
  // implies-intro).
  const Formula& aux() const { return aux_; }
  // Speaker for says-introduction.
  const Principal& principal() const { return principal_; }

  // Number of rule applications (nodes) in this proof.
  int Size() const;

  static Proof Make(ProofRule rule, std::vector<Proof> children, Formula aux = nullptr,
                    Principal principal = Principal());

 private:
  friend uint64_t ProofHash(const Proof& p);

  ProofNode() = default;

  ProofRule rule_ = ProofRule::kPremise;
  std::vector<Proof> children_;
  Formula aux_;
  Principal principal_;
  // Lazily computed ProofHash. 0 = not yet computed (a real hash of 0 is
  // remapped); atomic so concurrent readers may race benignly — the hash
  // is a pure function of the immutable node, every writer stores the same
  // value.
  mutable std::atomic<uint64_t> hash_memo_{0};
};

// Convenience constructors mirroring the rules.
namespace proof {

Proof Premise(Formula f);
Proof Assumption(Formula f);
Proof Authority(Formula f);
Proof Subprincipal(Principal parent, Principal sub);
Proof AndIntro(Proof l, Proof r);
Proof AndElimL(Proof p);
Proof AndElimR(Proof p);
Proof OrIntroL(Proof proves_left, Formula right);
Proof OrIntroR(Formula left, Proof proves_right);
Proof OrElim(Proof disjunction, Proof left_implies, Proof right_implies);
Proof ImpliesIntro(Formula assumption, Proof body);
Proof ImpliesElim(Proof implication, Proof antecedent);
Proof DoubleNegIntro(Proof p);
Proof SaysIntro(Principal speaker, Proof p);
Proof SaysImpliesElim(Proof says_implication, Proof says_antecedent);
Proof SaysAndIntro(Proof says_left, Proof says_right);
Proof SaysAndElimL(Proof says_conjunction);
Proof SaysAndElimR(Proof says_conjunction);
Proof SpeaksForElim(Proof speaksfor, Proof says);
Proof SpeaksForTrans(Proof a_for_b, Proof b_for_c);
Proof Handoff(Proof says_speaksfor);

}  // namespace proof

// 64-bit structural hash of a proof (rule, children, aux formulas,
// says-intro speakers). Structurally equal proofs hash equal; a cache
// keying on this hash — unlike one keying on the proof's ADDRESS — cannot
// replay a freed proof's verdict for a different proof that happens to be
// allocated at the same address (the ABA hazard). Memoized per node, so
// repeated calls on a pre-submitted proof are O(1). Null hashes to 0;
// every real proof hashes nonzero.
//
// The hash is NOT cryptographic: a determined adversary can construct
// colliding proofs offline, so any security-sensitive consumer must
// confirm a hash match with ProofEquals before trusting it (the guard's
// proof-check cache does).
uint64_t ProofHash(const Proof& p);

// Structural equality: same rules, same aux formulas (nal::Equals), same
// says-intro speakers, same children. Two nulls are equal.
bool ProofEquals(const Proof& a, const Proof& b);

// Serializes a proof to a stable s-expression text form, e.g.
//   (speaksfor-elim (handoff (premise "B says (A speaksfor B)"))
//                   (premise "A says (ok())"))
std::string SerializeProof(const Proof& p);

// Parses the serialization above.
Result<Proof> DeserializeProof(std::string_view text);

}  // namespace nexus::nal

#endif  // NEXUS_NAL_PROOF_H_

#include "nal/checker.h"

#include <set>

namespace nexus::nal {

namespace {

// Conclusion of a node plus bookkeeping needed to validate enclosing rules.
struct NodeInfo {
  Formula f;
  // Speakers of all premise/authority leaves used below this node. A
  // says-introduction P says F is only admitted when every fact used to
  // derive F is already attributed to P (all deduction in NAL is local to a
  // worldview).
  std::set<std::string> speakers;
  // Indices (into the assumption stack) of open hypotheses used below.
  std::set<int> open_assumptions;
};

class Checker {
 public:
  Checker(CredentialView credentials, const AuthorityCallback& authority)
      : credentials_(credentials), authority_(authority) {}

  Result<NodeInfo> Conclude(const Proof& p) {
    ++rules_applied_;
    switch (p->rule()) {
      case ProofRule::kPremise:
        return ConcludePremise(p);
      case ProofRule::kAssumption:
        return ConcludeAssumption(p);
      case ProofRule::kAuthority:
        return ConcludeAuthority(p);
      case ProofRule::kSubprincipal:
        return ConcludeSubprincipal(p);
      case ProofRule::kAndIntro:
        return ConcludeAndIntro(p);
      case ProofRule::kAndElimL:
      case ProofRule::kAndElimR:
        return ConcludeAndElim(p);
      case ProofRule::kOrIntroL:
      case ProofRule::kOrIntroR:
        return ConcludeOrIntro(p);
      case ProofRule::kOrElim:
        return ConcludeOrElim(p);
      case ProofRule::kImpliesIntro:
        return ConcludeImpliesIntro(p);
      case ProofRule::kImpliesElim:
        return ConcludeImpliesElim(p);
      case ProofRule::kDoubleNegIntro:
        return ConcludeDoubleNegIntro(p);
      case ProofRule::kSaysIntro:
        return ConcludeSaysIntro(p);
      case ProofRule::kSaysImpliesElim:
        return ConcludeSaysImpliesElim(p);
      case ProofRule::kSaysAndIntro:
        return ConcludeSaysAndIntro(p);
      case ProofRule::kSaysAndElimL:
      case ProofRule::kSaysAndElimR:
        return ConcludeSaysAndElim(p);
      case ProofRule::kSpeaksForElim:
        return ConcludeSpeaksForElim(p);
      case ProofRule::kSpeaksForTrans:
        return ConcludeSpeaksForTrans(p);
      case ProofRule::kHandoff:
        return ConcludeHandoff(p);
    }
    return Internal("unknown proof rule");
  }

  bool used_authority() const { return used_authority_; }
  bool missing_credential() const { return missing_credential_; }
  int rules_applied() const { return rules_applied_; }

 private:
  static Status Malformed(const Proof& p, const std::string& what) {
    return PermissionDenied(std::string(ProofRuleName(p->rule())) + ": " + what);
  }

  Result<NodeInfo> ConcludeChild(const Proof& p, size_t index) { return Conclude(p->children()[index]); }

  Status ExpectChildren(const Proof& p, size_t n) {
    if (p->children().size() != n) {
      return Malformed(p, "expected " + std::to_string(n) + " subproofs, got " +
                              std::to_string(p->children().size()));
    }
    return OkStatus();
  }

  Result<NodeInfo> ConcludePremise(const Proof& p) {
    if (p->aux() == nullptr) {
      return Malformed(p, "missing formula");
    }
    if (p->aux()->kind() == FormulaKind::kTrue) {
      return NodeInfo{p->aux(), {}, {}};
    }
    for (std::span<const Formula> part : credentials_.parts()) {
      for (const Formula& cred : part) {
        if (Equals(cred, p->aux())) {
          NodeInfo info{p->aux(), {}, {}};
          if (cred->kind() == FormulaKind::kSays) {
            info.speakers.insert(cred->speaker().ToString());
          } else {
            // A non-says premise is attributable to no principal; poison
            // says-introduction with a marker speaker.
            info.speakers.insert("*unattributed*");
          }
          return info;
        }
      }
    }
    missing_credential_ = true;
    return PermissionDenied("premise not among supplied credentials: " + p->aux()->ToString());
  }

  Result<NodeInfo> ConcludeAssumption(const Proof& p) {
    if (p->aux() == nullptr) {
      return Malformed(p, "missing formula");
    }
    for (size_t i = assumptions_.size(); i-- > 0;) {
      if (Equals(assumptions_[i], p->aux())) {
        NodeInfo info{p->aux(), {}, {}};
        info.open_assumptions.insert(static_cast<int>(i));
        return info;
      }
    }
    return PermissionDenied("assumption not open: " + p->aux()->ToString());
  }

  Result<NodeInfo> ConcludeAuthority(const Proof& p) {
    if (p->aux() == nullptr) {
      return Malformed(p, "missing formula");
    }
    if (!authority_) {
      return Unavailable("proof requires an authority but none is reachable");
    }
    used_authority_ = true;
    if (!authority_(p->aux())) {
      return PermissionDenied("authority declined to vouch for: " + p->aux()->ToString());
    }
    NodeInfo info{p->aux(), {}, {}};
    if (p->aux()->kind() == FormulaKind::kSays) {
      info.speakers.insert(p->aux()->speaker().ToString());
    } else {
      info.speakers.insert("*unattributed*");
    }
    return info;
  }

  Result<NodeInfo> ConcludeSubprincipal(const Proof& p) {
    const Formula& f = p->aux();
    if (f == nullptr || f->kind() != FormulaKind::kSpeaksFor || f->on_scope().has_value()) {
      return Malformed(p, "conclusion must be an unscoped speaksfor");
    }
    if (!f->delegator().IsPrefixOf(f->delegatee()) || f->delegator() == f->delegatee()) {
      return Malformed(p, f->delegatee().ToString() + " is not a proper subprincipal of " +
                              f->delegator().ToString());
    }
    return NodeInfo{f, {}, {}};
  }

  Result<NodeInfo> ConcludeAndIntro(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 2));
    Result<NodeInfo> l = ConcludeChild(p, 0);
    if (!l.ok()) {
      return l;
    }
    Result<NodeInfo> r = ConcludeChild(p, 1);
    if (!r.ok()) {
      return r;
    }
    return Merge(FormulaNode::And(l->f, r->f), *l, *r);
  }

  Result<NodeInfo> ConcludeAndElim(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 1));
    Result<NodeInfo> child = ConcludeChild(p, 0);
    if (!child.ok()) {
      return child;
    }
    if (child->f->kind() != FormulaKind::kAnd) {
      return Malformed(p, "subproof does not conclude a conjunction");
    }
    Formula out =
        (p->rule() == ProofRule::kAndElimL) ? child->f->child1() : child->f->child2();
    return NodeInfo{out, child->speakers, child->open_assumptions};
  }

  Result<NodeInfo> ConcludeOrIntro(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 1));
    if (p->aux() == nullptr) {
      return Malformed(p, "missing the other disjunct");
    }
    Result<NodeInfo> child = ConcludeChild(p, 0);
    if (!child.ok()) {
      return child;
    }
    Formula out = (p->rule() == ProofRule::kOrIntroL)
                      ? FormulaNode::Or(child->f, p->aux())
                      : FormulaNode::Or(p->aux(), child->f);
    return NodeInfo{out, child->speakers, child->open_assumptions};
  }

  Result<NodeInfo> ConcludeOrElim(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 3));
    Result<NodeInfo> disj = ConcludeChild(p, 0);
    if (!disj.ok()) {
      return disj;
    }
    if (disj->f->kind() != FormulaKind::kOr) {
      return Malformed(p, "first subproof does not conclude a disjunction");
    }
    Result<NodeInfo> left = ConcludeChild(p, 1);
    if (!left.ok()) {
      return left;
    }
    Result<NodeInfo> right = ConcludeChild(p, 2);
    if (!right.ok()) {
      return right;
    }
    if (left->f->kind() != FormulaKind::kImplies || right->f->kind() != FormulaKind::kImplies) {
      return Malformed(p, "case subproofs must conclude implications");
    }
    if (!Equals(left->f->child1(), disj->f->child1()) ||
        !Equals(right->f->child1(), disj->f->child2())) {
      return Malformed(p, "case antecedents do not match the disjuncts");
    }
    if (!Equals(left->f->child2(), right->f->child2())) {
      return Malformed(p, "case conclusions differ");
    }
    NodeInfo merged = *disj;
    MergeInto(merged, *left);
    MergeInto(merged, *right);
    merged.f = left->f->child2();
    return merged;
  }

  Result<NodeInfo> ConcludeImpliesIntro(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 1));
    if (p->aux() == nullptr) {
      return Malformed(p, "missing assumption formula");
    }
    assumptions_.push_back(p->aux());
    int index = static_cast<int>(assumptions_.size()) - 1;
    Result<NodeInfo> body = ConcludeChild(p, 0);
    assumptions_.pop_back();
    if (!body.ok()) {
      return body;
    }
    NodeInfo out = *body;
    out.open_assumptions.erase(index);  // Discharged.
    out.f = FormulaNode::Implies(p->aux(), body->f);
    return out;
  }

  Result<NodeInfo> ConcludeImpliesElim(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 2));
    Result<NodeInfo> imp = ConcludeChild(p, 0);
    if (!imp.ok()) {
      return imp;
    }
    if (imp->f->kind() != FormulaKind::kImplies) {
      return Malformed(p, "first subproof does not conclude an implication");
    }
    Result<NodeInfo> ant = ConcludeChild(p, 1);
    if (!ant.ok()) {
      return ant;
    }
    if (!Equals(imp->f->child1(), ant->f)) {
      return Malformed(p, "antecedent mismatch: implication expects " +
                              imp->f->child1()->ToString() + " but subproof concludes " +
                              ant->f->ToString());
    }
    return Merge(imp->f->child2(), *imp, *ant);
  }

  Result<NodeInfo> ConcludeDoubleNegIntro(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 1));
    Result<NodeInfo> child = ConcludeChild(p, 0);
    if (!child.ok()) {
      return child;
    }
    NodeInfo out = *child;
    out.f = FormulaNode::Not(FormulaNode::Not(child->f));
    return out;
  }

  Result<NodeInfo> ConcludeSaysIntro(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 1));
    Result<NodeInfo> child = ConcludeChild(p, 0);
    if (!child.ok()) {
      return child;
    }
    if (!child->open_assumptions.empty()) {
      return Malformed(p, "subproof uses open hypotheses");
    }
    const std::string speaker_name = p->principal().ToString();
    for (const std::string& used : child->speakers) {
      if (used != speaker_name) {
        return Malformed(p, "subproof uses facts by " + used +
                                ", not attributable to " + speaker_name);
      }
    }
    NodeInfo out = *child;
    out.f = FormulaNode::Says(p->principal(), child->f);
    out.speakers = {speaker_name};
    return out;
  }

  Result<NodeInfo> ConcludeSaysImpliesElim(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 2));
    Result<NodeInfo> imp = ConcludeChild(p, 0);
    if (!imp.ok()) {
      return imp;
    }
    Result<NodeInfo> ant = ConcludeChild(p, 1);
    if (!ant.ok()) {
      return ant;
    }
    if (imp->f->kind() != FormulaKind::kSays || ant->f->kind() != FormulaKind::kSays) {
      return Malformed(p, "both subproofs must conclude says-formulas");
    }
    if (!(imp->f->speaker() == ant->f->speaker())) {
      return Malformed(p, "speakers differ");
    }
    const Formula& body = imp->f->child1();
    if (body->kind() != FormulaKind::kImplies) {
      return Malformed(p, "first speaker statement is not an implication");
    }
    if (!Equals(body->child1(), ant->f->child1())) {
      return Malformed(p, "antecedent mismatch inside says");
    }
    return Merge(FormulaNode::Says(imp->f->speaker(), body->child2()), *imp, *ant);
  }

  Result<NodeInfo> ConcludeSaysAndIntro(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 2));
    Result<NodeInfo> l = ConcludeChild(p, 0);
    if (!l.ok()) {
      return l;
    }
    Result<NodeInfo> r = ConcludeChild(p, 1);
    if (!r.ok()) {
      return r;
    }
    if (l->f->kind() != FormulaKind::kSays || r->f->kind() != FormulaKind::kSays ||
        !(l->f->speaker() == r->f->speaker())) {
      return Malformed(p, "subproofs must be statements by one speaker");
    }
    return Merge(
        FormulaNode::Says(l->f->speaker(), FormulaNode::And(l->f->child1(), r->f->child1())),
        *l, *r);
  }

  Result<NodeInfo> ConcludeSaysAndElim(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 1));
    Result<NodeInfo> child = ConcludeChild(p, 0);
    if (!child.ok()) {
      return child;
    }
    if (child->f->kind() != FormulaKind::kSays ||
        child->f->child1()->kind() != FormulaKind::kAnd) {
      return Malformed(p, "subproof must conclude P says (A and B)");
    }
    const Formula& body = child->f->child1();
    Formula picked = (p->rule() == ProofRule::kSaysAndElimL) ? body->child1() : body->child2();
    NodeInfo out = *child;
    out.f = FormulaNode::Says(child->f->speaker(), picked);
    return out;
  }

  Result<NodeInfo> ConcludeSpeaksForElim(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 2));
    Result<NodeInfo> sf = ConcludeChild(p, 0);
    if (!sf.ok()) {
      return sf;
    }
    if (sf->f->kind() != FormulaKind::kSpeaksFor) {
      return Malformed(p, "first subproof does not conclude speaksfor");
    }
    Result<NodeInfo> said = ConcludeChild(p, 1);
    if (!said.ok()) {
      return said;
    }
    if (said->f->kind() != FormulaKind::kSays) {
      return Malformed(p, "second subproof does not conclude a says-formula");
    }
    // A speaksfor B admits attributing statements by A (or any subprincipal
    // of A) to B.
    if (!sf->f->delegator().IsPrefixOf(said->f->speaker())) {
      return Malformed(p, "statement speaker " + said->f->speaker().ToString() +
                              " is not covered by delegator " + sf->f->delegator().ToString());
    }
    if (sf->f->on_scope().has_value() && !ScopeMatches(said->f->child1(), *sf->f->on_scope())) {
      return Malformed(p, "statement is outside the delegation scope '" + *sf->f->on_scope() +
                              "'");
    }
    return Merge(FormulaNode::Says(sf->f->delegatee(), said->f->child1()), *sf, *said);
  }

  Result<NodeInfo> ConcludeSpeaksForTrans(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 2));
    Result<NodeInfo> ab = ConcludeChild(p, 0);
    if (!ab.ok()) {
      return ab;
    }
    Result<NodeInfo> bc = ConcludeChild(p, 1);
    if (!bc.ok()) {
      return bc;
    }
    if (ab->f->kind() != FormulaKind::kSpeaksFor || bc->f->kind() != FormulaKind::kSpeaksFor) {
      return Malformed(p, "both subproofs must conclude speaksfor");
    }
    if (!(ab->f->delegatee() == bc->f->delegator())) {
      return Malformed(p, "chain mismatch: " + ab->f->delegatee().ToString() + " vs " +
                              bc->f->delegator().ToString());
    }
    // Scope of the composition: the conjunction of restrictions. Two
    // distinct scopes compose to nothing useful, so reject.
    std::optional<std::string> scope;
    if (ab->f->on_scope().has_value() && bc->f->on_scope().has_value()) {
      if (*ab->f->on_scope() != *bc->f->on_scope()) {
        return Malformed(p, "incompatible delegation scopes");
      }
      scope = ab->f->on_scope();
    } else if (ab->f->on_scope().has_value()) {
      scope = ab->f->on_scope();
    } else {
      scope = bc->f->on_scope();
    }
    return Merge(FormulaNode::SpeaksFor(ab->f->delegator(), bc->f->delegatee(), scope), *ab,
                 *bc);
  }

  Result<NodeInfo> ConcludeHandoff(const Proof& p) {
    NEXUS_RETURN_IF_ERROR(ExpectChildren(p, 1));
    Result<NodeInfo> child = ConcludeChild(p, 0);
    if (!child.ok()) {
      return child;
    }
    if (child->f->kind() != FormulaKind::kSays ||
        child->f->child1()->kind() != FormulaKind::kSpeaksFor) {
      return Malformed(p, "subproof must conclude B says (A speaksfor B)");
    }
    const Formula& sf = child->f->child1();
    // The speaker must be (a superprincipal of) the delegatee: only B can
    // hand off authority over B's own worldview.
    if (!child->f->speaker().IsPrefixOf(sf->delegatee())) {
      return Malformed(p, "speaker " + child->f->speaker().ToString() +
                              " cannot hand off authority over " + sf->delegatee().ToString());
    }
    NodeInfo out = *child;
    out.f = sf;
    return out;
  }

  static NodeInfo Merge(Formula f, const NodeInfo& a, const NodeInfo& b) {
    NodeInfo out{std::move(f), a.speakers, a.open_assumptions};
    out.speakers.insert(b.speakers.begin(), b.speakers.end());
    out.open_assumptions.insert(b.open_assumptions.begin(), b.open_assumptions.end());
    return out;
  }

  static void MergeInto(NodeInfo& dst, const NodeInfo& src) {
    dst.speakers.insert(src.speakers.begin(), src.speakers.end());
    dst.open_assumptions.insert(src.open_assumptions.begin(), src.open_assumptions.end());
  }

  CredentialView credentials_;
  const AuthorityCallback& authority_;
  std::vector<Formula> assumptions_;
  bool used_authority_ = false;
  bool missing_credential_ = false;
  int rules_applied_ = 0;
};

}  // namespace

std::vector<Formula> CredentialView::ToVector() const {
  std::vector<Formula> out;
  for (std::span<const Formula> part : parts()) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

CheckResult ConcludeProof(const Proof& p, CredentialView credentials,
                          const AuthorityCallback& authority) {
  CheckResult result;
  if (p == nullptr) {
    result.status = InvalidArgument("null proof");
    return result;
  }
  Checker checker(credentials, authority);
  Result<NodeInfo> info = checker.Conclude(p);
  result.cacheable = !checker.used_authority();
  result.missing_credential = checker.missing_credential();
  result.rules_applied = checker.rules_applied();
  if (!info.ok()) {
    result.status = info.status();
    return result;
  }
  result.status = OkStatus();
  result.conclusion = info->f;
  return result;
}

CheckResult CheckProof(const Proof& p, const Formula& goal, CredentialView credentials,
                       const AuthorityCallback& authority) {
  CheckResult result = ConcludeProof(p, credentials, authority);
  if (!result.status.ok()) {
    return result;
  }
  Bindings bindings;
  // The conclusion may prove the goal exactly, or prove a conjunction whose
  // conjuncts cover the goal's conjuncts (order-insensitively).
  if (Match(goal, result.conclusion, bindings)) {
    result.bindings = std::move(bindings);
    return result;
  }
  bindings.clear();
  std::vector<Formula> have = Conjuncts(result.conclusion);
  std::vector<Formula> want = Conjuncts(goal);
  bool all_found = true;
  for (const Formula& w : want) {
    bool found = false;
    for (const Formula& h : have) {
      Bindings trial = bindings;
      if (Match(w, h, trial)) {
        bindings = std::move(trial);
        found = true;
        break;
      }
    }
    if (!found) {
      all_found = false;
      break;
    }
  }
  if (all_found) {
    result.bindings = std::move(bindings);
    return result;
  }
  result.status = PermissionDenied("proof concludes '" + result.conclusion->ToString() +
                                   "' which does not discharge goal '" + goal->ToString() + "'");
  return result;
}

bool IsStaticallyCacheable(const Proof& p) {
  if (p->rule() == ProofRule::kAuthority) {
    return false;
  }
  for (const Proof& child : p->children()) {
    if (!IsStaticallyCacheable(child)) {
      return false;
    }
  }
  return true;
}

}  // namespace nexus::nal

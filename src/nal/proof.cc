#include "nal/proof.h"

#include <cctype>

#include "nal/interner.h"
#include "nal/parser.h"

namespace nexus::nal {

std::string_view ProofRuleName(ProofRule rule) {
  switch (rule) {
    case ProofRule::kPremise:
      return "premise";
    case ProofRule::kAssumption:
      return "assumption";
    case ProofRule::kAuthority:
      return "authority";
    case ProofRule::kSubprincipal:
      return "subprincipal";
    case ProofRule::kAndIntro:
      return "and-intro";
    case ProofRule::kAndElimL:
      return "and-elim-l";
    case ProofRule::kAndElimR:
      return "and-elim-r";
    case ProofRule::kOrIntroL:
      return "or-intro-l";
    case ProofRule::kOrIntroR:
      return "or-intro-r";
    case ProofRule::kOrElim:
      return "or-elim";
    case ProofRule::kImpliesIntro:
      return "implies-intro";
    case ProofRule::kImpliesElim:
      return "implies-elim";
    case ProofRule::kDoubleNegIntro:
      return "double-neg-intro";
    case ProofRule::kSaysIntro:
      return "says-intro";
    case ProofRule::kSaysImpliesElim:
      return "says-implies-elim";
    case ProofRule::kSaysAndIntro:
      return "says-and-intro";
    case ProofRule::kSaysAndElimL:
      return "says-and-elim-l";
    case ProofRule::kSaysAndElimR:
      return "says-and-elim-r";
    case ProofRule::kSpeaksForElim:
      return "speaksfor-elim";
    case ProofRule::kSpeaksForTrans:
      return "speaksfor-trans";
    case ProofRule::kHandoff:
      return "handoff";
  }
  return "?";
}

int ProofNode::Size() const {
  int total = 1;
  for (const Proof& child : children_) {
    total += child->Size();
  }
  return total;
}

uint64_t ProofHash(const Proof& p) {
  if (p == nullptr) {
    return 0;
  }
  uint64_t memo = p->hash_memo_.load(std::memory_order_relaxed);
  if (memo != 0) {
    return memo;
  }
  // HashMix/HashBytes are the interner's combiners (nal/interner.h) —
  // shared so formula and proof hashing can never drift apart.
  uint64_t h = static_cast<uint64_t>(p->rule()) + 0xA000;
  h = HashMix(h, StructuralHash(p->aux()));
  h = HashMix(h, HashBytes(p->principal().base(), 0x70726f6f));
  for (const std::string& tag : p->principal().path()) {
    h = HashMix(h, HashBytes(tag, 0x70617468));
  }
  for (const Proof& child : p->children()) {
    h = HashMix(h, ProofHash(child));
  }
  if (h == 0) {
    h = 1;  // Keep 0 as the "uncomputed" sentinel.
  }
  p->hash_memo_.store(h, std::memory_order_relaxed);
  return h;
}

bool ProofEquals(const Proof& a, const Proof& b) {
  if (a == b) {
    return true;  // Pointer identity (covers both-null).
  }
  if (a == nullptr || b == nullptr) {
    return false;
  }
  if (a->rule() != b->rule() || !Equals(a->aux(), b->aux()) ||
      !(a->principal() == b->principal()) ||
      a->children().size() != b->children().size()) {
    return false;
  }
  for (size_t i = 0; i < a->children().size(); ++i) {
    if (!ProofEquals(a->children()[i], b->children()[i])) {
      return false;
    }
  }
  return true;
}

Proof ProofNode::Make(ProofRule rule, std::vector<Proof> children, Formula aux,
                      Principal principal) {
  struct Access : ProofNode {};
  auto node = std::make_shared<Access>();
  node->rule_ = rule;
  node->children_ = std::move(children);
  node->aux_ = std::move(aux);
  node->principal_ = std::move(principal);
  return node;
}

namespace proof {

Proof Premise(Formula f) { return ProofNode::Make(ProofRule::kPremise, {}, std::move(f)); }

Proof Assumption(Formula f) { return ProofNode::Make(ProofRule::kAssumption, {}, std::move(f)); }

Proof Authority(Formula f) { return ProofNode::Make(ProofRule::kAuthority, {}, std::move(f)); }

Proof Subprincipal(Principal parent, Principal sub) {
  return ProofNode::Make(ProofRule::kSubprincipal, {},
                         FormulaNode::SpeaksFor(std::move(parent), std::move(sub)));
}

Proof AndIntro(Proof l, Proof r) {
  return ProofNode::Make(ProofRule::kAndIntro, {std::move(l), std::move(r)});
}

Proof AndElimL(Proof p) { return ProofNode::Make(ProofRule::kAndElimL, {std::move(p)}); }

Proof AndElimR(Proof p) { return ProofNode::Make(ProofRule::kAndElimR, {std::move(p)}); }

Proof OrIntroL(Proof proves_left, Formula right) {
  return ProofNode::Make(ProofRule::kOrIntroL, {std::move(proves_left)}, std::move(right));
}

Proof OrIntroR(Formula left, Proof proves_right) {
  return ProofNode::Make(ProofRule::kOrIntroR, {std::move(proves_right)}, std::move(left));
}

Proof OrElim(Proof disjunction, Proof left_implies, Proof right_implies) {
  return ProofNode::Make(ProofRule::kOrElim,
                         {std::move(disjunction), std::move(left_implies),
                          std::move(right_implies)});
}

Proof ImpliesIntro(Formula assumption, Proof body) {
  return ProofNode::Make(ProofRule::kImpliesIntro, {std::move(body)}, std::move(assumption));
}

Proof ImpliesElim(Proof implication, Proof antecedent) {
  return ProofNode::Make(ProofRule::kImpliesElim, {std::move(implication), std::move(antecedent)});
}

Proof DoubleNegIntro(Proof p) {
  return ProofNode::Make(ProofRule::kDoubleNegIntro, {std::move(p)});
}

Proof SaysIntro(Principal speaker, Proof p) {
  return ProofNode::Make(ProofRule::kSaysIntro, {std::move(p)}, nullptr, std::move(speaker));
}

Proof SaysImpliesElim(Proof says_implication, Proof says_antecedent) {
  return ProofNode::Make(ProofRule::kSaysImpliesElim,
                         {std::move(says_implication), std::move(says_antecedent)});
}

Proof SaysAndIntro(Proof says_left, Proof says_right) {
  return ProofNode::Make(ProofRule::kSaysAndIntro, {std::move(says_left), std::move(says_right)});
}

Proof SaysAndElimL(Proof says_conjunction) {
  return ProofNode::Make(ProofRule::kSaysAndElimL, {std::move(says_conjunction)});
}

Proof SaysAndElimR(Proof says_conjunction) {
  return ProofNode::Make(ProofRule::kSaysAndElimR, {std::move(says_conjunction)});
}

Proof SpeaksForElim(Proof speaksfor, Proof says) {
  return ProofNode::Make(ProofRule::kSpeaksForElim, {std::move(speaksfor), std::move(says)});
}

Proof SpeaksForTrans(Proof a_for_b, Proof b_for_c) {
  return ProofNode::Make(ProofRule::kSpeaksForTrans, {std::move(a_for_b), std::move(b_for_c)});
}

Proof Handoff(Proof says_speaksfor) {
  return ProofNode::Make(ProofRule::kHandoff, {std::move(says_speaksfor)});
}

}  // namespace proof

namespace {

void EscapeInto(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
}

void SerializeInto(std::string& out, const Proof& p) {
  out.push_back('(');
  out += ProofRuleName(p->rule());
  if (p->rule() == ProofRule::kSaysIntro) {
    out += " [";
    out += p->principal().ToString();
    out += "]";
  }
  if (p->aux() != nullptr) {
    out += " \"";
    EscapeInto(out, p->aux()->ToString());
    out += "\"";
  }
  for (const Proof& child : p->children()) {
    out.push_back(' ');
    SerializeInto(out, child);
  }
  out.push_back(')');
}

class ProofParser {
 public:
  explicit ProofParser(std::string_view text) : text_(text) {}

  Result<Proof> Parse() {
    Result<Proof> p = ParseNode();
    if (!p.ok()) {
      return p;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing input");
    }
    return p;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Error(const std::string& what) const {
    return InvalidArgument("proof parse error: " + what + " at position " + std::to_string(pos_));
  }

  Result<Proof> ParseNode() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '(') {
      return Error("expected '('");
    }
    ++pos_;
    SkipSpace();

    std::string rule_name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-')) {
      rule_name.push_back(text_[pos_]);
      ++pos_;
    }

    ProofRule rule;
    bool found = false;
    for (int r = 0; r <= static_cast<int>(ProofRule::kHandoff); ++r) {
      if (ProofRuleName(static_cast<ProofRule>(r)) == rule_name) {
        rule = static_cast<ProofRule>(r);
        found = true;
        break;
      }
    }
    if (!found) {
      return Error("unknown rule '" + rule_name + "'");
    }

    Principal speaker;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '[') {
      ++pos_;
      std::string name;
      while (pos_ < text_.size() && text_[pos_] != ']') {
        name.push_back(text_[pos_]);
        ++pos_;
      }
      if (pos_ == text_.size()) {
        return Error("unterminated principal");
      }
      ++pos_;
      Result<Principal> parsed = ParsePrincipal(name);
      if (!parsed.ok()) {
        return parsed.status();
      }
      speaker = *parsed;
    }

    Formula aux;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      ++pos_;
      std::string formula_text;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
          ++pos_;
        }
        formula_text.push_back(text_[pos_]);
        ++pos_;
      }
      if (pos_ == text_.size()) {
        return Error("unterminated formula string");
      }
      ++pos_;
      Result<Formula> parsed = ParseFormula(formula_text);
      if (!parsed.ok()) {
        return parsed.status();
      }
      aux = *parsed;
    }

    std::vector<Proof> children;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Error("unterminated proof node");
      }
      if (text_[pos_] == ')') {
        ++pos_;
        break;
      }
      Result<Proof> child = ParseNode();
      if (!child.ok()) {
        return child;
      }
      children.push_back(*child);
    }

    return ProofNode::Make(rule, std::move(children), std::move(aux), std::move(speaker));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string SerializeProof(const Proof& p) {
  std::string out;
  SerializeInto(out, p);
  return out;
}

Result<Proof> DeserializeProof(std::string_view text) {
  ProofParser parser(text);
  return parser.Parse();
}

}  // namespace nexus::nal

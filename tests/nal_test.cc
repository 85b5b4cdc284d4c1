#include <gtest/gtest.h>

#include "nal/checker.h"
#include "nal/formula.h"
#include "nal/interner.h"
#include "nal/parser.h"
#include "nal/proof.h"
#include "nal/prover.h"
#include "nal/term.h"

namespace nexus::nal {
namespace {

Formula F(std::string_view text) {
  Result<Formula> f = ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << " -> " << f.status().ToString();
  return f.ok() ? *f : nullptr;
}

// ------------------------------------------------------------- Principals

TEST(PrincipalTest, SubprincipalPrefix) {
  Principal hw("HW");
  Principal kernel = hw.Sub("kernel");
  Principal proc = kernel.Sub("process23");
  EXPECT_TRUE(hw.IsPrefixOf(kernel));
  EXPECT_TRUE(hw.IsPrefixOf(proc));
  EXPECT_TRUE(kernel.IsPrefixOf(proc));
  EXPECT_FALSE(proc.IsPrefixOf(kernel));
  EXPECT_TRUE(hw.IsPrefixOf(hw));
  EXPECT_EQ(proc.ToString(), "HW.kernel.process23");
}

TEST(PrincipalTest, DifferentBasesNotPrefixes) {
  EXPECT_FALSE(Principal("A").IsPrefixOf(Principal("B")));
  EXPECT_FALSE(Principal("A").Sub("x").IsPrefixOf(Principal("A").Sub("y")));
}

TEST(PrincipalTest, VariableDetection) {
  EXPECT_TRUE(Principal("$X").IsVariable());
  EXPECT_FALSE(Principal("X").IsVariable());
  EXPECT_FALSE(Principal("$X").Sub("y").IsVariable());
}

TEST(TermTest, SymbolPrincipalPun) {
  // A one-component principal and a symbol with the same name are equal.
  EXPECT_TRUE(Term::Symbol("NTP") == Term::Prin(Principal("NTP")));
  EXPECT_FALSE(Term::Symbol("NTP") == Term::Prin(Principal("NTP").Sub("x")));
}

// ----------------------------------------------------------------- Parser

TEST(ParserTest, PaperLabelTypeChecker) {
  Formula f = F("TypeChecker says isTypeSafe(PGM)");
  ASSERT_EQ(f->kind(), FormulaKind::kSays);
  EXPECT_EQ(f->speaker().ToString(), "TypeChecker");
  EXPECT_EQ(f->child1()->kind(), FormulaKind::kPred);
  EXPECT_EQ(f->child1()->pred_name(), "isTypeSafe");
}

TEST(ParserTest, PaperLabelSpeaksFor) {
  Formula f = F("Nexus says /proc/ipd/30 speaksfor IPCAnalyzer");
  ASSERT_EQ(f->kind(), FormulaKind::kSays);
  ASSERT_EQ(f->child1()->kind(), FormulaKind::kSpeaksFor);
  EXPECT_EQ(f->child1()->delegator().ToString(), "/proc/ipd/30");
  EXPECT_EQ(f->child1()->delegatee().ToString(), "IPCAnalyzer");
}

TEST(ParserTest, PaperLabelNegatedPredicate) {
  Formula f = F("/proc/ipd/30 says not hasPath(/proc/ipd/12, Filesystem)");
  ASSERT_EQ(f->kind(), FormulaKind::kSays);
  EXPECT_EQ(f->child1()->kind(), FormulaKind::kNot);
  EXPECT_EQ(f->child1()->child1()->pred_name(), "hasPath");
}

TEST(ParserTest, PaperRestrictedDelegation) {
  Formula f = F("Filesystem says NTP speaksfor Filesystem on TimeNow");
  ASSERT_EQ(f->child1()->kind(), FormulaKind::kSpeaksFor);
  ASSERT_TRUE(f->child1()->on_scope().has_value());
  EXPECT_EQ(*f->child1()->on_scope(), "TimeNow");
}

TEST(ParserTest, PaperTimeComparison) {
  Formula f = F("NTP says TimeNow < 20260319");
  ASSERT_EQ(f->child1()->kind(), FormulaKind::kCompare);
  EXPECT_EQ(f->child1()->compare_op(), CompareOp::kLt);
  EXPECT_EQ(f->child1()->rhs().int_value(), 20260319);
}

TEST(ParserTest, GoalWithVariables) {
  Formula f = F("$X says openFile(report) and SafetyCertifier says safe($X)");
  ASSERT_EQ(f->kind(), FormulaKind::kAnd);
  EXPECT_FALSE(IsGround(f));
  EXPECT_TRUE(f->child1()->speaker().IsVariable());
}

TEST(ParserTest, PrecedenceSaysBindsTighterThanAnd) {
  Formula f = F("A says p() and B says q()");
  ASSERT_EQ(f->kind(), FormulaKind::kAnd);
  EXPECT_EQ(f->child1()->kind(), FormulaKind::kSays);
  EXPECT_EQ(f->child2()->kind(), FormulaKind::kSays);
}

TEST(ParserTest, ImpliesIsRightAssociative) {
  Formula f = F("p() => q() => r()");
  ASSERT_EQ(f->kind(), FormulaKind::kImplies);
  EXPECT_EQ(f->child2()->kind(), FormulaKind::kImplies);
}

TEST(ParserTest, AndBindsTighterThanOr) {
  Formula f = F("p() or q() and r()");
  ASSERT_EQ(f->kind(), FormulaKind::kOr);
  EXPECT_EQ(f->child2()->kind(), FormulaKind::kAnd);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  Formula f = F("(p() or q()) and r()");
  ASSERT_EQ(f->kind(), FormulaKind::kAnd);
}

TEST(ParserTest, SaysNestsThroughParens) {
  Formula f = F("A says (p() and q())");
  ASSERT_EQ(f->kind(), FormulaKind::kSays);
  EXPECT_EQ(f->child1()->kind(), FormulaKind::kAnd);
}

TEST(ParserTest, DottedPrincipals) {
  Formula f = F("HW.kernel.process23 says ready()");
  EXPECT_EQ(f->speaker().base(), "HW");
  EXPECT_EQ(f->speaker().path().size(), 2u);
}

TEST(ParserTest, StringLiteralArgs) {
  Formula f = F("FS says owns(\"/dir/file\", /proc/ipd/6)");
  EXPECT_EQ(f->child1()->args()[0].kind(), TermKind::kString);
  EXPECT_EQ(f->child1()->args()[0].text(), "/dir/file");
}

TEST(ParserTest, TrueFalseConstants) {
  EXPECT_EQ(F("true")->kind(), FormulaKind::kTrue);
  EXPECT_EQ(F("false")->kind(), FormulaKind::kFalse);
}

TEST(ParserTest, AllComparisonOps) {
  EXPECT_EQ(F("x < 1")->compare_op(), CompareOp::kLt);
  EXPECT_EQ(F("x <= 1")->compare_op(), CompareOp::kLe);
  EXPECT_EQ(F("x = 1")->compare_op(), CompareOp::kEq);
  EXPECT_EQ(F("x >= 1")->compare_op(), CompareOp::kGe);
  EXPECT_EQ(F("x > 1")->compare_op(), CompareOp::kGt);
  EXPECT_EQ(F("x != 1")->compare_op(), CompareOp::kNe);
}

TEST(ParserTest, NegativeIntegers) {
  Formula f = F("balance > -100");
  EXPECT_EQ(f->rhs().int_value(), -100);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseFormula("").ok());
  EXPECT_FALSE(ParseFormula("says says").ok());
  EXPECT_FALSE(ParseFormula("A says").ok());
  EXPECT_FALSE(ParseFormula("(p()").ok());
  EXPECT_FALSE(ParseFormula("p() and").ok());
  EXPECT_FALSE(ParseFormula("A speaksfor").ok());
  EXPECT_FALSE(ParseFormula("\"unterminated").ok());
  EXPECT_FALSE(ParseFormula("p() q()").ok());
  EXPECT_FALSE(ParseFormula("$ says x()").ok());
}

TEST(ParserTest, RoundTripStability) {
  const char* cases[] = {
      "TypeChecker says isTypeSafe(PGM)",
      "Nexus says /proc/ipd/30 speaksfor IPCAnalyzer",
      "Filesystem says NTP speaksfor Filesystem on TimeNow",
      "NTP says TimeNow < 20260319",
      "$X says openFile(report) and SafetyCertifier says safe($X)",
      "A says not (p() or q())",
      "(p() => q()) => r()",
      "A says (B says ok())",
      "owner(\"file with spaces\", 42)",
  };
  for (const char* text : cases) {
    Formula once = F(text);
    Formula twice = F(once->ToString());
    EXPECT_TRUE(Equals(once, twice)) << text << " reprinted as " << once->ToString();
  }
}

TEST(ParsePrincipalTest, Valid) {
  Result<Principal> p = ParsePrincipal("HW.kernel.process23");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->path().size(), 2u);
}

TEST(ParsePrincipalTest, Invalid) {
  EXPECT_FALSE(ParsePrincipal("").ok());
  EXPECT_FALSE(ParsePrincipal("A B").ok());
  EXPECT_FALSE(ParsePrincipal("42").ok());  // Lexes as int, not ident.
}

// ------------------------------------------------------- Match/Substitute

TEST(MatchTest, VariablePrincipalBinds) {
  Bindings b;
  EXPECT_TRUE(Match(F("$X says openFile(f)"), F("/proc/ipd/12 says openFile(f)"), b));
  EXPECT_EQ(b.at("X").principal().ToString(), "/proc/ipd/12");
}

TEST(MatchTest, VariableTermBinds) {
  Bindings b;
  EXPECT_TRUE(Match(F("Cert says safe($X)"), F("Cert says safe(/proc/ipd/12)"), b));
}

TEST(MatchTest, InconsistentBindingFails) {
  Bindings b;
  EXPECT_FALSE(Match(F("$X says p($X)"), F("A says p(B)"), b));
}

TEST(MatchTest, ConsistentRepeatedVariable) {
  Bindings b;
  EXPECT_TRUE(Match(F("$X says p($X)"), F("A says p(A)"), b));
}

TEST(MatchTest, MismatchedStructureFails) {
  Bindings b;
  EXPECT_FALSE(Match(F("A says p()"), F("A says q()"), b));
  EXPECT_FALSE(Match(F("A says p()"), F("B says p()"), b));
  EXPECT_FALSE(Match(F("x < 3"), F("x > 3"), b));
}

TEST(SubstituteTest, AppliesBindings) {
  Bindings b;
  ASSERT_TRUE(Match(F("$X says openFile(f)"), F("P says openFile(f)"), b));
  Formula instantiated = Substitute(F("Cert says safe($X)"), b);
  EXPECT_TRUE(Equals(instantiated, F("Cert says safe(P)")));
}

TEST(SubstituteTest, UnboundVariablesRemain) {
  Bindings b;
  Formula f = Substitute(F("Cert says safe($Y)"), b);
  EXPECT_FALSE(IsGround(f));
}

// ------------------------------------------------------------ ScopeMatch

TEST(ScopeTest, ComparisonMentionsSymbol) {
  EXPECT_TRUE(ScopeMatches(F("TimeNow < 20260319"), "TimeNow"));
  EXPECT_FALSE(ScopeMatches(F("Quota < 80"), "TimeNow"));
}

TEST(ScopeTest, PredicateNameMatches) {
  EXPECT_TRUE(ScopeMatches(F("openFile(f)"), "openFile"));
  EXPECT_FALSE(ScopeMatches(F("openFile(f)"), "closeFile"));
}

TEST(ScopeTest, CompoundRequiresAllAtoms) {
  EXPECT_TRUE(ScopeMatches(F("TimeNow < 5 and TimeNow > 1"), "TimeNow"));
  EXPECT_FALSE(ScopeMatches(F("TimeNow < 5 and Quota < 80"), "TimeNow"));
}

// ------------------------------------------------------------ Conjuncts

TEST(ConjunctsTest, FlattensLeftToRight) {
  std::vector<Formula> parts = Conjuncts(F("p() and q() and r()"));
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0]->pred_name(), "p");
  EXPECT_EQ(parts[1]->pred_name(), "q");
  EXPECT_EQ(parts[2]->pred_name(), "r");
}

TEST(ConjunctsTest, NonConjunctionYieldsSelf) {
  EXPECT_EQ(Conjuncts(F("p()")).size(), 1u);
}

// -------------------------------------------------------------- Checker

std::vector<Formula> Creds(std::initializer_list<const char*> texts) {
  std::vector<Formula> out;
  for (const char* t : texts) {
    out.push_back(F(t));
  }
  return out;
}

TEST(CheckerTest, PremiseMatchesCredential) {
  auto creds = Creds({"A says ok()"});
  CheckResult r = CheckProof(proof::Premise(F("A says ok()")), F("A says ok()"), creds);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rules_applied, 1);
}

TEST(CheckerTest, PremiseNotSuppliedFails) {
  auto creds = Creds({"A says ok()"});
  CheckResult r = CheckProof(proof::Premise(F("B says ok()")), F("B says ok()"), creds);
  EXPECT_FALSE(r.status.ok());
}

TEST(CheckerTest, TrueIsFreePremise) {
  CheckResult r = CheckProof(proof::Premise(F("true")), F("true"), {});
  EXPECT_TRUE(r.status.ok());
}

TEST(CheckerTest, AndIntroAndElim) {
  auto creds = Creds({"A says p()", "B says q()"});
  Proof both = proof::AndIntro(proof::Premise(F("A says p()")), proof::Premise(F("B says q()")));
  EXPECT_TRUE(CheckProof(both, F("A says p() and B says q()"), creds).status.ok());
  EXPECT_TRUE(CheckProof(proof::AndElimL(both), F("A says p()"), creds).status.ok());
  EXPECT_TRUE(CheckProof(proof::AndElimR(both), F("B says q()"), creds).status.ok());
}

TEST(CheckerTest, AndElimOnNonConjunctionFails) {
  auto creds = Creds({"A says p()"});
  CheckResult r =
      CheckProof(proof::AndElimL(proof::Premise(F("A says p()"))), F("A says p()"), creds);
  EXPECT_FALSE(r.status.ok());
}

TEST(CheckerTest, OrIntro) {
  auto creds = Creds({"A says p()"});
  Proof p = proof::OrIntroL(proof::Premise(F("A says p()")), F("B says q()"));
  EXPECT_TRUE(CheckProof(p, F("A says p() or B says q()"), creds).status.ok());
  Proof p2 = proof::OrIntroR(F("B says q()"), proof::Premise(F("A says p()")));
  EXPECT_TRUE(CheckProof(p2, F("B says q() or A says p()"), creds).status.ok());
}

TEST(CheckerTest, OrElimCaseAnalysis) {
  auto creds = Creds({"A says (p() or q())"});
  // From A says (p or q) we cannot do or-elim directly (it is inside says);
  // test the propositional form with a raw disjunction premise instead.
  auto creds2 = Creds({"p() or q()", "p() => r()", "q() => r()"});
  Proof p = proof::OrElim(proof::Premise(F("p() or q()")), proof::Premise(F("p() => r()")),
                          proof::Premise(F("q() => r()")));
  EXPECT_TRUE(CheckProof(p, F("r()"), creds2).status.ok());
}

TEST(CheckerTest, OrElimMismatchedCasesFail) {
  auto creds = Creds({"p() or q()", "p() => r()", "q() => s()"});
  Proof p = proof::OrElim(proof::Premise(F("p() or q()")), proof::Premise(F("p() => r()")),
                          proof::Premise(F("q() => s()")));
  EXPECT_FALSE(CheckProof(p, F("r()"), creds).status.ok());
}

TEST(CheckerTest, ImpliesElimModusPonens) {
  auto creds = Creds({"A says p()", "(A says p()) => (B says q())"});
  Proof p = proof::ImpliesElim(proof::Premise(F("(A says p()) => (B says q())")),
                               proof::Premise(F("A says p()")));
  EXPECT_TRUE(CheckProof(p, F("B says q()"), creds).status.ok());
}

TEST(CheckerTest, ImpliesElimAntecedentMismatchFails) {
  auto creds = Creds({"A says r()", "(A says p()) => (B says q())"});
  Proof p = proof::ImpliesElim(proof::Premise(F("(A says p()) => (B says q())")),
                               proof::Premise(F("A says r()")));
  EXPECT_FALSE(CheckProof(p, F("B says q()"), creds).status.ok());
}

TEST(CheckerTest, ImpliesIntroDischargesAssumption) {
  // Prove p() => p() from nothing.
  Proof p = proof::ImpliesIntro(F("p()"), proof::Assumption(F("p()")));
  EXPECT_TRUE(CheckProof(p, F("p() => p()"), {}).status.ok());
}

TEST(CheckerTest, UndischargedAssumptionFails) {
  CheckResult r = CheckProof(proof::Assumption(F("p()")), F("p()"), {});
  EXPECT_FALSE(r.status.ok());
}

TEST(CheckerTest, DoubleNegIntro) {
  auto creds = Creds({"A says p()"});
  Proof p = proof::DoubleNegIntro(proof::Premise(F("A says p()")));
  EXPECT_TRUE(CheckProof(p, F("not not (A says p())"), creds).status.ok());
}

TEST(CheckerTest, SaysIntroFromOwnStatements) {
  // From A says p() one may conclude A says (A says p())? No — says-intro
  // wraps the derived formula: A says p() |- P says (A says p()) requires
  // the subproof attributable to P. Attributable to A itself works.
  auto creds = Creds({"A says p()"});
  Proof p = proof::SaysIntro(Principal("A"), proof::Premise(F("A says p()")));
  EXPECT_TRUE(CheckProof(p, F("A says (A says p())"), creds).status.ok());
}

TEST(CheckerTest, SaysIntroOfTautology) {
  Proof inner = proof::ImpliesIntro(F("p()"), proof::Assumption(F("p()")));
  Proof p = proof::SaysIntro(Principal("Anyone"), inner);
  EXPECT_TRUE(CheckProof(p, F("Anyone says (p() => p())"), {}).status.ok());
}

TEST(CheckerTest, SaysIntroUsingOthersStatementsFails) {
  auto creds = Creds({"B says p()"});
  Proof p = proof::SaysIntro(Principal("A"), proof::Premise(F("B says p()")));
  EXPECT_FALSE(CheckProof(p, F("A says (B says p())"), creds).status.ok());
}

TEST(CheckerTest, SaysDistribution) {
  auto creds = Creds({"P says (p() => q())", "P says p()"});
  Proof p = proof::SaysImpliesElim(proof::Premise(F("P says (p() => q())")),
                                   proof::Premise(F("P says p()")));
  EXPECT_TRUE(CheckProof(p, F("P says q()"), creds).status.ok());
}

TEST(CheckerTest, SaysDistributionSpeakerMismatchFails) {
  auto creds = Creds({"P says (p() => q())", "Q says p()"});
  Proof p = proof::SaysImpliesElim(proof::Premise(F("P says (p() => q())")),
                                   proof::Premise(F("Q says p()")));
  EXPECT_FALSE(CheckProof(p, F("P says q()"), creds).status.ok());
}

TEST(CheckerTest, SaysAndIntroElim) {
  auto creds = Creds({"P says p()", "P says q()"});
  Proof both =
      proof::SaysAndIntro(proof::Premise(F("P says p()")), proof::Premise(F("P says q()")));
  EXPECT_TRUE(CheckProof(both, F("P says (p() and q())"), creds).status.ok());
  EXPECT_TRUE(CheckProof(proof::SaysAndElimL(both), F("P says p()"), creds).status.ok());
  EXPECT_TRUE(CheckProof(proof::SaysAndElimR(both), F("P says q()"), creds).status.ok());
}

TEST(CheckerTest, SubprincipalAxiom) {
  Proof p = proof::Subprincipal(Principal("Nexus"), Principal("Nexus").Sub("ipd12"));
  EXPECT_TRUE(CheckProof(p, F("Nexus speaksfor Nexus.ipd12"), {}).status.ok());
}

TEST(CheckerTest, SubprincipalAxiomRejectsNonPrefix) {
  Proof p = proof::Subprincipal(Principal("A"), Principal("B"));
  EXPECT_FALSE(CheckProof(p, F("A speaksfor B"), {}).status.ok());
}

TEST(CheckerTest, SubprincipalAxiomRejectsSelf) {
  Proof p = proof::Subprincipal(Principal("A"), Principal("A"));
  EXPECT_FALSE(CheckProof(p, F("A speaksfor A"), {}).status.ok());
}

TEST(CheckerTest, SpeaksForElim) {
  auto creds = Creds({"A speaksfor B", "A says ok()"});
  Proof p = proof::SpeaksForElim(proof::Premise(F("A speaksfor B")),
                                 proof::Premise(F("A says ok()")));
  EXPECT_TRUE(CheckProof(p, F("B says ok()"), creds).status.ok());
}

TEST(CheckerTest, SpeaksForElimCoversSubprincipalSpeakers) {
  // A speaksfor B also attributes statements by A.x to B.
  auto creds = Creds({"A speaksfor B", "A.x says ok()"});
  Proof p = proof::SpeaksForElim(proof::Premise(F("A speaksfor B")),
                                 proof::Premise(F("A.x says ok()")));
  EXPECT_TRUE(CheckProof(p, F("B says ok()"), creds).status.ok());
}

TEST(CheckerTest, ScopedDelegationAdmitsInScopeStatements) {
  auto creds = Creds({"NTP speaksfor FS on TimeNow", "NTP says TimeNow < 100"});
  Proof p = proof::SpeaksForElim(proof::Premise(F("NTP speaksfor FS on TimeNow")),
                                 proof::Premise(F("NTP says TimeNow < 100")));
  EXPECT_TRUE(CheckProof(p, F("FS says TimeNow < 100"), creds).status.ok());
}

TEST(CheckerTest, ScopedDelegationRejectsOutOfScope) {
  auto creds = Creds({"NTP speaksfor FS on TimeNow", "NTP says deleteAll()"});
  Proof p = proof::SpeaksForElim(proof::Premise(F("NTP speaksfor FS on TimeNow")),
                                 proof::Premise(F("NTP says deleteAll()")));
  EXPECT_FALSE(CheckProof(p, F("FS says deleteAll()"), creds).status.ok());
}

TEST(CheckerTest, HandoffFromDelegateeStatement) {
  auto creds = Creds({"B says (A speaksfor B)"});
  Proof p = proof::Handoff(proof::Premise(F("B says (A speaksfor B)")));
  EXPECT_TRUE(CheckProof(p, F("A speaksfor B"), creds).status.ok());
}

TEST(CheckerTest, HandoffBySuperprincipal) {
  // The kernel (prefix of the process principal) can hand off authority
  // over the process: Nexus says (IPC.5 speaksfor Nexus.ipd12).
  auto creds = Creds({"Nexus says (IPC.5 speaksfor Nexus.ipd12)"});
  Proof p = proof::Handoff(proof::Premise(F("Nexus says (IPC.5 speaksfor Nexus.ipd12)")));
  EXPECT_TRUE(CheckProof(p, F("IPC.5 speaksfor Nexus.ipd12"), creds).status.ok());
}

TEST(CheckerTest, HandoffByUnrelatedSpeakerFails) {
  auto creds = Creds({"C says (A speaksfor B)"});
  Proof p = proof::Handoff(proof::Premise(F("C says (A speaksfor B)")));
  EXPECT_FALSE(CheckProof(p, F("A speaksfor B"), creds).status.ok());
}

TEST(CheckerTest, SpeaksForTransChainsDelegation) {
  auto creds = Creds({"A speaksfor B", "B speaksfor C"});
  Proof p = proof::SpeaksForTrans(proof::Premise(F("A speaksfor B")),
                                  proof::Premise(F("B speaksfor C")));
  EXPECT_TRUE(CheckProof(p, F("A speaksfor C"), creds).status.ok());
}

TEST(CheckerTest, SpeaksForTransPropagatesScope) {
  auto creds = Creds({"A speaksfor B on TimeNow", "B speaksfor C"});
  Proof p = proof::SpeaksForTrans(proof::Premise(F("A speaksfor B on TimeNow")),
                                  proof::Premise(F("B speaksfor C")));
  EXPECT_TRUE(CheckProof(p, F("A speaksfor C on TimeNow"), creds).status.ok());
}

TEST(CheckerTest, SpeaksForTransChainMismatchFails) {
  auto creds = Creds({"A speaksfor B", "X speaksfor C"});
  Proof p = proof::SpeaksForTrans(proof::Premise(F("A speaksfor B")),
                                  proof::Premise(F("X speaksfor C")));
  EXPECT_FALSE(CheckProof(p, F("A speaksfor C"), creds).status.ok());
}

TEST(CheckerTest, AuthorityDeclineFailsProof) {
  auto authority = [](const Formula&) { return false; };
  CheckResult r = CheckProof(proof::Authority(F("NTP says TimeNow < 100")),
                             F("NTP says TimeNow < 100"), {}, authority);
  EXPECT_FALSE(r.status.ok());
}

TEST(CheckerTest, AuthorityUnreachableFailsProof) {
  CheckResult r = CheckProof(proof::Authority(F("NTP says TimeNow < 100")),
                             F("NTP says TimeNow < 100"), {}, nullptr);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kUnavailable);
}

TEST(CheckerTest, GoalVariableInstantiation) {
  auto creds = Creds({"/proc/ipd/12 says openFile(report)",
                      "SafetyCertifier says safe(/proc/ipd/12)"});
  Proof p = proof::AndIntro(proof::Premise(F("/proc/ipd/12 says openFile(report)")),
                            proof::Premise(F("SafetyCertifier says safe(/proc/ipd/12)")));
  CheckResult r =
      CheckProof(p, F("$X says openFile(report) and SafetyCertifier says safe($X)"), creds);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.bindings.at("X").ToString(), "/proc/ipd/12");
}

TEST(CheckerTest, GoalVariableInconsistentInstantiationFails) {
  auto creds = Creds({"/proc/ipd/12 says openFile(report)",
                      "SafetyCertifier says safe(/proc/ipd/13)"});
  Proof p = proof::AndIntro(proof::Premise(F("/proc/ipd/12 says openFile(report)")),
                            proof::Premise(F("SafetyCertifier says safe(/proc/ipd/13)")));
  CheckResult r =
      CheckProof(p, F("$X says openFile(report) and SafetyCertifier says safe($X)"), creds);
  EXPECT_FALSE(r.status.ok());
}

TEST(CheckerTest, ConjunctionOrderInsensitiveGoalDischarge) {
  auto creds = Creds({"A says p()", "B says q()"});
  Proof p = proof::AndIntro(proof::Premise(F("B says q()")), proof::Premise(F("A says p()")));
  EXPECT_TRUE(CheckProof(p, F("A says p() and B says q()"), creds).status.ok());
}

TEST(CheckerTest, WrongConclusionFails) {
  auto creds = Creds({"A says p()"});
  CheckResult r = CheckProof(proof::Premise(F("A says p()")), F("A says q()"), creds);
  EXPECT_FALSE(r.status.ok());
}

TEST(CheckerTest, PaperTimeSensitiveFileScenario) {
  // Goal from §2.5 and the credentials that discharge it.
  Formula goal = F("Owner says TimeNow < 20260319");
  auto creds = Creds({"Owner says (NTP speaksfor Owner on TimeNow)",
                      "NTP says TimeNow < 20260319"});
  Proof p = proof::SpeaksForElim(
      proof::Handoff(proof::Premise(F("Owner says (NTP speaksfor Owner on TimeNow)"))),
      proof::Premise(F("NTP says TimeNow < 20260319")));
  CheckResult r = CheckProof(p, goal, creds);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rules_applied, 4);
}

TEST(CheckerTest, PaperSafetyCertifierScenario) {
  // §2.2 alternative labels: the IPC analyzer (running as process 30)
  // attests that process 12 has no path to the filesystem or nameserver.
  Formula goal = F("/proc/ipd/30 says (not hasPath(/proc/ipd/12, Filesystem) and "
                   "not hasPath(/proc/ipd/12, Nameserver))");
  auto creds = Creds({"/proc/ipd/30 says not hasPath(/proc/ipd/12, Filesystem)",
                      "/proc/ipd/30 says not hasPath(/proc/ipd/12, Nameserver)"});
  Proof p = proof::SaysAndIntro(
      proof::Premise(F("/proc/ipd/30 says not hasPath(/proc/ipd/12, Filesystem)")),
      proof::Premise(F("/proc/ipd/30 says not hasPath(/proc/ipd/12, Nameserver)")));
  EXPECT_TRUE(CheckProof(p, goal, creds).status.ok());
}

TEST(CheckerTest, NullProofRejected) {
  CheckResult r = CheckProof(nullptr, F("p()"), {});
  EXPECT_FALSE(r.status.ok());
}

// --------------------------------------------------------- Serialization

TEST(ProofSerializationTest, RoundTrip) {
  Proof p = proof::SpeaksForElim(
      proof::Handoff(proof::Premise(F("Owner says (NTP speaksfor Owner on TimeNow)"))),
      proof::Premise(F("NTP says TimeNow < 20260319")));
  std::string text = SerializeProof(p);
  Result<Proof> restored = DeserializeProof(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SerializeProof(*restored), text);

  // The restored proof still checks.
  auto creds = Creds({"Owner says (NTP speaksfor Owner on TimeNow)",
                      "NTP says TimeNow < 20260319"});
  EXPECT_TRUE(CheckProof(*restored, F("Owner says TimeNow < 20260319"), creds).status.ok());
}

TEST(ProofSerializationTest, RoundTripWithPrincipalAndStrings) {
  Proof p = proof::SaysIntro(Principal("HW").Sub("kernel"),
                             proof::Premise(F("HW.kernel says owns(\"/dir/file\")")));
  Result<Proof> restored = DeserializeProof(SerializeProof(p));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(SerializeProof(*restored), SerializeProof(p));
}

TEST(ProofSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeProof("").ok());
  EXPECT_FALSE(DeserializeProof("(unknown-rule)").ok());
  EXPECT_FALSE(DeserializeProof("(premise \"p()\"").ok());
  EXPECT_FALSE(DeserializeProof("(premise \"not valid nal").ok());
  EXPECT_FALSE(DeserializeProof("(premise \"p()\") junk").ok());
}

// -------------------------------------------------------------- Prover

TEST(ProverTest, DirectPremise) {
  auto creds = Creds({"A says ok()"});
  Result<Proof> p = AutoProve(F("A says ok()"), creds);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(CheckProof(*p, F("A says ok()"), creds).status.ok());
}

TEST(ProverTest, ConjunctionSplit) {
  auto creds = Creds({"A says p()", "B says q()"});
  Result<Proof> p = AutoProve(F("A says p() and B says q()"), creds);
  ASSERT_TRUE(p.ok());
}

TEST(ProverTest, DisjunctionEitherSide) {
  auto creds = Creds({"B says q()"});
  Result<Proof> p = AutoProve(F("A says p() or B says q()"), creds);
  ASSERT_TRUE(p.ok());
}

TEST(ProverTest, DelegationViaHandoff) {
  auto creds = Creds({"Owner says (NTP speaksfor Owner on TimeNow)",
                      "NTP says TimeNow < 20260319"});
  Result<Proof> p = AutoProve(F("Owner says TimeNow < 20260319"), creds);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(CheckProof(*p, F("Owner says TimeNow < 20260319"), creds).status.ok());
}

TEST(ProverTest, SubprincipalAttribution) {
  auto creds = Creds({"Nexus says launched(/proc/ipd/12)"});
  Result<Proof> p = AutoProve(F("Nexus.ipd12 says launched(/proc/ipd/12)"), creds);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
}

TEST(ProverTest, SaysDistribution) {
  auto creds = Creds({"A says (Valid(S) => ok())", "A says Valid(S)"});
  Result<Proof> p = AutoProve(F("A says ok()"), creds);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
}

TEST(ProverTest, GoalVariables) {
  auto creds = Creds({"/proc/ipd/12 says openFile(report)",
                      "SafetyCertifier says safe(/proc/ipd/12)"});
  Result<Proof> p =
      AutoProve(F("$X says openFile(report) and SafetyCertifier says safe($X)"), creds);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
}

TEST(ProverTest, TransitiveDelegation) {
  auto creds = Creds({"B says (A speaksfor B)", "C says (B speaksfor C)", "A says ok()"});
  Result<Proof> p = AutoProve(F("C says ok()"), creds);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(CheckProof(*p, F("C says ok()"), creds).status.ok());
}

TEST(ProverTest, SpeaksForGoalByTransitivity) {
  auto creds = Creds({"A speaksfor B", "B speaksfor C"});
  Result<Proof> p = AutoProve(F("A speaksfor C"), creds);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(CheckProof(*p, F("A speaksfor C"), creds).status.ok());

  // The first hop's scope carries into the conclusion, so a scoped first
  // hop serves only a goal with that same scope.
  auto scoped = Creds({"A speaksfor B on TimeNow", "B speaksfor C"});
  Result<Proof> same = AutoProve(F("A speaksfor C on TimeNow"), scoped);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(CheckProof(*same, F("A speaksfor C on TimeNow"), scoped).status.ok());
  EXPECT_FALSE(AutoProve(F("A speaksfor C on Storage"), scoped).ok());
  EXPECT_FALSE(AutoProve(F("A speaksfor C"), scoped).ok());
}

TEST(ProverTest, AuthorityDischargeWhenPermitted) {
  ProverOptions options;
  options.may_query_authority = [](const Formula& f) { return ScopeMatches(f, "TimeNow"); };
  Result<Proof> p = AutoProve(F("NTP says TimeNow < 100"), {}, options);
  ASSERT_TRUE(p.ok());
  // The proof rests on the authority: with none reachable it fails.
  EXPECT_EQ(CheckProof(*p, F("NTP says TimeNow < 100"), {}).status.code(),
            ErrorCode::kUnavailable);
}

TEST(ProverTest, FailsWhenUnprovable) {
  auto creds = Creds({"A says p()"});
  EXPECT_FALSE(AutoProve(F("B says q()"), creds).ok());
}

TEST(ProverTest, DepthLimitRespected) {
  // A chain of delegations longer than max_depth should fail gracefully.
  std::vector<Formula> creds;
  for (int i = 0; i < 20; ++i) {
    creds.push_back(F("P" + std::to_string(i + 1) + " says (P" + std::to_string(i) +
                      " speaksfor P" + std::to_string(i + 1) + ")"));
  }
  creds.push_back(F("P0 says ok()"));
  ProverOptions options;
  options.max_depth = 3;
  EXPECT_FALSE(AutoProve(F("P20 says ok()"), creds, options).ok());
}

TEST(ProverTest, ScopedDelegationRespectedInSearch) {
  auto creds = Creds({"Owner says (NTP speaksfor Owner on TimeNow)", "NTP says deleteAll()"});
  EXPECT_FALSE(AutoProve(F("Owner says deleteAll()"), creds).ok());
}

// Parameterized sweep: proofs of increasing delegation-chain length all
// validate, and rule counts grow linearly (the shape behind Fig. 5).
class ProofChainTest : public ::testing::TestWithParam<int> {};

TEST_P(ProofChainTest, DelegationChainProves) {
  int n = GetParam();
  std::vector<Formula> creds;
  for (int i = 0; i < n; ++i) {
    creds.push_back(F("P" + std::to_string(i + 1) + " says (P" + std::to_string(i) +
                      " speaksfor P" + std::to_string(i + 1) + ")"));
  }
  creds.push_back(F("P0 says ok()"));

  // Build the chain proof bottom-up: P0 says ok(), then lift through each
  // delegation.
  Proof current = proof::Premise(F("P0 says ok()"));
  for (int i = 0; i < n; ++i) {
    std::string hop = "P" + std::to_string(i + 1) + " says (P" + std::to_string(i) +
                      " speaksfor P" + std::to_string(i + 1) + ")";
    current = proof::SpeaksForElim(proof::Handoff(proof::Premise(F(hop))), current);
  }
  Formula goal = F("P" + std::to_string(n) + " says ok()");
  CheckResult r = CheckProof(current, goal, creds);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rules_applied, 1 + 3 * n);
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, ProofChainTest, ::testing::Values(0, 1, 2, 4, 8, 16));

// --------------------------------------------------------------- Interner

TEST(InternerTest, StructurallyEqualFormulasShareOneId) {
  Interner interner;
  // Two independent parses: distinct nodes, equal structure.
  Formula a = F("Alice says (ok(x) and TimeNow < 20)");
  Formula b = F("Alice says (ok(x) and TimeNow < 20)");
  ASSERT_NE(a.get(), b.get());
  FormulaId ida = interner.Intern(a);
  FormulaId idb = interner.Intern(b);
  EXPECT_NE(ida, kInvalidFormulaId);
  EXPECT_EQ(ida, idb);
  EXPECT_EQ(interner.size(), 1u);
  // The canonical node is shared: Canonical() of either alias is `a`.
  EXPECT_EQ(interner.Canonical(b).get(), a.get());
  EXPECT_TRUE(Equals(interner.Resolve(ida), a));
}

TEST(InternerTest, DistinctFormulasGetDistinctIds) {
  Interner interner;
  FormulaId says = interner.Intern(F("A says p()"));
  FormulaId other_speaker = interner.Intern(F("B says p()"));
  FormulaId other_body = interner.Intern(F("A says q()"));
  EXPECT_NE(says, other_speaker);
  EXPECT_NE(says, other_body);
  EXPECT_NE(other_speaker, other_body);
  EXPECT_EQ(interner.size(), 3u);
}

TEST(InternerTest, ReinterningCanonicalNodeIsStable) {
  Interner interner;
  Formula canonical = interner.Canonical(F("A speaksfor B on mail"));
  FormulaId id = interner.Intern(canonical);
  EXPECT_EQ(interner.Intern(canonical), id);
  EXPECT_EQ(interner.Resolve(id).get(), canonical.get());
}

TEST(InternerTest, HashRespectsSymbolPrincipalPun) {
  // Term equality puns Symbol("x") with the single-component Principal
  // "x"; the structural hash must agree or equal formulas would intern to
  // different ids.
  Formula sym = FormulaNode::Pred("p", {Term::Symbol("x")});
  Formula prin = FormulaNode::Pred("p", {Term::Prin(Principal("x"))});
  ASSERT_TRUE(Equals(sym, prin));
  EXPECT_EQ(StructuralHash(sym), StructuralHash(prin));
  Interner interner;
  EXPECT_EQ(interner.Intern(sym), interner.Intern(prin));
}

TEST(InternerTest, NullAndUnknownIdsAreInvalid) {
  Interner interner;
  EXPECT_EQ(interner.Intern(nullptr), kInvalidFormulaId);
  EXPECT_EQ(interner.Resolve(kInvalidFormulaId), nullptr);
  EXPECT_EQ(interner.Resolve(999), nullptr);
}

// ------------------------------------------------- Recorded authority leaves

// The guard's goal-first check rests on this contract: a callback that
// answers yes sees every authority leaf of a passing proof, in proof order,
// and nothing of a proof that fails before reaching a leaf.
TEST(CheckerTest, RecordingCallbackSeesEveryLeafOfAPassingProofInOrder) {
  Formula s1 = F("Clock says TimeNow < 10");
  Formula s2 = F("Quota says usage < 80");
  Proof p = proof::AndIntro(proof::Authority(s1),
                            proof::AndIntro(proof::Premise(F("A says ok()")),
                                            proof::Authority(s2)));
  std::vector<Formula> leaves;
  auto record = [&leaves](const Formula& f) {
    leaves.push_back(f);
    return true;
  };
  Formula goal = F("(Clock says TimeNow < 10) and ((A says ok()) and (Quota says usage < 80))");
  EXPECT_TRUE(CheckProof(p, goal, Creds({"A says ok()"}), record).status.ok());
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_TRUE(Equals(leaves[0], s1));
  EXPECT_TRUE(Equals(leaves[1], s2));

  leaves.clear();
  Proof premise_first = proof::AndIntro(proof::Premise(F("A says ok()")), proof::Authority(s1));
  EXPECT_FALSE(CheckProof(premise_first, F("(A says ok()) and (Clock says TimeNow < 10)"),
                          Creds({}), record)
                   .status.ok());
  EXPECT_TRUE(leaves.empty());
}

}  // namespace
}  // namespace nexus::nal

#include "services/time_authority.h"

namespace nexus::services {

bool EvaluateComparison(nal::CompareOp op, int64_t lhs, int64_t rhs) {
  switch (op) {
    case nal::CompareOp::kLt:
      return lhs < rhs;
    case nal::CompareOp::kLe:
      return lhs <= rhs;
    case nal::CompareOp::kEq:
      return lhs == rhs;
    case nal::CompareOp::kGe:
      return lhs >= rhs;
    case nal::CompareOp::kGt:
      return lhs > rhs;
    case nal::CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

bool TimeAuthority::Handles(const nal::Formula& statement) const {
  if (statement->kind() != nal::FormulaKind::kSays || !(statement->speaker() == name_)) {
    return false;
  }
  const nal::Formula& body = statement->child1();
  if (body->kind() != nal::FormulaKind::kCompare) {
    return false;
  }
  auto is_time = [](const nal::Term& t) {
    return t.kind() == nal::TermKind::kSymbol && t.text() == "TimeNow";
  };
  auto is_const = [](const nal::Term& t) { return t.kind() == nal::TermKind::kInt; };
  return (is_time(body->lhs()) && is_const(body->rhs())) ||
         (is_const(body->lhs()) && is_time(body->rhs()));
}

bool TimeAuthority::Answer(const nal::Formula& statement) {
  if (!Handles(statement)) {
    return false;
  }
  const nal::Formula& body = statement->child1();
  int64_t now = clock_();
  if (body->lhs().kind() == nal::TermKind::kSymbol) {
    return EvaluateComparison(body->compare_op(), now, body->rhs().int_value());
  }
  return EvaluateComparison(body->compare_op(), body->lhs().int_value(), now);
}

}  // namespace nexus::services

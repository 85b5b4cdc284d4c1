#include "core/authority.h"

#include "nal/parser.h"

namespace nexus::core {

VouchFuture LocalAuthority::Vouch(std::span<const nal::Formula> statements,
                                  uint64_t timeout_us) {
  (void)timeout_us;
  VouchOutcome outcome;
  outcome.answers.reserve(statements.size());
  for (const nal::Formula& statement : statements) {
    outcome.answers.push_back(Answer(statement));
  }
  return VouchFuture(std::move(outcome));
}

kernel::IpcReply AuthorityPortHandler::Handle(const kernel::IpcContext& context,
                                              const kernel::IpcMessage& message) {
  (void)context;
  // Statements cross the authority port as serialized formula text — the
  // one deliberate text surface of the protocol (§2.7 answers must be
  // fresh; nothing about the statement is interned or retained).
  static const kernel::OpId check_op = kernel::InternOp("check");
  if (message.op != check_op || !message.ArgIsString(0)) {
    return kernel::IpcReply(InvalidArgument("authority protocol: check <formula>"));
  }
  Result<nal::Formula> statement = nal::ParseFormula(*message.ArgString(0));
  if (!statement.ok()) {
    return kernel::IpcReply(statement.status());
  }
  if (!authority_->Handles(*statement)) {
    return kernel::IpcReply(NotFound("authority does not evaluate this statement"));
  }
  // A local authority answers at issue time; no deadline binds.
  bool vouches = authority_->VouchOne(*statement, /*timeout_us=*/0);
  return kernel::IpcReply::Ok().AddU64(vouches ? 1 : 0);
}

}  // namespace nexus::core

#include "net/remote_authority.h"

#include "kernel/ipc.h"
#include "kernel/trace.h"
#include "nal/parser.h"
#include "util/bytes.h"

namespace nexus::net {

namespace {

// One kRemoteVouch provenance event per attested round trip (aux =
// statement count). The trace id is the calling thread's scope: remote
// consultations run synchronously inside the traced authorization.
void EmitRemoteVouch(uint64_t statements, bool ok) {
  kernel::FlightRecorder& recorder = kernel::FlightRecorder::Global();
  if (!recorder.enabled()) {
    return;
  }
  uint64_t id = kernel::CurrentTraceId();
  if (id == 0) {
    return;
  }
  kernel::TraceEvent e;
  e.trace_id = id;
  e.aux = statements;
  e.flags = static_cast<uint16_t>(kernel::kTraceFlagRemote |
                                  (ok ? 0 : kernel::kTraceFlagDenied));
  e.stage = kernel::TraceStage::kRemoteVouch;
  recorder.Emit(e);
}

}  // namespace

AuthorityService::AuthorityService(NetNode* node) : node_(node) {
  node_->RegisterService(std::string(kServiceName), this);
}

bool AuthorityService::Evaluate(const nal::Formula& statement) {
  queries_served_->Increment();
  for (core::LocalAuthority* authority : authorities_) {
    if (authority->Handles(statement)) {
      // A local authority answers at issue time; no deadline binds.
      return authority->VouchOne(statement, /*timeout_us=*/0);
    }
  }
  return false;  // No local authority evaluates it: deny.
}

Result<Bytes> AuthorityService::Handle(AttestedChannel& channel, ByteView request) {
  (void)channel;
  // Wire format: u32 count, then `count` length-prefixed statement texts
  // and nothing after them. Reply: a marshaled typed IpcReply — slot 0 the
  // verdict count (u64), slot 1 the verdict bytes — so the client consumes
  // the batch through the strict reply codec instead of trusting raw
  // bytes. A malformed request (a statement cut short, or bytes after the
  // last one) returns an empty buffer, which the client's UnmarshalReply
  // rejects: deny-all, fail closed. The whole request is decoded before
  // any statement is evaluated.
  batches_served_->Increment();
  ByteReader reader(request);
  Result<std::vector<Bytes>> texts = reader.ReadLengthPrefixedList();
  if (!texts.ok() || !reader.AtEnd()) {
    return Bytes{};
  }
  Bytes verdicts(texts->size(), 0);
  for (size_t i = 0; i < texts->size(); ++i) {
    const Bytes& text = (*texts)[i];
    // Statements are untrusted remote text sharing the IPC ABI's
    // per-payload wire bound, so a hostile peer cannot feed the NAL parser
    // an arbitrarily large formula. An oversized statement is a deny, and
    // the rest of the batch still answers.
    if (text.size() > kernel::kMaxArgPayload) {
      queries_served_->Increment();
      continue;
    }
    Result<nal::Formula> statement = nal::ParseFormula(ToString(text));
    if (!statement.ok()) {
      queries_served_->Increment();
      continue;
    }
    verdicts[i] = Evaluate(*statement) ? 1 : 0;
  }
  // One kBytes slot carries ALL verdicts: batches routinely exceed the 8
  // typed slots, and verdict-per-slot would also waste 9 bytes a verdict.
  kernel::IpcReply typed = kernel::IpcReply::Ok();
  typed.AddU64(texts->size()).AddBytes(verdicts);
  return kernel::MarshalReply(typed);
}

RemoteAuthority::RemoteAuthority(NetNode* node, NodeId peer, HandlesPredicate handles)
    : node_(node), peer_(std::move(peer)), handles_(std::move(handles)) {}

bool RemoteAuthority::Handles(const nal::Formula& statement) const {
  return handles_ == nullptr || handles_(statement);
}

core::VouchFuture RemoteAuthority::Vouch(std::span<const nal::Formula> statements,
                                         uint64_t timeout_us) {
  size_t count = statements.size();
  // Answers are all-false filler; `responsive` records whether they are
  // real votes. Everything unresponsive still denies — fail closed.
  auto unresponsive = [count] {
    return core::VouchFuture(
        core::VouchOutcome{std::vector<bool>(count, false), /*responsive=*/false});
  };
  if (count == 0) {
    return core::VouchFuture(core::VouchOutcome{});
  }
  stats_.queries->Increment(count);
  stats_.batch_round_trips->Increment();
  // Connect() may pump the fabric for the handshake (once per peer); the
  // request itself goes out below WITHOUT pumping, so round trips to
  // several peers can be in flight simultaneously.
  Result<AttestedChannel*> channel = node_->Connect(peer_);
  if (!channel.ok()) {
    stats_.denied_unreachable->Increment(count);
    EmitRemoteVouch(count, false);
    return unresponsive();  // Unreachable or untrusted peer: fail closed.
  }
  Bytes payload;
  AppendU32(payload, static_cast<uint32_t>(count));
  for (const nal::Formula& statement : statements) {
    AppendLengthPrefixed(payload, ToBytes(statement->ToString()));
  }
  Result<uint64_t> request =
      (*channel)->CallStart(std::string(AuthorityService::kServiceName), payload, timeout_us);
  if (!request.ok()) {
    stats_.denied_unreachable->Increment(count);
    EmitRemoteVouch(count, false);
    return unresponsive();
  }
  AttestedChannel* ch = *channel;
  uint64_t request_id = *request;
  return core::VouchFuture([this, ch, request_id, count] {
    core::VouchOutcome outcome{std::vector<bool>(count, false), /*responsive=*/true};
    Result<Bytes> reply = ch->CallFinish(request_id);
    if (!reply.ok()) {
      // In flight but lost or late: a timeout-deny (the peer may be fine
      // and the link lossy), distinct from never getting a channel at all.
      stats_.denied_timeout->Increment(count);
      EmitRemoteVouch(count, false);
      outcome.responsive = false;
      return outcome;  // One deadline governs the whole round trip.
    }
    // The batch verdict vector arrives as a typed reply (count slot +
    // verdict bytes) through the strict codec. Anything that does not
    // unmarshal whole — truncated, trailing bytes, forged ids, a count
    // that contradicts ours — denies the entire batch: fail closed. The
    // peer DID respond, so these are responsive denies (real no-votes).
    Result<kernel::IpcReply> typed = kernel::UnmarshalReply(*reply);
    if (!typed.ok() || !typed->status.ok()) {
      stats_.denied->Increment(count);
      EmitRemoteVouch(count, false);
      return outcome;
    }
    Result<uint64_t> declared = typed->ArgU64(0);
    Result<ByteView> verdicts = typed->ArgBytes(1);
    if (!declared.ok() || !verdicts.ok() || *declared != count ||
        verdicts->size() != count) {
      stats_.denied->Increment(count);
      EmitRemoteVouch(count, false);
      return outcome;
    }
    for (size_t i = 0; i < count; ++i) {
      outcome.answers[i] = (*verdicts)[i] == 1;
      (outcome.answers[i] ? stats_.vouched : stats_.denied)->Increment();
    }
    EmitRemoteVouch(count, true);
    return outcome;
  });
}

}  // namespace nexus::net

#include "kernel/ipc.h"

#include "nal/interner.h"

namespace nexus::kernel {

namespace {

// Wire op-kind discriminator (first byte after the version). Interned ids
// are the only kind; any other value is rejected.
constexpr uint8_t kOpInterned = 0;
constexpr uint8_t kWireVersion = 2;

}  // namespace

bool ArgVec::AddPayload(ArgTag tag, std::string_view payload) {
  if (count_ >= kMaxArgs || arena_.size() + payload.size() > 0xffffffffULL) {
    return false;
  }
  uint32_t offset = static_cast<uint32_t>(arena_.size());
  arena_.Append(ByteView(reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
  slots_[count_++] = Slot{tag, offset, static_cast<uint32_t>(payload.size()), 0};
  return true;
}

bool ArgVec::AddAliasedPayload(ArgTag tag, const ArgVec& source, size_t i) {
  if (count_ >= kMaxArgs || i >= source.count_) {
    return false;
  }
  const Slot& s = source.slots_[i];
  if (s.tag != ArgTag::kBytes && s.tag != ArgTag::kString) {
    return false;
  }
  if (!arena_.empty()) {
    // Mixed provenance (this vector already holds payload bytes): fall
    // back to the counted copy.
    return AddPayload(tag, source.PayloadOf(s));
  }
  // Adopt the source arena: the slot is an (offset, length) view into
  // bytes that already exist — nothing moves, nothing is counted.
  arena_ = source.arena_;
  slots_[count_++] = Slot{tag, s.offset, s.length, 0};
  return true;
}

ArgVec ArgVec::Tail(size_t from) const {
  ArgVec out;
  for (size_t i = from; i < count_; ++i) {
    out.slots_[out.count_++] = slots_[i];
  }
  out.arena_ = arena_;
  return out;
}

std::string_view SyscallName(Syscall call) {
  switch (call) {
    case Syscall::kNull:
      return "null";
    case Syscall::kGetPpid:
      return "getppid";
    case Syscall::kGetTimeOfDay:
      return "gettimeofday";
    case Syscall::kYield:
      return "yield";
    case Syscall::kOpen:
      return "open";
    case Syscall::kClose:
      return "close";
    case Syscall::kRead:
      return "read";
    case Syscall::kWrite:
      return "write";
    case Syscall::kSay:
      return "say";
    case Syscall::kSetGoal:
      return "setgoal";
    case Syscall::kSetProof:
      return "setproof";
    case Syscall::kInterpose:
      return "interpose";
    case Syscall::kIpcCall:
      return "ipc_call";
    case Syscall::kProcRead:
      return "proc_read";
  }
  return "?";
}

OpId SyscallOp(Syscall call) {
  // Appending a Syscall without growing kSyscallCount would make this
  // table silently resolve the new call to op 0 — fail the build instead.
  static_assert(static_cast<size_t>(Syscall::kProcRead) + 1 == kSyscallCount,
                "update kSyscallCount (and this assert's last enumerator) when "
                "appending syscalls");
  // One interning pass per process lifetime, first use (the table is tiny
  // and the names are kernel-owned, so nothing is charged).
  static const std::array<OpId, kSyscallCount> ids = [] {
    std::array<OpId, kSyscallCount> table{};
    for (size_t i = 0; i < table.size(); ++i) {
      table[i] = InternOp(SyscallName(static_cast<Syscall>(i)));
    }
    return table;
  }();
  size_t index = static_cast<size_t>(call);
  return index < ids.size() ? ids[index] : 0;
}

// ------------------------------------------------------------ Slot reads

namespace {

Status MissingSlot(size_t i) {
  return InvalidArgument("missing argument slot " + std::to_string(i));
}

Status WrongTag(size_t i, const char* what) {
  return InvalidArgument("argument slot " + std::to_string(i) + " is not " + what);
}

// The exact tag or kU64 (the generic integer), read into one Result.
template <typename T>
Result<T> ScalarSlot(const ArgVec& args, size_t i, ArgTag exact, const char* what) {
  if (i >= args.size()) {
    return MissingSlot(i);
  }
  ArgSlot slot = args[i];
  if (slot.tag() == exact || slot.tag() == ArgTag::kU64) {
    return static_cast<T>(slot.scalar());
  }
  return WrongTag(i, what);
}

}  // namespace

Result<uint64_t> SlotU64(const ArgVec& args, size_t i) {
  return ScalarSlot<uint64_t>(args, i, ArgTag::kU64, "a u64");
}

Result<ProcessId> SlotProcess(const ArgVec& args, size_t i) {
  return ScalarSlot<ProcessId>(args, i, ArgTag::kProcess, "a process id");
}

Result<PortId> SlotPort(const ArgVec& args, size_t i) {
  return ScalarSlot<PortId>(args, i, ArgTag::kPort, "a port id");
}

Result<uint64_t> SlotFormula(const ArgVec& args, size_t i) {
  return ScalarSlot<uint64_t>(args, i, ArgTag::kFormula, "a formula id");
}

Result<ObjectId> SlotObject(const ArgVec& args, size_t i) {
  if (i >= args.size()) {
    return MissingSlot(i);
  }
  ArgSlot slot = args[i];
  if (slot.tag() == ArgTag::kObject) {
    return static_cast<ObjectId>(slot.scalar());
  }
  if (slot.tag() == ArgTag::kU64) {
    // The generic-integer coercion must not bypass the forged-id check the
    // wire applies to kObject slots (IsKnownObjectId: a forged id would
    // reach the fail-OPEN bootstrap policy as an "unregistered object").
    if (!IsKnownObjectId(slot.scalar())) {
      return WrongTag(i, "a known object id");
    }
    return static_cast<ObjectId>(slot.scalar());
  }
  // No text coercion: object NAMES must enter through the charged intern
  // surface (Kernel::InternObjectCharged), never sneak in as ids.
  return WrongTag(i, "an object id");
}

Result<std::string_view> SlotString(const ArgVec& args, size_t i) {
  if (i >= args.size()) {
    return MissingSlot(i);
  }
  if (args[i].tag() != ArgTag::kString) {
    return WrongTag(i, "a string");
  }
  return args[i].text();
}

Result<ByteView> SlotBytes(const ArgVec& args, size_t i) {
  if (i >= args.size()) {
    return MissingSlot(i);
  }
  if (args[i].tag() != ArgTag::kBytes) {
    return WrongTag(i, "a byte payload");
  }
  return args[i].blob();
}

// ----------------------------------------------------------- Wire format
//
// A message and a reply differ only in their header:
//
//   message: u8 version (2)
//            u8 op kind: 0 = u32 interned OpId follows (the only kind)
//   reply:   u8 version (2)
//            u8 status code (ErrorCode)
//            u32 status message length + text (<= kMaxReplyStatusMessage)
//
// and share the body:
//
//   u8  argc (<= ArgVec::kMaxArgs)
//   per arg: u8 tag, then u64 scalar | u32 length + payload
//   u32 data length + data
//   (end of buffer — trailing bytes are rejected)

namespace {

// The body's bounds: slot overflow, the data cap, the per-slot payload
// cap, forged object ids. This and CheckReplyFormulas are forced inline
// and end in an inline OK so the validators fold the intermediate Status
// away: the reply check runs on every Call reply that carries slots, and
// as out-of-line calls the two helpers doubled its cost.
[[gnu::always_inline]] inline Status ValidateBody(const ArgVec& args, const Payload& data,
                                                  bool overflowed) {
  if (overflowed) {
    return InvalidArgument("IPC record exceeds the typed-slot capacity (" +
                           std::to_string(ArgVec::kMaxArgs) + " slots)");
  }
  if (data.size() > kMaxIpcData) {
    return InvalidArgument("data payload exceeds wire bound");
  }
  for (size_t i = 0; i < args.size(); ++i) {
    ArgSlot arg = args[i];
    if (!arg.is_scalar() && arg.payload_size() > kMaxArgPayload) {
      return InvalidArgument("argument payload exceeds wire bound");
    }
    if (arg.tag() == ArgTag::kObject && !IsKnownObjectId(arg.scalar())) {
      return InvalidArgument("unknown interned object id");
    }
  }
  return Status();
}

size_t BodySize(const ArgVec& args, const Payload& data) {
  size_t size = 1 + 4 + data.size();
  for (size_t i = 0; i < args.size(); ++i) {
    ArgSlot arg = args[i];
    size += 1 + (arg.is_scalar() ? 8 : 4 + arg.payload_size());
  }
  return size;
}

void WriteBody(const ArgVec& args, const Payload& data, Bytes& out) {
  out.push_back(static_cast<uint8_t>(args.size()));
  for (size_t i = 0; i < args.size(); ++i) {
    ArgSlot arg = args[i];
    out.push_back(static_cast<uint8_t>(arg.tag()));
    if (arg.is_scalar()) {
      AppendU64(out, arg.scalar());
    } else {
      AppendLengthPrefixed(out, arg.blob());
    }
  }
  AppendLengthPrefixed(out, data);
}

// Strict: bad tag, overlong count, oversized payload or data, forged
// object ids and trailing bytes reject the whole buffer.
Status ReadBody(ByteReader& reader, ArgVec* args, Payload* data) {
  Result<uint8_t> argc = reader.ReadU8();
  if (!argc.ok()) {
    return argc.status();
  }
  if (*argc > ArgVec::kMaxArgs) {
    return InvalidArgument("argument slot count exceeds capacity");
  }
  for (uint8_t i = 0; i < *argc; ++i) {
    Result<uint8_t> tag = reader.ReadU8();
    if (!tag.ok()) {
      return tag.status();
    }
    switch (static_cast<ArgTag>(*tag)) {
      case ArgTag::kU64:
      case ArgTag::kProcess:
      case ArgTag::kPort:
      case ArgTag::kObject:
      case ArgTag::kFormula: {
        Result<uint64_t> scalar = reader.ReadU64();
        if (!scalar.ok()) {
          return scalar.status();
        }
        if (static_cast<ArgTag>(*tag) == ArgTag::kObject && !IsKnownObjectId(*scalar)) {
          // A value that fits no table entry is a forgery, not an argument
          // (the bootstrap policy treats unknown objects as unguarded, so
          // letting one through would fail OPEN).
          return InvalidArgument("unknown interned object id");
        }
        args->AddScalar(static_cast<ArgTag>(*tag), *scalar);
        break;
      }
      case ArgTag::kBytes:
      case ArgTag::kString: {
        Result<ByteView> payload = reader.ReadLengthPrefixedView();
        if (!payload.ok()) {
          return payload.status();
        }
        if (payload->size() > kMaxArgPayload) {
          return InvalidArgument("argument payload exceeds wire bound");
        }
        args->AddPayload(static_cast<ArgTag>(*tag),
                         std::string_view(reinterpret_cast<const char*>(payload->data()),
                                          payload->size()));
        break;
      }
      default:
        return InvalidArgument("bad argument tag");
    }
  }
  Result<Bytes> block = reader.ReadLengthPrefixed();
  if (!block.ok()) {
    return block.status();
  }
  if (block->size() > kMaxIpcData) {
    return InvalidArgument("data payload exceeds wire bound");
  }
  *data = std::move(*block);
  if (!reader.AtEnd()) {
    return InvalidArgument("trailing bytes after IPC record");
  }
  return OkStatus();
}

// A reply is a RESULT: a formula id the receiving side cannot resolve
// names nothing and can only mislead whatever consumes it — forged,
// reject whole. (Requests leave this to the consumer, which resolves the
// goal itself; replies have no later resolution step.)
[[gnu::always_inline]] inline Status CheckReplyFormulas(const ArgVec& args) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].tag() == ArgTag::kFormula &&
        nal::Interner::Global().Resolve(args[i].scalar()) == nullptr) {
      return InvalidArgument("unknown interned formula id");
    }
  }
  return Status();
}

}  // namespace

Status ValidateWireBounds(const IpcMessage& message) {
  if (!IsKnownOpId(message.op)) {
    // Forged-id rejection is part of the bounds contract, so it holds with
    // or without interposition (the marshaled path also re-checks at
    // unmarshal time for buffers arriving from elsewhere).
    return InvalidArgument("unknown interned operation id");
  }
  return ValidateBody(message.args, message.data, message.args_overflowed());
}

Result<Bytes> MarshalMessage(const IpcMessage& message) {
  NEXUS_RETURN_IF_ERROR(ValidateWireBounds(message));
  Bytes out;
  out.reserve(2 + 4 + BodySize(message.args, message.data));
  out.push_back(kWireVersion);
  out.push_back(kOpInterned);
  AppendU32(out, message.op);
  WriteBody(message.args, message.data, out);
  return out;
}

Result<IpcMessage> UnmarshalMessage(ByteView buffer) {
  ByteReader reader(buffer);
  Result<uint8_t> version = reader.ReadU8();
  if (!version.ok()) {
    return version.status();
  }
  if (*version != kWireVersion) {
    return InvalidArgument("unsupported IPC wire version");
  }
  Result<uint8_t> op_kind = reader.ReadU8();
  if (!op_kind.ok()) {
    return op_kind.status();
  }
  if (*op_kind != kOpInterned) {
    return InvalidArgument("bad operation kind");
  }
  Result<uint32_t> op = reader.ReadU32();
  if (!op.ok()) {
    return op.status();
  }
  // Strictness: a forged id that names nothing is rejected here, not
  // carried into dispatch as an unresolvable operation.
  if (!IsKnownOpId(*op)) {
    return InvalidArgument("unknown interned operation id");
  }
  IpcMessage message(*op);
  NEXUS_RETURN_IF_ERROR(ReadBody(reader, &message.args, &message.data));
  return message;
}

Status ValidateReplyWireBounds(const IpcReply& reply) {
  if (reply.status.message().size() > kMaxReplyStatusMessage) {
    return InvalidArgument("reply status message exceeds wire bound");
  }
  NEXUS_RETURN_IF_ERROR(ValidateBody(reply.args, reply.data, reply.args_overflowed()));
  return CheckReplyFormulas(reply.args);
}

Result<Bytes> MarshalReply(const IpcReply& reply) {
  NEXUS_RETURN_IF_ERROR(ValidateReplyWireBounds(reply));
  const std::string& message = reply.status.message();
  Bytes out;
  out.reserve(2 + 4 + message.size() + BodySize(reply.args, reply.data));
  out.push_back(kWireVersion);
  out.push_back(static_cast<uint8_t>(reply.status.code()));
  AppendLengthPrefixed(out, ToBytes(message));
  WriteBody(reply.args, reply.data, out);
  return out;
}

Result<IpcReply> UnmarshalReply(ByteView buffer) {
  ByteReader reader(buffer);
  Result<uint8_t> version = reader.ReadU8();
  if (!version.ok()) {
    return version.status();
  }
  if (*version != kWireVersion) {
    return InvalidArgument("unsupported IPC wire version");
  }
  Result<uint8_t> code = reader.ReadU8();
  if (!code.ok()) {
    return code.status();
  }
  if (*code > static_cast<uint8_t>(ErrorCode::kInternal)) {
    return InvalidArgument("bad reply status code");
  }
  Result<Bytes> status_message = reader.ReadLengthPrefixed();
  if (!status_message.ok()) {
    return status_message.status();
  }
  if (status_message->size() > kMaxReplyStatusMessage) {
    return InvalidArgument("reply status message exceeds wire bound");
  }
  IpcReply reply(Status(static_cast<ErrorCode>(*code), ToString(*status_message)));
  NEXUS_RETURN_IF_ERROR(ReadBody(reader, &reply.args, &reply.data));
  NEXUS_RETURN_IF_ERROR(CheckReplyFormulas(reply.args));
  return reply;
}

}  // namespace nexus::kernel

// IPC messages, ports, and handler interfaces — typed ABI v2.
//
// All interaction between Nexus processes flows through synchronous IPC
// calls on kernel-managed ports (§2.4). The kernel authoritatively binds a
// port to its owning process, which lets the authorization layer attribute
// statements arriving on a port to that process without cryptography.
//
// Parameter marshaling is the dominant fixed cost of interpositioning
// (§5.1), so the message itself is identity-based: the operation is an
// interned OpId and arguments travel in a fixed small vector of TYPED
// slots (ArgValue: u64 | ProcessId | PortId | ObjectId | FormulaId |
// bytes | string). An interposed call whose arguments are integers or
// interned ids builds, hashes, and parses ZERO heap strings end to end.
// Operations cross only as interned ids and a string slot is never read
// as an integer, so nothing an IPC caller sends interns operation text.
// Calls and replies are one record shape (TypedRecord): the same slots,
// data block, builders and indexed accessors, one header field each (the
// call's op, the reply's status), and one body codec on the wire.
#ifndef NEXUS_KERNEL_IPC_H_
#define NEXUS_KERNEL_IPC_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "kernel/payload.h"
#include "kernel/types.h"
#include "util/bytes.h"
#include "util/status.h"

namespace nexus::kernel {

// Wire tag of one argument slot. Values are part of the marshaled format;
// never renumber.
enum class ArgTag : uint8_t {
  kU64 = 1,      // plain unsigned integer (fds, offsets, lengths, counts)
  kProcess = 2,  // ProcessId
  kPort = 3,     // PortId
  kObject = 4,   // interned ObjectId (kernel/types.h ObjectTable)
  kFormula = 5,  // interned nal::FormulaId (resolved by the consumer)
  kBytes = 6,    // opaque byte payload
  kString = 7,   // text payload (paths, names, serialized proofs)
};

class ArgVec;

// A read-only view of one typed argument slot (valid while the owning
// ArgVec lives and is not mutated).
class ArgSlot {
 public:
  ArgTag tag() const;
  bool is_scalar() const { return tag() != ArgTag::kBytes && tag() != ArgTag::kString; }
  uint64_t scalar() const;
  // Valid for kString (text) / kBytes (blob) slots only.
  std::string_view text() const;
  ByteView blob() const;
  size_t payload_size() const { return text().size(); }

 private:
  friend class ArgVec;
  ArgSlot(const ArgVec* vec, size_t index) : vec_(vec), index_(index) {}
  const ArgVec* vec_;
  size_t index_;
};

// The fixed small vector of argument slots: POD slot headers inline, all
// text/bytes payloads packed into ONE arena, a Payload (kernel/payload.h)
// — the same copy-on-write buffer as the record's data block. A
// scalar-only message owns no heap memory at all; copying a message with
// payloads bumps one refcount instead of duplicating the arena, and a
// reply can alias its request's arena outright (AddAliasedPayload) — the
// echo/redaction paths build zero new payload bytes. Appending to a
// SHARED arena detaches it first (Payload::Append), and payload slots are
// immutable once added (SetScalar refuses them), so an aliasing reply can
// never corrupt the request it borrowed from. Adds past capacity are
// refused (TypedRecord records the overflow and the kernel rejects such a
// message with InvalidArgument instead of silently dropping arguments at
// a security boundary).
class ArgVec {
 public:
  static constexpr size_t kMaxArgs = 8;

  ArgVec() = default;

  // Copies and moves transfer only the LIVE slots. The inline array is 192
  // bytes; messages on the hot path carry one or two slots, and the
  // monitor working copy + batched-submission staging sit directly on the
  // per-call critical path — copying dead capacity there is measurable.
  // Slots at index >= count_ are never read (class invariant: every
  // accessor bounds on count_), so they stay untouched garbage.
  ArgVec(const ArgVec& other) : count_(other.count_), arena_(other.arena_) {
    for (size_t i = 0; i < count_; ++i) {
      slots_[i] = other.slots_[i];
    }
  }
  ArgVec& operator=(const ArgVec& other) {
    count_ = other.count_;
    arena_ = other.arena_;
    for (size_t i = 0; i < count_; ++i) {
      slots_[i] = other.slots_[i];
    }
    return *this;
  }
  ArgVec(ArgVec&& other) noexcept : count_(other.count_), arena_(std::move(other.arena_)) {
    for (size_t i = 0; i < count_; ++i) {
      slots_[i] = other.slots_[i];
    }
    other.count_ = 0;
  }
  ArgVec& operator=(ArgVec&& other) noexcept {
    if (this != &other) {
      count_ = other.count_;
      arena_ = std::move(other.arena_);
      for (size_t i = 0; i < count_; ++i) {
        slots_[i] = other.slots_[i];
      }
      other.count_ = 0;
    }
    return *this;
  }

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  ArgSlot operator[](size_t i) const { return ArgSlot(this, i); }

  bool AddScalar(ArgTag tag, uint64_t value) {
    if (count_ >= kMaxArgs) {
      return false;
    }
    slots_[count_++] = Slot{tag, 0, 0, value};
    return true;
  }
  // Counted copy-in of `payload` (Payload::Append).
  bool AddPayload(ArgTag tag, std::string_view payload);

  // Zero-copy slot alias: adds slot `i` of `source` (a payload slot) by
  // adopting its arena — no bytes move, no copy is counted. Falls back to
  // a counted AddPayload copy when this vector already holds payload
  // bytes. The error-reply and echo paths use this to carry request text
  // back without rebuilding it.
  bool AddAliasedPayload(ArgTag tag, const ArgVec& source, size_t i);

  // In-place structural rewrite of one SCALAR slot — the reply-
  // interposition primitive (clamp a length, redact an ObjectId,
  // substitute a FormulaId) with zero reallocation. The tag is preserved;
  // payload slots refuse (monitors replace reply data wholesale rather
  // than splicing the shared arena).
  bool SetScalar(size_t i, uint64_t value) {
    if (i >= count_ || slots_[i].tag == ArgTag::kBytes ||
        slots_[i].tag == ArgTag::kString) {
      return false;
    }
    slots_[i].scalar = value;
    return true;
  }

  // The slots from index `from` on (the ipc_call syscall strips its port
  // and operation prefix before forwarding the inner message). The tail
  // shares this vector's arena handle and copies the slot headers, so the
  // forwarded inner message reads the outer one's bytes instead of
  // re-materializing them.
  ArgVec Tail(size_t from) const;

  friend bool operator==(const ArgVec& a, const ArgVec& b) {
    if (a.count_ != b.count_) {
      return false;
    }
    for (size_t i = 0; i < a.count_; ++i) {
      const Slot& x = a.slots_[i];
      const Slot& y = b.slots_[i];
      if (x.tag != y.tag || x.scalar != y.scalar || a.PayloadOf(x) != b.PayloadOf(y)) {
        return false;
      }
    }
    return true;
  }

 private:
  friend class ArgSlot;
  struct Slot {
    ArgTag tag;
    uint32_t offset;  // into arena_, payload tags only
    uint32_t length;
    uint64_t scalar;
  };

  // Every payload slot lies inside the arena's view (slots are only ever
  // added by appending to it or adopted together with their arena).
  std::string_view PayloadOf(const Slot& s) const {
    if (s.length == 0) {
      return std::string_view();
    }
    return std::string_view(reinterpret_cast<const char*>(arena_.data()) + s.offset, s.length);
  }

  // Deliberately NOT value-initialized: only [0, count_) is ever live
  // (see the copy/move rationale above), and zeroing 192 bytes per
  // IpcMessage/IpcReply construction is pure hot-path waste.
  Slot slots_[kMaxArgs];
  uint8_t count_ = 0;
  // Ref-counted: copied ArgVecs (interposition working copies, aliasing
  // replies) share it. Empty until the first payload byte.
  Payload arena_;
};

inline ArgTag ArgSlot::tag() const { return vec_->slots_[index_].tag; }
inline uint64_t ArgSlot::scalar() const { return vec_->slots_[index_].scalar; }
inline std::string_view ArgSlot::text() const {
  return vec_->PayloadOf(vec_->slots_[index_]);
}
inline ByteView ArgSlot::blob() const {
  std::string_view payload = text();
  return ByteView(reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
}

// Wire-format bounds, enforced strictly by the decoders (and by the
// encoders, so a hostile payload cannot even be emitted). A buffer that is
// truncated, carries trailing bytes, declares more slots than
// ArgVec::kMaxArgs, uses an unknown tag, or exceeds these payload caps is
// rejected with InvalidArgument — never partially decoded.
inline constexpr size_t kMaxArgPayload = 64 * 1024;        // per string/bytes slot
inline constexpr size_t kMaxIpcData = 16 * 1024 * 1024;    // trailing data block

// Typed slot reads, the one definition behind every record's Arg*
// accessors. Status-returning, never throwing. Scalar reads accept EXACTLY
// the matching tag plus kU64 (the generic integer) — a slot tagged kObject
// does not read back as a port, and a kString slot is not an integer.
// SlotObject re-validates a kU64-sourced id against the object table
// (unknown objects fail OPEN in the bootstrap policy, so a forged id must
// not ride in through the generic-integer coercion); object names enter
// through the charged intern surface (Kernel::InternObjectCharged).
Result<uint64_t> SlotU64(const ArgVec& args, size_t i);
Result<ProcessId> SlotProcess(const ArgVec& args, size_t i);
Result<PortId> SlotPort(const ArgVec& args, size_t i);
Result<ObjectId> SlotObject(const ArgVec& args, size_t i);
Result<uint64_t> SlotFormula(const ArgVec& args, size_t i);
Result<std::string_view> SlotString(const ArgVec& args, size_t i);
Result<ByteView> SlotBytes(const ArgVec& args, size_t i);

// What both IPC directions carry: the typed slots, the data block, their
// builders and accessors. A call (IpcMessage) adds only its operation and
// a reply (IpcReply) only its status, and both cross the wire with one
// body codec, so a reply whose results are integers or interned ids owns
// no heap memory and a reply-rewriting monitor pattern-matches slots
// exactly as a call monitor does. `Record` is the derived type, so the
// builders chain to it: IpcMessage m = IpcMessage::Of(op).AddU64(1).
template <typename Record>
class TypedRecord {
 public:
  ArgVec args;
  // Ref-counted (kernel/payload.h), like the slot arena: copying a record —
  // the monitor working copy, a batched submission — bumps a refcount, a
  // read reply is a SLICE of the fileserver's backing store, and an echoing
  // monitor aliases the request's data outright. Bytes move only through
  // the Payload class's counted copy-on-write surface.
  Payload data;

  // ---- Builders (chainable). Capacity overflow is recorded, not dropped.
  Record& AddU64(uint64_t v) { return AddScalar(ArgTag::kU64, v); }
  Record& AddProcess(ProcessId v) { return AddScalar(ArgTag::kProcess, v); }
  Record& AddPort(PortId v) { return AddScalar(ArgTag::kPort, v); }
  Record& AddObject(ObjectId v) { return AddScalar(ArgTag::kObject, v); }
  Record& AddFormula(uint64_t v) { return AddScalar(ArgTag::kFormula, v); }
  Record& AddString(std::string_view v) { return AddPayload(ArgTag::kString, v); }
  Record& AddBytes(ByteView v) {
    return AddPayload(ArgTag::kBytes,
                      std::string_view(reinterpret_cast<const char*>(v.data()), v.size()));
  }
  Record& AddScalar(ArgTag tag, uint64_t v) {
    if (!args.AddScalar(tag, v)) {
      args_overflowed_ = true;
    }
    return static_cast<Record&>(*this);
  }
  Record& AddPayload(ArgTag tag, std::string_view v) {
    if (!args.AddPayload(tag, v)) {
      args_overflowed_ = true;
    }
    return static_cast<Record&>(*this);
  }

  // ---- Typed accessors, by slot index (see SlotU64 and its siblings).
  Result<uint64_t> ArgU64(size_t i) const { return SlotU64(args, i); }
  Result<ProcessId> ArgProcess(size_t i) const { return SlotProcess(args, i); }
  Result<PortId> ArgPort(size_t i) const { return SlotPort(args, i); }
  Result<ObjectId> ArgObject(size_t i) const { return SlotObject(args, i); }
  Result<uint64_t> ArgFormula(size_t i) const { return SlotFormula(args, i); }
  Result<std::string_view> ArgString(size_t i) const { return SlotString(args, i); }
  Result<ByteView> ArgBytes(size_t i) const { return SlotBytes(args, i); }

  bool ArgIsString(size_t i) const {
    return i < args.size() && args[i].tag() == ArgTag::kString;
  }
  // True when any slot carries a text/bytes payload — the arg-type audit
  // hook for the zero-string hot-path assertion.
  bool HasTextPayloads() const {
    for (size_t i = 0; i < args.size(); ++i) {
      if (!args[i].is_scalar()) {
        return true;
      }
    }
    return false;
  }

  bool args_overflowed() const { return args_overflowed_; }

 protected:
  bool SameBody(const TypedRecord& other) const {
    return args == other.args && data == other.data &&
           args_overflowed_ == other.args_overflowed_;
  }

 private:
  bool args_overflowed_ = false;
};

// A call: the operation plus its arguments.
struct IpcMessage : TypedRecord<IpcMessage> {
  // The interned operation (kernel/types.h OpTable). 0 is the empty name:
  // syscall messages that carry no operation of their own are well-formed.
  OpId op = 0;

  IpcMessage() = default;
  explicit IpcMessage(OpId operation) : op(operation) {}

  // Trusted-producer constructors: interning here is NOT charged to any
  // quota (servers, monitors, and tests name their own vocabulary).
  static IpcMessage Of(OpId operation) { return IpcMessage(operation); }
  static IpcMessage Of(std::string_view operation) { return IpcMessage(InternOp(operation)); }

  std::string_view operation() const { return OpName(op); }

  friend bool operator==(const IpcMessage& a, const IpcMessage& b) {
    return a.op == b.op && a.SameBody(b);
  }
};

// Reply wire bound: the status context message is short human text, not a
// data channel — anything longer is rejected whole.
inline constexpr size_t kMaxReplyStatusMessage = 1024;

// A reply: the verdict plus its results.
struct IpcReply : TypedRecord<IpcReply> {
  Status status;

  IpcReply() = default;
  explicit IpcReply(Status s) : status(std::move(s)) {}

  static IpcReply Ok() { return IpcReply(OkStatus()); }

  friend bool operator==(const IpcReply& a, const IpcReply& b) {
    return a.status == b.status && a.SameBody(b);
  }
};

// Context passed to port handlers and interceptors.
struct IpcContext {
  ProcessId caller = kKernelProcessId;
  PortId port = 0;
};

// A service listening on a port. Handlers run synchronously in the
// simulation (the paper's user-level servers: drivers, filesystem, guards,
// authorities).
class PortHandler {
 public:
  virtual ~PortHandler() = default;
  virtual IpcReply Handle(const IpcContext& context, const IpcMessage& message) = 0;

  // Batched submission (Kernel::CallMany): N messages for this port in one
  // crossing. The default is the serial loop; servers that can amortize
  // work across the batch (the fileserver and the workload object server
  // collect every message's AuthzRequest into ONE Kernel::AuthorizeBatch)
  // override it. `messages` and `replies` are the same length.
  virtual void HandleMany(const IpcContext& context, std::span<const IpcMessage> messages,
                          std::span<IpcReply> replies) {
    for (size_t i = 0; i < messages.size(); ++i) {
      replies[i] = Handle(context, messages[i]);
    }
  }
};

// Marshals a message into the flat v2 buffer the kernel produces for every
// interposed call (§5.1): a header (version, interned op), then the body
// both directions share (argc, one tag byte + payload per slot,
// length-prefixed data). Fails on slot overflow or payloads past the wire
// bounds. UnmarshalMessage is strict: truncated, oversized, trailing-byte,
// bad-tag, bad-op-kind, overlong-count, forged-object-id and unknown-op-id
// buffers are all rejected whole.
Result<Bytes> MarshalMessage(const IpcMessage& message);
Result<IpcMessage> UnmarshalMessage(ByteView buffer);

// The wire bounds as a pure check (slot overflow, per-payload and data
// caps, forged ids) — applied by the kernel's NON-marshaling paths
// too, so whether a message is accepted never depends on interposition
// being enabled. O(slot count); no buffer is built.
Status ValidateWireBounds(const IpcMessage& message);

// Reply codec — the message body after a reply header (version byte,
// status code + bounded context message), with the same reject-whole
// discipline. One check is reply-only: a reply is a RESULT, so a kFormula
// slot the receiving instance cannot resolve against the NAL interner is
// a forgery, not a request to resolve later.
Result<Bytes> MarshalReply(const IpcReply& reply);
Result<IpcReply> UnmarshalReply(ByteView buffer);

// Reply bounds as a pure check — applied by the kernel to EVERY reply a
// port handler returns (bare and interposed paths alike), so whether a
// server's reply is accepted never depends on a monitor being present.
Status ValidateReplyWireBounds(const IpcReply& reply);

// Inline fast-accepts for the dominant shapes on the dispatch hot path.
// The conditions are a strict subset of what the full validators accept
// (typed op, zero slots, bounded data/status), so semantics are identical;
// everything else falls through to the out-of-line check. An empty ArgVec
// cannot carry the overflow flag (overflow is only set by adding past a
// full vector), so args.empty() subsumes the overflow test.
inline Status CheckWireBounds(const IpcMessage& message) {
  if (message.args.empty() && message.data.size() <= kMaxIpcData &&
      IsKnownOpId(message.op)) {
    return OkStatus();
  }
  return ValidateWireBounds(message);
}
inline Status CheckReplyWireBounds(const IpcReply& reply) {
  if (reply.args.empty() && reply.data.size() <= kMaxIpcData &&
      reply.status.message().size() <= kMaxReplyStatusMessage) {
    return OkStatus();
  }
  return ValidateReplyWireBounds(reply);
}

// The hoisted interned id of a syscall's operation name (interned once,
// not per call — the syscall channel's marshal path is string-free).
OpId SyscallOp(Syscall call);

}  // namespace nexus::kernel

#endif  // NEXUS_KERNEL_IPC_H_

#include <gtest/gtest.h>

#include <set>

#include "kernel/decision_cache.h"
#include "nal/interner.h"
#include "nal/parser.h"
#include "kernel/fileserver.h"
#include "kernel/hash_attestation.h"
#include "kernel/kernel.h"
#include "kernel/sched.h"
#include "util/rng.h"

namespace nexus::kernel {
namespace {

// Records calls; used as both a port handler and an interceptor target.
class EchoHandler : public PortHandler {
 public:
  IpcReply Handle(const IpcContext& context, const IpcMessage& message) override {
    ++calls;
    last_caller = context.caller;
    last_operation = std::string(message.operation());
    // Echo: slot 0 = argc (when there are args), then the op name; data =
    // the request data.
    IpcReply reply = IpcReply::Ok();
    if (!message.args.empty()) {
      reply.AddU64(message.args.size());
    }
    if (!last_operation.empty()) {
      reply.AddString(last_operation);
    }
    reply.data = message.data;
    return reply;
  }
  int calls = 0;
  ProcessId last_caller = 0;
  std::string last_operation;
};

class DenyAllEngine : public AuthorizationEngine {
 public:
  AuthzDecision Authorize(const AuthzRequest&) override {
    ++upcalls;
    return AuthzDecision::Deny(PermissionDenied("deny-all"), cacheable);
  }
  int upcalls = 0;
  bool cacheable = true;
};

class AllowAllEngine : public AuthorizationEngine {
 public:
  AuthzDecision Authorize(const AuthzRequest&) override {
    ++upcalls;
    return AuthzDecision::Allow(cacheable);
  }
  int upcalls = 0;
  bool cacheable = true;
};

// ---------------------------------------------------------------- Process

TEST(KernelProcessTest, CreateAndQuery) {
  Kernel k;
  Result<ProcessId> pid = k.CreateProcess("webserver", ToBytes("lighttpd-binary"));
  ASSERT_TRUE(pid.ok());
  EXPECT_TRUE(k.IsAlive(*pid));
  EXPECT_EQ(*k.GetParent(*pid), kKernelProcessId);
  EXPECT_EQ((*k.GetProcess(*pid))->name, "webserver");
}

TEST(KernelProcessTest, PrincipalNaming) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  EXPECT_EQ(k.ProcessPrincipal(pid).ToString(), "Nexus.ipd." + std::to_string(pid));
  EXPECT_TRUE(k.KernelPrincipal().IsPrefixOf(k.ProcessPrincipal(pid)));
  EXPECT_EQ(Kernel::ProcPath(pid), "/proc/ipd/" + std::to_string(pid));
}

TEST(KernelProcessTest, ChildInheritsQuotaRoot) {
  Kernel k;
  ProcessId root = *k.CreateProcess("root", ToBytes("r"));
  ProcessId child = *k.CreateProcess("child", ToBytes("c"), root);
  ProcessId grandchild = *k.CreateProcess("gc", ToBytes("g"), child);
  EXPECT_EQ((*k.GetProcess(child))->quota_root, root);
  EXPECT_EQ((*k.GetProcess(grandchild))->quota_root, root);
}

TEST(KernelProcessTest, CreateUnderDeadParentFails) {
  Kernel k;
  ProcessId p = *k.CreateProcess("p", ToBytes("b"));
  k.KillProcess(p);
  EXPECT_FALSE(k.CreateProcess("c", ToBytes("c"), p).ok());
}

TEST(KernelProcessTest, KillRemovesProcfsNodesAndPorts) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  PortId port = *k.CreatePort(pid);
  EXPECT_TRUE(k.procfs().Read(Kernel::ProcPath(pid) + "/name").ok());
  ASSERT_TRUE(k.KillProcess(pid).ok());
  EXPECT_FALSE(k.IsAlive(pid));
  EXPECT_FALSE(k.procfs().Read(Kernel::ProcPath(pid) + "/name").ok());
  EXPECT_FALSE(k.PortOwner(port).ok());
}

TEST(KernelProcessTest, LaunchHashPublished) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("binary-image"));
  Result<std::string> hash = k.procfs().Read(Kernel::ProcPath(pid) + "/hash");
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(hash->size(), 64u);  // SHA-256 hex.
}

TEST(KernelProcessTest, SyscallRestrictionIsMonotone) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  ASSERT_TRUE(k.RestrictSyscalls(pid, {Syscall::kNull, Syscall::kGetPpid}).ok());
  // Narrowing further is fine.
  ASSERT_TRUE(k.RestrictSyscalls(pid, {Syscall::kNull}).ok());
  // Re-acquiring a relinquished call is not.
  EXPECT_FALSE(k.RestrictSyscalls(pid, {Syscall::kNull, Syscall::kYield}).ok());
}

TEST(KernelProcessTest, RelinquishedSyscallDenied) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  k.RestrictSyscalls(pid, {Syscall::kNull});
  EXPECT_TRUE(k.Call(pid, SyscallIpcPort(Syscall::kNull), {}).status.ok());
  EXPECT_EQ(k.Call(pid, SyscallIpcPort(Syscall::kGetPpid), {}).status.code(),
            ErrorCode::kPermissionDenied);
}

// ------------------------------------------------------------------- IPC

TEST(KernelIpcTest, CallDispatchesToHandler) {
  Kernel k;
  ProcessId server = *k.CreateProcess("server", ToBytes("s"));
  ProcessId client = *k.CreateProcess("client", ToBytes("c"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);

  IpcMessage msg = IpcMessage::Of("ping");
  msg.AddString("a").AddString("b");
  IpcReply reply = k.Call(client, port, msg);
  EXPECT_TRUE(reply.status.ok());
  EXPECT_EQ(*reply.ArgString(1), "ping");
  EXPECT_EQ(*reply.ArgU64(0), 2u);
  EXPECT_EQ(handler.last_caller, client);
}

TEST(KernelIpcTest, CallOnUnboundPortFails) {
  Kernel k;
  ProcessId server = *k.CreateProcess("server", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  EXPECT_EQ(k.Call(server, port, {}).status.code(), ErrorCode::kUnavailable);
}

TEST(KernelIpcTest, CallOnMissingPortFails) {
  Kernel k;
  EXPECT_EQ(k.Call(kKernelProcessId, 999, {}).status.code(), ErrorCode::kNotFound);
}

TEST(KernelIpcTest, ChannelsTrackConnectivity) {
  Kernel k;
  ProcessId a = *k.CreateProcess("a", ToBytes("a"));
  ProcessId b = *k.CreateProcess("b", ToBytes("b"));
  PortId port = *k.CreatePort(b);
  EXPECT_FALSE(k.HasChannel(a, port));
  ASSERT_TRUE(k.ConnectPort(a, port).ok());
  EXPECT_TRUE(k.HasChannel(a, port));
  ASSERT_TRUE(k.DisconnectPort(a, port).ok());
  EXPECT_FALSE(k.HasChannel(a, port));
}

TEST(KernelIpcTest, MarshalingRoundTrip) {
  IpcMessage msg = IpcMessage::Of("write");
  msg.AddU64(4).AddString("").AddString("arg with spaces");
  msg.data = {0x00, 0xff, 0x10};
  Result<Bytes> wire = MarshalMessage(msg);
  ASSERT_TRUE(wire.ok());
  Result<IpcMessage> round = UnmarshalMessage(*wire);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->operation(), msg.operation());
  EXPECT_EQ(*round, msg);
}

TEST(KernelIpcTest, UnmarshalRejectsTruncation) {
  IpcMessage msg = IpcMessage::Of("op");
  Bytes wire = *MarshalMessage(msg);
  wire.pop_back();
  EXPECT_FALSE(UnmarshalMessage(wire).ok());
}

// ------------------------------------------------------- Typed ABI v2

TEST(IpcAbiV2Test, WireRoundTripAllSlotTypes) {
  ObjectId obj = InternObject("file:/roundtrip");
  IpcMessage msg = IpcMessage::Of("roundtrip-op");
  msg.AddU64(~uint64_t{0})
      .AddProcess(12)
      .AddPort(999)
      .AddObject(obj)
      .AddFormula(77)
      .AddString("path with spaces")
      .AddBytes(Bytes{0x00, 0xff});
  msg.data = {0x01, 0x02, 0x03};
  Result<Bytes> wire = MarshalMessage(msg);
  ASSERT_TRUE(wire.ok());
  Result<IpcMessage> round = UnmarshalMessage(*wire);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(*round, msg);
  // Tags survive verbatim — a Process slot does not come back as a U64.
  EXPECT_EQ(round->args[0].tag(), ArgTag::kU64);
  EXPECT_EQ(round->args[1].tag(), ArgTag::kProcess);
  EXPECT_EQ(round->args[2].tag(), ArgTag::kPort);
  EXPECT_EQ(round->args[3].tag(), ArgTag::kObject);
  EXPECT_EQ(round->args[4].tag(), ArgTag::kFormula);
  EXPECT_EQ(round->args[5].tag(), ArgTag::kString);
  EXPECT_EQ(round->args[6].tag(), ArgTag::kBytes);
  EXPECT_EQ(*round->ArgString(5), "path with spaces");
}

TEST(IpcAbiV2Test, EveryTruncatedPrefixIsRejected) {
  IpcMessage msg = IpcMessage::Of("truncate-op");
  msg.AddU64(4).AddString("s").AddBytes(Bytes{1, 2});
  msg.data = {9, 9, 9};
  Bytes wire = *MarshalMessage(msg);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(UnmarshalMessage(ByteView(wire.data(), len)).ok()) << len;
  }
}

TEST(IpcAbiV2Test, TrailingBytesRejected) {
  Bytes wire = *MarshalMessage(IpcMessage::Of("trailing-op"));
  wire.push_back(0x00);
  EXPECT_FALSE(UnmarshalMessage(wire).ok());
}

TEST(IpcAbiV2Test, MalformedBuffersRejected) {
  // Hand-built wire images around a minimal valid skeleton:
  //   u8 version | u8 op-kind | u32 op-id | u8 argc | slots | u32 data-len
  auto skeleton = [](uint8_t argc) {
    Bytes wire;
    wire.push_back(2);  // version
    wire.push_back(0);  // interned op
    AppendU32(wire, 0);
    wire.push_back(argc);
    return wire;
  };
  {  // Unsupported version.
    Bytes wire = skeleton(0);
    AppendU32(wire, 0);
    wire[0] = 1;
    EXPECT_FALSE(UnmarshalMessage(wire).ok());
  }
  for (uint8_t kind : {1, 9}) {  // Bad op kind; 1 was the v1 op-text kind.
    Bytes wire = skeleton(0);
    AppendU32(wire, 0);
    wire[1] = kind;
    EXPECT_FALSE(UnmarshalMessage(wire).ok()) << int{kind};
  }
  {  // Unknown interned op id.
    Bytes wire;
    wire.push_back(2);
    wire.push_back(0);
    AppendU32(wire, 0x7fffffff);
    wire.push_back(0);
    AppendU32(wire, 0);
    Result<IpcMessage> r = UnmarshalMessage(wire);
    EXPECT_FALSE(r.ok());
  }
  {  // Slot-count overflow: more slots declared than ArgVec can hold.
    Bytes wire = skeleton(static_cast<uint8_t>(ArgVec::kMaxArgs + 1));
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalMessage(wire).ok());
  }
  {  // Bad slot tag.
    Bytes wire = skeleton(1);
    wire.push_back(0x63);  // not a tag
    AppendU64(wire, 5);
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalMessage(wire).ok());
  }
  {  // Forged object id: names nothing, must not reach dispatch.
    Bytes wire = skeleton(1);
    wire.push_back(static_cast<uint8_t>(ArgTag::kObject));
    AppendU64(wire, 0x7f7f7f7f);
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalMessage(wire).ok());
  }
  {  // Oversized string slot: past the per-slot payload bound.
    Bytes wire = skeleton(1);
    wire.push_back(static_cast<uint8_t>(ArgTag::kString));
    Bytes huge(kMaxArgPayload + 1, 'x');
    AppendLengthPrefixed(wire, huge);
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalMessage(wire).ok());
  }
  {  // Oversized data block.
    Bytes wire = skeleton(0);
    Bytes huge(kMaxIpcData + 1, 'x');
    AppendLengthPrefixed(wire, huge);
    EXPECT_FALSE(UnmarshalMessage(wire).ok());
  }
}

TEST(IpcAbiV2Test, ScalarAccessorsRejectMismatchedTags) {
  IpcMessage msg;
  msg.AddObject(InternObject("file:/tagged")).AddFormula(9).AddPort(4);
  // A slot tagged kObject is not a port, process, or formula.
  EXPECT_FALSE(msg.ArgPort(0).ok());
  EXPECT_FALSE(msg.ArgProcess(0).ok());
  EXPECT_FALSE(msg.ArgFormula(0).ok());
  EXPECT_TRUE(msg.ArgObject(0).ok());
  // Nor is a formula a port, or a port an object.
  EXPECT_FALSE(msg.ArgPort(1).ok());
  EXPECT_FALSE(msg.ArgObject(2).ok());
  EXPECT_TRUE(msg.ArgPort(2).ok());
  // A string slot is not an integer, whatever text it holds.
  msg.AddString("5");
  EXPECT_FALSE(msg.ArgU64(3).ok());
  EXPECT_FALSE(msg.ArgPort(3).ok());
  EXPECT_FALSE(msg.ArgProcess(3).ok());
}

TEST(IpcAbiV2Test, ForgedObjectIdInU64SlotIsRejected) {
  // The generic-integer coercion must not bypass the wire's forged-object
  // check: an unknown id would reach the fail-open bootstrap policy.
  IpcMessage msg;
  msg.AddU64(0x6eadbeef);
  EXPECT_FALSE(msg.ArgObject(0).ok());
  IpcMessage known;
  known.AddU64(InternObject("file:/known-coerce"));
  EXPECT_TRUE(known.ArgObject(0).ok());
}

TEST(IpcAbiV2Test, WireBoundsHoldWithInterpositionDisabled) {
  // A message the marshaled path rejects must not slip through just
  // because interposition is off — verdicts may not depend on whether a
  // monitor is present.
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  IpcMessage big = IpcMessage::Of("bounded-op");
  big.AddString(std::string(kMaxArgPayload + 1, 'p'));
  k.set_interposition_enabled(false);
  IpcReply bare = k.Call(server, port, big);
  k.set_interposition_enabled(true);
  IpcReply interposed = k.Call(server, port, big);
  EXPECT_EQ(bare.status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(interposed.status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(handler.calls, 0);
}

TEST(IpcAbiV2Test, ForgedIdsRejectedWithInterpositionDisabled) {
  // The forged-id rule is part of the bounds contract: a message carrying
  // an op or object id that names nothing is rejected on the bare path
  // exactly as the marshaled path rejects it.
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  k.set_interposition_enabled(false);

  IpcMessage forged_op;
  forged_op.op = 0x7fffffff;
  EXPECT_EQ(k.Call(server, port, forged_op).status.code(), ErrorCode::kInvalidArgument);

  IpcMessage forged_obj = IpcMessage::Of("audit-op");
  forged_obj.AddScalar(ArgTag::kObject, 0x6badbeef);
  EXPECT_EQ(k.Call(server, port, forged_obj).status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(handler.calls, 0);

  // Known ids sail through.
  IpcMessage fine = IpcMessage::Of("audit-op");
  fine.AddObject(InternObject("file:/audit-bare"));
  EXPECT_TRUE(k.Call(server, port, fine).status.ok());
}

TEST(IpcAbiV2Test, SlotOverflowIsRejectedNotTruncated) {
  // Ten args exceed the eight typed slots: the kernel must refuse the call
  // rather than silently drop arguments at a security boundary.
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  IpcMessage overflow = IpcMessage::Of("x");
  for (int i = 1; i <= 10; ++i) {
    overflow.AddString(std::to_string(i));
  }
  EXPECT_TRUE(overflow.args_overflowed());
  IpcReply reply = k.Call(server, port, overflow);
  EXPECT_EQ(reply.status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(handler.calls, 0);
}

TEST(IpcAbiV2Test, InterposedScalarCallBuildsNoTextPayloads) {
  // The acceptance assertion for the zero-string hot path: an interposed
  // Call whose arguments are integers/ids moves NO text payloads through
  // the IPC layer — marshaling, unmarshaling, interception, and dispatch
  // are all id- and integer-typed.
  class ScalarAudit : public Interceptor {
   public:
    InterposeVerdict OnCall(const IpcContext&, IpcMessage& message) override {
      saw_text |= message.HasTextPayloads();
      return InterposeVerdict::kAllow;
    }
    bool saw_text = false;
  };
  // A fully typed echo: the legacy EchoHandler's text-slot op echo would
  // itself count as a text payload, which is exactly what this test bans.
  class ScalarEcho : public PortHandler {
   public:
    IpcReply Handle(const IpcContext&, const IpcMessage& message) override {
      return IpcReply::Ok().AddU64(message.args.size());
    }
  };
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  ProcessId client = *k.CreateProcess("c", ToBytes("c"));
  PortId port = *k.CreatePort(server);
  ScalarEcho handler;
  k.BindHandler(port, &handler);
  ScalarAudit audit;
  ASSERT_TRUE(k.Interpose(server, port, &audit).ok());

  ObjectId obj = InternObject("file:/audited");
  IpcMessage msg = IpcMessage::Of("send");
  msg.AddU64(42).AddPort(port).AddObject(obj).AddProcess(client).AddFormula(7);
  ASSERT_TRUE(k.Call(client, port, msg).status.ok());  // Warm-up.

  uint64_t before = IpcPayloadCopyCount();
  for (int i = 0; i < 100; ++i) {
    IpcReply reply = k.Call(client, port, msg);
    ASSERT_TRUE(reply.status.ok());
    ASSERT_EQ(*reply.ArgU64(0), 5u);  // All five slots arrived.
  }
  EXPECT_EQ(IpcPayloadCopyCount(), before)
      << "an integer/id-arg interposed call materialized text payloads";
  EXPECT_FALSE(audit.saw_text);
}

// ----------------------------------------------------- Reply ABI v2 wire
// The reply direction mirrors the request matrix: version byte, bounded
// status message, ≤8 typed slots over the same tag vocabulary, strict
// end-of-buffer — and anything malformed is rejected WHOLE.

nal::FormulaId InternTestFormula(std::string_view text) {
  Result<nal::Formula> f = nal::ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text;
  return nal::Interner::Global().Intern(*f);
}

TEST(ReplyAbiV2Test, WireRoundTripAllSlotTypes) {
  nal::FormulaId fid = InternTestFormula("K says ok(reply)");
  ObjectId obj = InternObject("file:/reply-roundtrip");
  IpcReply reply = IpcReply::Ok();
  reply.AddU64(41).AddProcess(7).AddPort(3).AddObject(obj).AddFormula(fid);
  reply.AddString("diagnostic").AddBytes(Bytes{1, 2, 3});
  reply.data = {9, 8, 7};

  Result<Bytes> wire = MarshalReply(reply);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  Result<IpcReply> back = UnmarshalReply(*wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, reply);
  EXPECT_EQ(*back->ArgU64(0), 41u);
  EXPECT_EQ(*back->ArgProcess(1), 7u);
  EXPECT_EQ(*back->ArgPort(2), 3u);
  EXPECT_EQ(*back->ArgObject(3), obj);
  EXPECT_EQ(*back->ArgFormula(4), fid);
  EXPECT_EQ(*back->ArgString(5), "diagnostic");
  EXPECT_EQ(back->data, (Bytes{9, 8, 7}));
}

TEST(ReplyAbiV2Test, ErrorStatusRoundTrips) {
  IpcReply denied(Status(ErrorCode::kPermissionDenied, "proof expired"));
  Result<Bytes> wire = MarshalReply(denied);
  ASSERT_TRUE(wire.ok());
  Result<IpcReply> back = UnmarshalReply(*wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->status.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(back->status.message(), "proof expired");
}

TEST(ReplyAbiV2Test, EveryTruncatedPrefixIsRejected) {
  IpcReply reply = IpcReply::Ok();
  reply.AddU64(4).AddString("s").AddBytes(Bytes{1, 2});
  reply.data = {9, 9, 9};
  Bytes wire = *MarshalReply(reply);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(UnmarshalReply(ByteView(wire.data(), len)).ok()) << len;
  }
}

TEST(ReplyAbiV2Test, TrailingBytesRejected) {
  Bytes wire = *MarshalReply(IpcReply::Ok());
  wire.push_back(0x00);
  EXPECT_FALSE(UnmarshalReply(wire).ok());
}

TEST(ReplyAbiV2Test, MalformedBuffersRejected) {
  // Hand-built reply wire images around a minimal valid skeleton:
  //   u8 version | u8 status code | u32-len message | u8 argc | slots |
  //   u32-len data
  auto skeleton = [](uint8_t argc) {
    Bytes wire;
    wire.push_back(2);  // version
    wire.push_back(0);  // kOk
    AppendU32(wire, 0);  // empty status message
    wire.push_back(argc);
    return wire;
  };
  {  // Unsupported version.
    Bytes wire = skeleton(0);
    AppendU32(wire, 0);
    wire[0] = 1;
    EXPECT_FALSE(UnmarshalReply(wire).ok());
  }
  {  // Status code past the enum: not a verdict any kernel produced.
    Bytes wire = skeleton(0);
    AppendU32(wire, 0);
    wire[1] = 0x7f;
    EXPECT_FALSE(UnmarshalReply(wire).ok());
  }
  {  // Oversized status message.
    Bytes wire;
    wire.push_back(2);
    wire.push_back(0);
    AppendLengthPrefixed(wire, Bytes(kMaxReplyStatusMessage + 1, 'm'));
    wire.push_back(0);
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalReply(wire).ok());
  }
  {  // Slot-count overflow.
    Bytes wire = skeleton(static_cast<uint8_t>(ArgVec::kMaxArgs + 1));
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalReply(wire).ok());
  }
  {  // Bad slot tag.
    Bytes wire = skeleton(1);
    wire.push_back(0x63);  // not a tag
    AppendU64(wire, 5);
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalReply(wire).ok());
  }
  {  // Forged object id.
    Bytes wire = skeleton(1);
    wire.push_back(static_cast<uint8_t>(ArgTag::kObject));
    AppendU64(wire, 0x7e7e7e7e);
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalReply(wire).ok());
  }
  {  // Forged formula id: a result naming a formula nobody interned can
     // only mislead its consumer — rejected whole, while the same wire
     // image with a REAL id is accepted.
    nal::FormulaId real = InternTestFormula("K says forged(check)");
    for (uint64_t id : {uint64_t{0x6c6c6c6c}, uint64_t{real}}) {
      Bytes wire = skeleton(1);
      wire.push_back(static_cast<uint8_t>(ArgTag::kFormula));
      AppendU64(wire, id);
      AppendU32(wire, 0);
      EXPECT_EQ(UnmarshalReply(wire).ok(), id == real) << id;
    }
  }
  {  // Oversized string slot.
    Bytes wire = skeleton(1);
    wire.push_back(static_cast<uint8_t>(ArgTag::kString));
    AppendLengthPrefixed(wire, Bytes(kMaxArgPayload + 1, 'x'));
    AppendU32(wire, 0);
    EXPECT_FALSE(UnmarshalReply(wire).ok());
  }
  {  // Oversized data block.
    Bytes wire = skeleton(0);
    AppendLengthPrefixed(wire, Bytes(kMaxIpcData + 1, 'x'));
    EXPECT_FALSE(UnmarshalReply(wire).ok());
  }
}

TEST(ReplyAbiV2Test, MarshalRejectsOutOfBoundsReplies) {
  {  // Slot overflow is sticky: the 9th builder call poisons the reply.
    IpcReply reply = IpcReply::Ok();
    for (int i = 0; i < 9; ++i) {
      reply.AddU64(i);
    }
    EXPECT_TRUE(reply.args_overflowed());
    EXPECT_FALSE(MarshalReply(reply).ok());
  }
  {  // Status message past the wire bound never marshals.
    IpcReply reply(InvalidArgument(std::string(kMaxReplyStatusMessage + 1, 'e')));
    EXPECT_FALSE(MarshalReply(reply).ok());
  }
}

TEST(ReplyAbiV2Test, MonitorPresenceDoesNotChangeVerdicts) {
  // Equivalence: for scalar and text-slot messages, good and doomed, the
  // caller-visible verdict is identical with the interceptor chain empty
  // and with a pass-through monitor installed — the structural
  // interposition path enforces exactly the wire bounds the bare path
  // does, nothing more.
  class PassThrough : public Interceptor {
   public:
    InterposeVerdict OnCall(const IpcContext&, IpcMessage&) override {
      return InterposeVerdict::kAllow;
    }
  };
  IpcMessage typed = IpcMessage::Of("equiv-op");
  typed.AddU64(5).AddObject(InternObject("file:/equiv"));
  IpcMessage text = IpcMessage::Of("equiv-text-op");
  text.AddString("arg");
  IpcMessage oversized = IpcMessage::Of("equiv-op");
  oversized.data = Bytes(kMaxIpcData + 1, 'x');
  IpcMessage forged;
  forged.op = 0x7fffffff;
  const IpcMessage* probes[] = {&typed, &text, &oversized, &forged};

  std::vector<ErrorCode> verdicts[2];
  for (int monitored = 0; monitored < 2; ++monitored) {
    Kernel k;
    ProcessId server = *k.CreateProcess("s", ToBytes("s"));
    ProcessId client = *k.CreateProcess("c", ToBytes("c"));
    PortId port = *k.CreatePort(server);
    EchoHandler handler;
    k.BindHandler(port, &handler);
    PassThrough monitor;
    if (monitored) {
      ASSERT_TRUE(k.Interpose(server, port, &monitor).ok());
    }
    for (const IpcMessage* probe : probes) {
      verdicts[monitored].push_back(k.Call(client, port, *probe).status.code());
    }
  }
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(verdicts[0][0], ErrorCode::kOk);
  EXPECT_EQ(verdicts[0][1], ErrorCode::kOk);
  EXPECT_EQ(verdicts[0][2], ErrorCode::kInvalidArgument);
  EXPECT_EQ(verdicts[0][3], ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------ Wire format pins
// Byte-exact images of one record of each shape, and a seeded mutation
// property over them: whatever the decoders accept re-encodes to the same
// bytes and passes the pure bounds check.

// Big-endian image of an interned id (ids depend on intern order, so they
// are spliced into the golden buffers at run time).
Bytes BigEndian(uint64_t value, size_t width) {
  Bytes out;
  for (size_t i = width; i-- > 0;) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
  return out;
}

Bytes Cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& part : parts) {
    Append(out, part);
  }
  return out;
}

struct GoldenRecords {
  IpcMessage full;   // every slot tag plus a data block
  IpcMessage empty;  // op 0, no slots, no data
  IpcReply ok;       // slots plus data
  IpcReply error;    // status only
  Bytes full_wire, empty_wire, ok_wire, error_wire;
};

GoldenRecords MakeGoldenRecords() {
  GoldenRecords g;
  OpId op = InternOp("golden-op");
  ObjectId obj = InternObject("file:/golden");
  nal::FormulaId fid = InternTestFormula("K says golden(wire)");
  g.full = IpcMessage::Of(op);
  g.full.AddU64(0x0102030405060708)
      .AddProcess(12)
      .AddPort(999)
      .AddObject(obj)
      .AddFormula(fid)
      .AddString("path")
      .AddBytes(Bytes{0x00, 0xff});
  g.full.data = {1, 2, 3};
  g.full_wire = Cat({{0x02, 0x00},  // version, interned op
                     BigEndian(op, 4),
                     {0x07},  // argc
                     {0x01, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08},
                     {0x02, 0, 0, 0, 0, 0, 0, 0, 12},
                     {0x03, 0, 0, 0, 0, 0, 0, 0x03, 0xe7},
                     {0x04}, BigEndian(obj, 8),
                     {0x05}, BigEndian(fid, 8),
                     {0x07, 0, 0, 0, 4, 'p', 'a', 't', 'h'},
                     {0x06, 0, 0, 0, 2, 0x00, 0xff},
                     {0, 0, 0, 3, 1, 2, 3}});
  g.empty_wire = {0x02, 0x00, 0, 0, 0, 0, 0x00, 0, 0, 0, 0};

  g.ok = IpcReply::Ok();
  g.ok.AddU64(41).AddObject(obj).AddFormula(fid).AddString("ok");
  g.ok.data = {9, 8};
  g.ok_wire = Cat({{0x02, 0x00, 0, 0, 0, 0},  // version, kOk, empty message
                   {0x04},                    // argc
                   {0x01, 0, 0, 0, 0, 0, 0, 0, 41},
                   {0x04}, BigEndian(obj, 8),
                   {0x05}, BigEndian(fid, 8),
                   {0x07, 0, 0, 0, 2, 'o', 'k'},
                   {0, 0, 0, 2, 9, 8}});
  g.error = IpcReply(Status(ErrorCode::kPermissionDenied, "denied"));
  g.error_wire = {0x02, 0x04, 0, 0, 0, 6, 'd', 'e', 'n', 'i', 'e', 'd', 0x00, 0, 0, 0, 0};
  return g;
}

TEST(IpcWireFormatTest, GoldenBytes) {
  GoldenRecords g = MakeGoldenRecords();
  EXPECT_EQ(*MarshalMessage(g.full), g.full_wire);
  EXPECT_EQ(*MarshalMessage(g.empty), g.empty_wire);
  EXPECT_EQ(*MarshalReply(g.ok), g.ok_wire);
  EXPECT_EQ(*MarshalReply(g.error), g.error_wire);
  EXPECT_EQ(*UnmarshalMessage(g.full_wire), g.full);
  EXPECT_EQ(*UnmarshalMessage(g.empty_wire), g.empty);
  EXPECT_EQ(*UnmarshalReply(g.ok_wire), g.ok);
  EXPECT_EQ(*UnmarshalReply(g.error_wire), g.error);
}

// One seeded edit of a wire image: a bit flip, a truncation, a u32 length
// field or slot-count byte rewritten, a tag swapped, or bytes appended.
Bytes Mutate(Bytes wire, Rng& rng) {
  size_t at = rng.NextBelow(wire.size());
  switch (rng.NextBelow(6)) {
    case 0:
      wire[at] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
      break;
    case 1:
      wire.resize(at);
      break;
    case 2: {  // A small length: most land inside the buffer.
      Bytes length = BigEndian(rng.NextBelow(24), 4);
      for (size_t i = 0; i < 4 && at + i < wire.size(); ++i) {
        wire[at + i] = length[i];
      }
      break;
    }
    case 3:
      wire[at] = static_cast<uint8_t>(rng.NextBelow(ArgVec::kMaxArgs + 2));
      break;
    case 4:
      wire[at] = static_cast<uint8_t>(1 + rng.NextBelow(7));  // some ArgTag
      break;
    default:
      for (uint64_t n = 1 + rng.NextBelow(4); n > 0; --n) {
        wire.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      break;
  }
  return wire;
}

TEST(IpcWireFormatTest, AcceptedMutationsReencodeIdentically) {
  GoldenRecords g = MakeGoldenRecords();
  Rng rng(20);
  size_t accepted = 0;
  for (int i = 0; i < 2500; ++i) {
    for (const Bytes* wire : {&g.full_wire, &g.empty_wire}) {
      Bytes mutated = Mutate(*wire, rng);
      Result<IpcMessage> message = UnmarshalMessage(mutated);
      if (message.ok()) {
        ++accepted;
        EXPECT_EQ(*MarshalMessage(*message), mutated) << "iteration " << i;
        EXPECT_TRUE(ValidateWireBounds(*message).ok()) << "iteration " << i;
      }
    }
    for (const Bytes* wire : {&g.ok_wire, &g.error_wire}) {
      Bytes mutated = Mutate(*wire, rng);
      Result<IpcReply> reply = UnmarshalReply(mutated);
      if (reply.ok()) {
        ++accepted;
        EXPECT_EQ(*MarshalReply(*reply), mutated) << "iteration " << i;
        EXPECT_TRUE(ValidateReplyWireBounds(*reply).ok()) << "iteration " << i;
      }
    }
  }
  // Enough survivors that the property is not vacuous (bit flips inside
  // scalars, payloads and status text decode fine).
  EXPECT_GT(accepted, 1000u);
}

// ---------------------------------------------------------------- Payload

TEST(PayloadTest, SliceAliasesWithoutCopying) {
  auto arena = std::make_shared<Bytes>(ToBytes("0123456789"));
  uint64_t before = IpcPayloadCopyCount();
  Payload slice = Payload::Slice(arena, 2, 3);
  EXPECT_EQ(IpcPayloadCopyCount(), before);
  EXPECT_EQ(ToString(slice.view()), "234");
  EXPECT_TRUE(slice.aliased());
  // Copying a Payload bumps a refcount, never bytes.
  Payload copy = slice;
  EXPECT_EQ(IpcPayloadCopyCount(), before);
  EXPECT_EQ(ToString(copy.view()), "234");
  // An empty range, or one past the end, keeps no reference to the arena.
  Payload empty = Payload::Slice(arena, 4, 0);
  Payload past_end = Payload::Slice(arena, 20, 5);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(past_end.empty());
  EXPECT_EQ(arena.use_count(), 3);  // arena, slice, copy
}

TEST(PayloadTest, RewritingAliasedReplyDoesNotCorruptRequest) {
  // The interposition hazard the zero-copy plane must survive: a reply
  // that borrows the request's bytes gets rewritten by a monitor. The
  // mutation surface detaches first; the request keeps its bytes.
  IpcMessage request;
  request.data = ToBytes("sensitive-request-bytes");
  IpcReply reply = IpcReply::Ok();
  reply.data = request.data;  // Borrow: refcount bump, zero copy.
  ASSERT_TRUE(reply.data.aliased());

  uint8_t* bytes = reply.data.MutableData();  // COW detach happens here.
  std::fill(bytes, bytes + reply.data.size(), uint8_t{'X'});
  EXPECT_EQ(ToString(request.data.view()), "sensitive-request-bytes");
  EXPECT_EQ(ToString(reply.data.view()), std::string(23, 'X'));
  EXPECT_FALSE(request.data.aliased());

  // Shrinking a borrowed reply narrows the slice without detaching.
  IpcReply clamp = IpcReply::Ok();
  clamp.data = request.data;
  uint64_t before = IpcPayloadCopyCount();
  clamp.data.resize(9);
  EXPECT_EQ(IpcPayloadCopyCount(), before);
  EXPECT_EQ(ToString(clamp.data.view()), "sensitive");
  EXPECT_EQ(ToString(request.data.view()), "sensitive-request-bytes");
}

TEST(PayloadTest, GrowthDetachesAndZeroFills) {
  auto bytes = [](const Payload& p) { return Bytes(p.begin(), p.end()); };
  Payload owned = ToBytes("abc");
  Payload shared = owned;
  uint64_t before = IpcPayloadCopyCount();
  shared.resize(6);  // One detach, and the other holder is unchanged.
  EXPECT_EQ(IpcPayloadCopyCount(), before + 1);
  EXPECT_EQ(bytes(shared), (Bytes{'a', 'b', 'c', 0, 0, 0}));
  EXPECT_EQ(bytes(owned), (Bytes{'a', 'b', 'c'}));

  // Growing a narrowed view zero-fills instead of re-exposing the bytes
  // cut off.
  Payload clamped = ToBytes("secret");
  clamped.resize(2);
  before = IpcPayloadCopyCount();
  clamped.resize(4);
  EXPECT_EQ(IpcPayloadCopyCount(), before + 1);
  EXPECT_EQ(bytes(clamped), (Bytes{'s', 'e', 0, 0}));

  // resize(0) drops the arena; growing from empty copies nothing.
  clamped.resize(0);
  EXPECT_EQ(clamped.size(), 0u);
  before = IpcPayloadCopyCount();
  clamped.resize(3);
  EXPECT_EQ(IpcPayloadCopyCount(), before);
  EXPECT_EQ(bytes(clamped), (Bytes{0, 0, 0}));
}

TEST(PayloadTest, SlotArenaAppendDetachesASharedArenaOnce) {
  // The slot arena is a Payload too: appending a slot through an arena
  // another record still reads detaches it exactly once, and the other
  // record's slots keep their text.
  IpcMessage original = IpcMessage::Of("send");
  original.AddString("alpha").AddU64(7).AddString("beta");
  auto expect_one_detach = [&original](ArgVec& args) {
    uint64_t before = IpcPayloadCopyCount();
    ASSERT_TRUE(args.AddPayload(ArgTag::kString, "gamma"));
    EXPECT_EQ(IpcPayloadCopyCount(), before + 2) << "one copy-in plus one detach";
    ASSERT_EQ(original.args.size(), 3u);
    EXPECT_EQ(*original.ArgString(0), "alpha");
    EXPECT_EQ(*original.ArgString(2), "beta");
  };

  {  // A copy of the message.
    IpcMessage copy = original;
    expect_one_detach(copy.args);
    EXPECT_EQ(*copy.ArgString(0), "alpha");
    EXPECT_EQ(*copy.ArgString(2), "beta");
    EXPECT_EQ(*copy.ArgString(3), "gamma");
  }
  {  // A reply that aliases the message's arena.
    IpcReply reply = IpcReply::Ok();
    ASSERT_TRUE(reply.args.AddAliasedPayload(ArgTag::kString, original.args, 2));
    expect_one_detach(reply.args);
    EXPECT_EQ(*reply.ArgString(0), "beta");
    EXPECT_EQ(*reply.ArgString(1), "gamma");
  }
  {  // A Tail of the message, as the ipc_call syscall forwards it.
    ArgVec tail = original.args.Tail(1);
    expect_one_detach(tail);
    EXPECT_EQ(*SlotU64(tail, 0), 7u);
    EXPECT_EQ(*SlotString(tail, 1), "beta");
    EXPECT_EQ(*SlotString(tail, 2), "gamma");
  }

  // Once nothing else holds the arena, an append extends it in place and
  // only the copy-in counts.
  uint64_t before = IpcPayloadCopyCount();
  original.AddString("delta");
  EXPECT_EQ(IpcPayloadCopyCount(), before + 1);
  EXPECT_EQ(*original.ArgString(0), "alpha");
  EXPECT_EQ(*original.ArgString(3), "delta");
}

TEST(PayloadTest, MovedFromRecordIsEmptyAndReusable) {
  // The ipc_call syscall moves the outer data block into the forwarded
  // message while the outer request stays readable (a reply monitor sees
  // it), and a moved-from record may be refilled.
  IpcMessage outer = IpcMessage::Of("send");
  outer.AddString("path");
  outer.data = ToBytes("outer-data");
  IpcMessage inner;
  inner.data = std::move(outer.data);
  inner.args = std::move(outer.args);
  EXPECT_EQ(outer.data.size(), 0u);
  EXPECT_EQ(outer.data.view().size(), 0u);
  EXPECT_TRUE(outer.args.empty());
  EXPECT_EQ(ToString(inner.data.view()), "outer-data");
  EXPECT_EQ(*inner.ArgString(0), "path");

  outer.AddString("again");
  outer.data = ToBytes("refilled");
  EXPECT_EQ(*outer.ArgString(0), "again");
  EXPECT_EQ(ToString(outer.data.view()), "refilled");
  EXPECT_EQ(*inner.ArgString(0), "path");
}

TEST(PayloadTest, LifetimeMatrix) {
  {  // Reply outlives the request it borrowed from.
    Payload reply_data;
    {
      IpcMessage request;
      request.data = ToBytes("outlived-by-reply");
      reply_data = request.data;
    }  // Request gone; the arena lives until the last reference drops.
    EXPECT_EQ(ToString(reply_data.view()), "outlived-by-reply");
  }
  {  // Request outlives a reply that borrowed (and mutated) its bytes.
    IpcMessage request;
    request.data = ToBytes("outlives-the-reply");
    {
      IpcReply reply = IpcReply::Ok();
      reply.data = request.data;
      reply.data.MutableData()[0] = 'X';
    }
    EXPECT_EQ(ToString(request.data.view()), "outlives-the-reply");
  }
  {  // A slice outlives the producer's store entry (unlink under a read).
    Payload slice;
    {
      auto arena = std::make_shared<Bytes>(ToBytes("backing-store"));
      slice = Payload::Slice(arena, 0, 7);
    }  // Store entry dropped.
    EXPECT_EQ(ToString(slice.view()), "backing");
  }
}

TEST(SyscallTest, IpcCallForwardsTypedSlots) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  ProcessId client = *k.CreateProcess("c", ToBytes("c"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);

  // The inner operation is a typed op id: no text anywhere.
  IpcMessage outer;
  outer.AddPort(port).AddU64(InternOp("ping")).AddU64(5).AddU64(6);
  IpcReply reply = k.Call(client, SyscallIpcPort(Syscall::kIpcCall), outer);
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(*reply.ArgString(1), "ping");
  EXPECT_EQ(*reply.ArgU64(0), 2u);  // Two forwarded slots.

  // Operation text is not an op id, and is never interned.
  IpcMessage outer2;
  outer2.AddPort(port).AddString("ipc-call-text-op").AddU64(5);
  EXPECT_EQ(k.Call(client, SyscallIpcPort(Syscall::kIpcCall), outer2).status.code(),
            ErrorCode::kInvalidArgument);
  EXPECT_FALSE(FindOp("ipc-call-text-op").has_value());
  EXPECT_EQ(handler.calls, 1);

  // A forged op id is rejected before dispatch.
  IpcMessage outer3;
  outer3.AddPort(port).AddU64(0x7eadbeef);
  EXPECT_EQ(k.Call(client, SyscallIpcPort(Syscall::kIpcCall), outer3).status.code(),
            ErrorCode::kInvalidArgument);
}

TEST(SyscallTest, ProcReadMemoizesProcObjects) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("reader", ToBytes("r"));
  k.procfs().PublishValue(kKernelProcessId, "/proc/memo-test-unique", "v");
  k.set_object_name_quota(1);

  size_t memo_before = k.ProcObjectMemoSize();
  IpcMessage msg;
  msg.AddString("/proc/memo-test-unique");
  IpcReply first = k.Call(pid, SyscallIpcPort(Syscall::kProcRead), msg);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(*first.ArgString(0), "v");
  EXPECT_EQ(k.ProcObjectMemoSize(), memo_before + 1);

  // The repeat read hits the memo: no growth, no re-charge (the quota of 1
  // is already spent, so a second charge would deny).
  IpcReply again = k.Call(pid, SyscallIpcPort(Syscall::kProcRead), msg);
  EXPECT_TRUE(again.status.ok());
  EXPECT_EQ(*again.ArgString(0), "v");
  EXPECT_EQ(k.ProcObjectMemoSize(), memo_before + 1);

  // A novel path still pays: the quota root is exhausted.
  IpcMessage other;
  other.AddString("/proc/memo-test-other");
  EXPECT_EQ(k.Call(pid, SyscallIpcPort(Syscall::kProcRead), other).status.code(),
            ErrorCode::kResourceExhausted);
}

// --------------------------------------------------------- Interposition

class CountingInterceptor : public Interceptor {
 public:
  InterposeVerdict OnCall(const IpcContext&, IpcMessage& message) override {
    ++calls;
    if (!rewrite_to.empty()) {
      message.op = InternOp(rewrite_to);  // Monitors rewrite typed slots.
    }
    return deny ? InterposeVerdict::kDeny : InterposeVerdict::kAllow;
  }
  InterposeVerdict OnReply(const IpcContext&, const IpcMessage&,
                           IpcReply& reply) override {
    ++returns;
    if (!annotate.empty()) {
      IpcReply annotated(reply.status);
      // The echoed op name: slot 0 of a reply to an argument-less call.
      annotated.AddString(std::string(*reply.ArgString(0)) + annotate);
      annotated.data = std::move(reply.data);
      reply = std::move(annotated);
    }
    return deny_reply ? InterposeVerdict::kDeny : InterposeVerdict::kAllow;
  }
  int calls = 0;
  int returns = 0;
  bool deny = false;
  bool deny_reply = false;
  std::string rewrite_to;
  std::string annotate;
};

TEST(InterposeTest, InterceptorSeesAndModifiesCall) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  ProcessId monitor = *k.CreateProcess("m", ToBytes("m"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);

  CountingInterceptor interceptor;
  interceptor.rewrite_to = "rewritten";
  interceptor.annotate = "+seen";
  ASSERT_TRUE(k.Interpose(monitor, port, &interceptor).ok());

  IpcReply reply = k.Call(server, port, IpcMessage::Of("original"));
  EXPECT_EQ(interceptor.calls, 1);
  EXPECT_EQ(interceptor.returns, 1);
  EXPECT_EQ(handler.last_operation, "rewritten");
  EXPECT_EQ(*reply.ArgString(0), "rewritten+seen");
}

TEST(InterposeTest, DenyBlocksCall) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  CountingInterceptor interceptor;
  interceptor.deny = true;
  k.Interpose(server, port, &interceptor);

  IpcReply reply = k.Call(server, port, IpcMessage::Of("x"));
  EXPECT_EQ(reply.status.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(handler.calls, 0);
  EXPECT_EQ(interceptor.returns, 0);  // Blocked calls skip OnReply.
}

TEST(InterposeTest, InterpositionComposes) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  CountingInterceptor first;
  CountingInterceptor second;
  k.Interpose(server, port, &first);
  k.Interpose(server, port, &second);
  k.Call(server, port, IpcMessage::Of("x"));
  EXPECT_EQ(first.calls, 1);
  EXPECT_EQ(second.calls, 1);
}

TEST(InterposeTest, RemoveInterposition) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  CountingInterceptor interceptor;
  uint64_t token = *k.Interpose(server, port, &interceptor);
  ASSERT_TRUE(k.RemoveInterposition(token).ok());
  EXPECT_FALSE(k.RemoveInterposition(token).ok());
  k.Call(server, port, IpcMessage::Of("x"));
  EXPECT_EQ(interceptor.calls, 0);
}

TEST(InterposeTest, DisabledInterpositionSkipsInterceptors) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  CountingInterceptor interceptor;
  k.Interpose(server, port, &interceptor);
  k.set_interposition_enabled(false);
  k.Call(server, port, IpcMessage::Of("x"));
  EXPECT_EQ(interceptor.calls, 0);
  EXPECT_EQ(handler.calls, 1);
}

TEST(InterposeTest, InterposeSubjectToAuthorization) {
  Kernel k;
  DenyAllEngine engine;
  k.set_engine(&engine);
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId port = *k.CreatePort(server);
  CountingInterceptor interceptor;
  EXPECT_FALSE(k.Interpose(server, port, &interceptor).ok());
}

TEST(InterposeTest, SyscallInterpositionObservesAllSyscalls) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  // Syscall channels are compile-time reserved ports, one per syscall:
  // a monitor attaches to each syscall it wants to observe.
  CountingInterceptor interceptor;
  ASSERT_TRUE(k.Interpose(kKernelProcessId, SyscallIpcPort(Syscall::kNull), &interceptor).ok());
  ASSERT_TRUE(
      k.Interpose(kKernelProcessId, SyscallIpcPort(Syscall::kGetPpid), &interceptor).ok());
  k.Call(pid, SyscallIpcPort(Syscall::kNull), {});
  k.Call(pid, SyscallIpcPort(Syscall::kGetPpid), {});
  EXPECT_EQ(interceptor.calls, 2);
}

TEST(InterposeTest, SyscallRepliesPassReplyWireBounds) {
  // A syscall reply gets the bounds check every port reply gets, with or
  // without a monitor on the syscall's port: a procfs value past the
  // per-slot payload cap cannot come back in a string slot.
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  k.procfs().PublishValue(kKernelProcessId, "/proc/oversized",
                          std::string(kMaxArgPayload + 10, 'v'));
  IpcMessage read;
  read.AddString("/proc/oversized");
  for (bool monitored : {false, true}) {
    CountingInterceptor monitor;
    uint64_t token = 0;
    if (monitored) {
      token = *k.Interpose(kKernelProcessId, SyscallIpcPort(Syscall::kProcRead), &monitor);
    }
    IpcReply reply = k.Call(pid, SyscallIpcPort(Syscall::kProcRead), read);
    EXPECT_EQ(reply.status.code(), ErrorCode::kInvalidArgument) << monitored;
    if (monitored) {
      EXPECT_EQ(monitor.returns, 1);
      ASSERT_TRUE(k.RemoveInterposition(token).ok());
    }
  }
}

// -------------------------------------------------------------- CallMany

TEST(CallManyTest, BatchDispatchesEveryMessage) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  ProcessId client = *k.CreateProcess("c", ToBytes("c"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  std::vector<IpcMessage> messages(4);
  for (size_t i = 0; i < messages.size(); ++i) {
    messages[i] = IpcMessage::Of("batched-op");
    messages[i].AddU64(i);
  }
  std::vector<IpcReply> replies(4);
  EXPECT_EQ(k.CallMany(client, port, messages, replies), 4u);
  for (const IpcReply& reply : replies) {
    EXPECT_TRUE(reply.status.ok());
    EXPECT_EQ(*reply.ArgString(1), "batched-op");
  }
  EXPECT_EQ(handler.calls, 4);
}

TEST(CallManyTest, MissingAndUnboundPortsFailPerMessage) {
  Kernel k;
  ProcessId client = *k.CreateProcess("c", ToBytes("c"));
  std::vector<IpcMessage> messages(2, IpcMessage::Of("x"));
  std::vector<IpcReply> replies(2);
  EXPECT_EQ(k.CallMany(client, 99999, messages, replies), 0u);
  EXPECT_EQ(replies[0].status.code(), ErrorCode::kNotFound);
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  PortId unbound = *k.CreatePort(server);
  EXPECT_EQ(k.CallMany(client, unbound, messages, replies), 0u);
  EXPECT_EQ(replies[1].status.code(), ErrorCode::kUnavailable);
}

TEST(CallManyTest, SyscallPortBatchInvokes) {
  // A batch aimed at a reserved syscall port dispatches the syscall per
  // message — same verdicts as N Calls.
  Kernel k;
  ProcessId parent = *k.CreateProcess("p", ToBytes("p"));
  ProcessId child = *k.CreateProcess("c", ToBytes("c"), parent);
  std::vector<IpcMessage> messages(3);
  std::vector<IpcReply> replies(3);
  EXPECT_EQ(k.CallMany(child, SyscallIpcPort(Syscall::kGetPpid), messages, replies), 3u);
  for (const IpcReply& reply : replies) {
    EXPECT_EQ(*reply.ArgU64(0), parent);
  }
}

TEST(CallManyTest, InterceptorChainRunsPerMessage) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  ProcessId client = *k.CreateProcess("c", ToBytes("c"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  CountingInterceptor interceptor;
  ASSERT_TRUE(k.Interpose(server, port, &interceptor).ok());
  std::vector<IpcMessage> messages(5, IpcMessage::Of("watched"));
  std::vector<IpcReply> replies(5);
  EXPECT_EQ(k.CallMany(client, port, messages, replies), 5u);
  // Forward on every call, backward on every reply — per message, even
  // though the batch crossed the boundary once.
  EXPECT_EQ(interceptor.calls, 5);
  EXPECT_EQ(interceptor.returns, 5);
  EXPECT_EQ(handler.calls, 5);
}

TEST(CallManyTest, DenyBlocksIndividualMessages) {
  // A monitor that denies a specific op blocks exactly those batch slots;
  // the rest dispatch normally.
  class DenyMarked : public Interceptor {
   public:
    explicit DenyMarked(OpId marked) : marked_(marked) {}
    InterposeVerdict OnCall(const IpcContext&, IpcMessage& message) override {
      return message.op == marked_ ? InterposeVerdict::kDeny : InterposeVerdict::kAllow;
    }

   private:
    OpId marked_;
  };
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  ProcessId client = *k.CreateProcess("c", ToBytes("c"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  DenyMarked monitor(InternOp("blocked-op"));
  ASSERT_TRUE(k.Interpose(server, port, &monitor).ok());
  std::vector<IpcMessage> messages = {IpcMessage::Of("fine-op"), IpcMessage::Of("blocked-op"),
                                      IpcMessage::Of("fine-op")};
  std::vector<IpcReply> replies(3);
  EXPECT_EQ(k.CallMany(client, port, messages, replies), 2u);
  EXPECT_TRUE(replies[0].status.ok());
  EXPECT_EQ(replies[1].status.code(), ErrorCode::kPermissionDenied);
  EXPECT_NE(replies[1].status.message().find("blocked by reference monitor"),
            std::string::npos);
  EXPECT_TRUE(replies[2].status.ok());
  EXPECT_EQ(handler.calls, 2);
}

TEST(CallManyTest, ReplyDenyBlocksReply) {
  Kernel k;
  ProcessId server = *k.CreateProcess("s", ToBytes("s"));
  ProcessId client = *k.CreateProcess("c", ToBytes("c"));
  PortId port = *k.CreatePort(server);
  EchoHandler handler;
  k.BindHandler(port, &handler);
  CountingInterceptor interceptor;
  interceptor.deny_reply = true;
  ASSERT_TRUE(k.Interpose(server, port, &interceptor).ok());
  std::vector<IpcMessage> messages(2, IpcMessage::Of("x"));
  std::vector<IpcReply> replies(2);
  EXPECT_EQ(k.CallMany(client, port, messages, replies), 0u);
  for (const IpcReply& reply : replies) {
    EXPECT_EQ(reply.status.code(), ErrorCode::kPermissionDenied);
    EXPECT_NE(reply.status.message().find("reply blocked by reference monitor"),
              std::string::npos);
  }
  EXPECT_EQ(handler.calls, 2);  // The handler ran; the replies were confiscated.
}

TEST(CallManyTest, VerdictsMatchSerialCalls) {
  // Equivalence: for good, oversized, and forged-op messages, a batch
  // produces exactly the per-message verdicts N serial Calls do — with and
  // without a monitor (fast path vs general path).
  IpcMessage good = IpcMessage::Of("equiv-op");
  good.AddU64(5);
  IpcMessage oversized = IpcMessage::Of("equiv-op");
  oversized.data = Bytes(kMaxIpcData + 1, 'x');
  IpcMessage forged;
  forged.op = 0x7fffffff;
  std::vector<IpcMessage> messages = {good, oversized, forged};

  for (int monitored = 0; monitored < 2; ++monitored) {
    Kernel k;
    ProcessId server = *k.CreateProcess("s", ToBytes("s"));
    ProcessId client = *k.CreateProcess("c", ToBytes("c"));
    PortId port = *k.CreatePort(server);
    EchoHandler handler;
    k.BindHandler(port, &handler);
    CountingInterceptor monitor;
    if (monitored) {
      ASSERT_TRUE(k.Interpose(server, port, &monitor).ok());
    }
    std::vector<IpcReply> serial;
    for (const IpcMessage& message : messages) {
      serial.push_back(k.Call(client, port, message));
    }
    std::vector<IpcReply> batched(messages.size());
    k.CallMany(client, port, messages, batched);
    for (size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(serial[i].status.code(), batched[i].status.code()) << monitored << ":" << i;
    }
    EXPECT_EQ(batched[0].status.code(), ErrorCode::kOk);
    EXPECT_EQ(batched[1].status.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(batched[2].status.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(CallManyTest, ReservedPortsSurviveLifecycle) {
  Kernel k;
  // Reserved ids cannot be destroyed or re-minted.
  EXPECT_EQ(k.DestroyPort(kFsBootPort).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(k.DestroyPort(SyscallIpcPort(Syscall::kNull)).code(),
            ErrorCode::kPermissionDenied);
  // Dynamic ports mint above the reserved range.
  ProcessId owner = *k.CreateProcess("o", ToBytes("o"));
  EXPECT_GE(*k.CreatePort(owner), kFirstDynamicPort);
  // A boot port claim binds owner + handler; killing the owner reverts the
  // port to an unclaimed kernel slot instead of erasing it.
  EchoHandler handler;
  ASSERT_TRUE(k.ClaimBootPort(kFsBootPort, owner, &handler).ok());
  EXPECT_EQ(*k.PortOwner(kFsBootPort), owner);
  EXPECT_EQ(k.ClaimBootPort(kFsBootPort, owner, &handler).code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(k.KillProcess(owner).ok());
  EXPECT_EQ(*k.PortOwner(kFsBootPort), kKernelProcessId);
  ProcessId successor = *k.CreateProcess("o2", ToBytes("o"));
  EXPECT_TRUE(k.ClaimBootPort(kFsBootPort, successor, &handler).ok());
  // Non-reserved ids are refused by ClaimBootPort.
  EXPECT_EQ(k.ClaimBootPort(kFirstDynamicPort, successor, &handler).code(),
            ErrorCode::kInvalidArgument);
}

// -------------------------------------------------------------- Syscalls

TEST(SyscallTest, BasicCalls) {
  Kernel k;
  ProcessId parent = *k.CreateProcess("parent", ToBytes("p"));
  ProcessId child = *k.CreateProcess("child", ToBytes("c"), parent);
  EXPECT_TRUE(k.Call(child, SyscallIpcPort(Syscall::kNull), {}).status.ok());
  EXPECT_EQ(*k.Call(child, SyscallIpcPort(Syscall::kGetPpid), {}).ArgU64(0), parent);
  IpcReply time1 = k.Call(child, SyscallIpcPort(Syscall::kGetTimeOfDay), {});
  EXPECT_TRUE(time1.status.ok());
  EXPECT_GT(*time1.ArgU64(0), 0u);
}

TEST(SyscallTest, YieldDrivesScheduler) {
  Kernel k;
  ProcessId a = *k.CreateProcess("a", ToBytes("a"));
  k.scheduler().AddClient(a, 1);
  IpcReply reply = k.Call(a, SyscallIpcPort(Syscall::kYield), {});
  EXPECT_TRUE(reply.status.ok());
  EXPECT_EQ(k.scheduler().TotalQuanta(), 1u);
}

TEST(SyscallTest, FileOpsWithoutFsServerFail) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  IpcMessage open;
  open.AddString("/x");
  EXPECT_EQ(k.Call(pid, SyscallIpcPort(Syscall::kOpen), open).status.code(),
            ErrorCode::kUnavailable);
}

TEST(SyscallTest, DeadProcessCannotInvoke) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  k.KillProcess(pid);
  EXPECT_FALSE(k.Call(pid, SyscallIpcPort(Syscall::kNull), {}).status.ok());
}

TEST(SyscallTest, IpcCallRejectsNonNumericPortWithoutThrowing) {
  // The port argument is caller-controlled; a string slot is not a port
  // id, whatever it holds, and comes back InvalidArgument, never a throw.
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  for (const char* text : {"garbage", "99999999999999999999999999", "5"}) {
    IpcMessage outer;
    outer.AddString(text);
    EXPECT_EQ(k.Call(pid, SyscallIpcPort(Syscall::kIpcCall), outer).status.code(),
              ErrorCode::kInvalidArgument)
        << text;
  }
}

TEST(SyscallTest, ProcReadGoesThroughAuthorization) {
  Kernel k;
  ProcessId pid = *k.CreateProcess("p", ToBytes("b"));
  k.procfs().PublishValue(kKernelProcessId, "/proc/secret", "42");
  DenyAllEngine engine;
  k.set_engine(&engine);
  IpcMessage read;
  read.AddString("/proc/secret");
  IpcReply denied = k.Call(pid, SyscallIpcPort(Syscall::kProcRead), read);
  EXPECT_EQ(denied.status.code(), ErrorCode::kPermissionDenied);
  k.set_engine(nullptr);
  IpcReply allowed = k.Call(pid, SyscallIpcPort(Syscall::kProcRead), read);
  EXPECT_EQ(*allowed.ArgString(0), "42");
}

// §2.9 applied to the name tables: novel object names arriving through the
// charged intern surface (file, proc and interpose paths) are charged to
// the subject's quota root; past the cap the name is denied with a reason
// instead of growing the append-only table (ROADMAP "Name-table quotas").
TEST(KernelAuthorizeTest, ObjectNameQuotaBoundsUntrustedInterning) {
  Kernel k;
  ProcessId prober = *k.CreateProcess("prober", ToBytes("p"));
  ProcessId child = *k.CreateProcess("accomplice", ToBytes("c"), prober);
  ProcessId bystander = *k.CreateProcess("bystander", ToBytes("b"));
  k.set_object_name_quota(4);

  // Four novel names fit the quota.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(k.InternObjectCharged(prober, "probe:" + std::to_string(i)).ok());
  }
  // The fifth novel name is denied with a reason, and the table did not
  // grow (Find still misses).
  Status over = k.InternObjectCharged(prober, "probe:4").status();
  EXPECT_EQ(over.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(over.message().find("quota"), std::string::npos);
  EXPECT_FALSE(FindObject("probe:4").has_value());

  // Quota counts NOVEL names: already-interned names stay free forever
  // (the working set is unaffected).
  EXPECT_TRUE(k.InternObjectCharged(prober, "probe:0").ok());
  // A child is charged to the same quota root — spawning accomplices does
  // not refresh the budget (§2.9's principal-spawning defense).
  EXPECT_EQ(k.InternObjectCharged(child, "probe:5").status().code(),
            ErrorCode::kResourceExhausted);
  // An unrelated quota root has its own budget.
  EXPECT_TRUE(k.InternObjectCharged(bystander, "fresh:0").ok());
  // The file server charges caller paths through the same surface.
  FileServer fs(&k);
  PortId port = *k.CreatePort(bystander);
  k.BindHandler(port, &fs);
  k.set_fs_port(port);
  fs.CreateFile("/probe-file", ToBytes("x"));
  IpcMessage open;
  open.AddString("/probe-file");
  EXPECT_EQ(k.Call(prober, SyscallIpcPort(Syscall::kOpen), open).status.code(),
            ErrorCode::kResourceExhausted);
  EXPECT_FALSE(FindObject("file:/probe-file").has_value());
  // And trusted interning (control-plane InternObject) is not charged.
  ObjectId direct = InternObject("trusted:name");
  EXPECT_NE(direct, 0u);
}

// ------------------------------------------------------------ FileServer

class FileServerTest : public ::testing::Test {
 protected:
  FileServerTest() : fs_(&kernel_) {
    client_ = *kernel_.CreateProcess("client", ToBytes("c"));
    server_pid_ = *kernel_.CreateProcess("fs", ToBytes("fs"));
    port_ = *kernel_.CreatePort(server_pid_);
    kernel_.BindHandler(port_, &fs_);
    kernel_.set_fs_port(port_);
  }

  IpcReply Open(std::string_view path) {
    IpcMessage message;
    message.AddString(path);
    return kernel_.Call(client_, SyscallIpcPort(Syscall::kOpen), message);
  }

  // read/write/close: the fd, then any offset and length, as u64 slots.
  IpcReply FdCall(Syscall sc, std::initializer_list<uint64_t> args, Bytes data = {}) {
    IpcMessage message;
    for (uint64_t arg : args) {
      message.AddU64(arg);
    }
    message.data = std::move(data);
    return kernel_.Call(client_, SyscallIpcPort(sc), message);
  }

  Kernel kernel_;
  FileServer fs_;
  ProcessId client_ = 0;
  ProcessId server_pid_ = 0;
  PortId port_ = 0;
};

TEST_F(FileServerTest, OpenReadWriteClose) {
  fs_.CreateFile("/etc/motd", ToBytes("hello nexus"));
  IpcReply open = Open("/etc/motd");
  ASSERT_TRUE(open.status.ok());
  uint64_t fd = *open.ArgU64(0);

  IpcReply read = FdCall(Syscall::kRead, {fd});
  EXPECT_EQ(ToString(read.data), "hello nexus");

  IpcReply write = FdCall(Syscall::kWrite, {fd, 0}, ToBytes("HELLO"));
  EXPECT_TRUE(write.status.ok());
  EXPECT_EQ(ToString(*fs_.ReadFile("/etc/motd")), "HELLO nexus");

  EXPECT_TRUE(FdCall(Syscall::kClose, {fd}).status.ok());
  EXPECT_FALSE(FdCall(Syscall::kRead, {fd}).status.ok());
}

TEST_F(FileServerTest, PartialReads) {
  fs_.CreateFile("/data", ToBytes("0123456789"));
  uint64_t fd = *Open("/data").ArgU64(0);
  IpcReply read = FdCall(Syscall::kRead, {fd, 3, 4});
  EXPECT_EQ(ToString(read.data), "3456");
  EXPECT_FALSE(FdCall(Syscall::kRead, {fd, 11}).status.ok());
}

TEST_F(FileServerTest, WriteExtendsFile) {
  fs_.CreateFile("/log", ToBytes("ab"));
  uint64_t fd = *Open("/log").ArgU64(0);
  FdCall(Syscall::kWrite, {fd, 2}, ToBytes("cdef"));
  EXPECT_EQ(ToString(*fs_.ReadFile("/log")), "abcdef");
}

TEST_F(FileServerTest, OpenMissingFileFails) {
  EXPECT_EQ(Open("/nope").status.code(), ErrorCode::kNotFound);
}

TEST_F(FileServerTest, ForeignFdRejected) {
  fs_.CreateFile("/private", ToBytes("secret"));
  uint64_t fd = *Open("/private").ArgU64(0);
  ProcessId intruder = *kernel_.CreateProcess("intruder", ToBytes("i"));
  IpcMessage read_msg;
  read_msg.AddU64(fd);
  IpcReply read = kernel_.Call(intruder, SyscallIpcPort(Syscall::kRead), read_msg);
  EXPECT_FALSE(read.status.ok());
}

TEST_F(FileServerTest, TypedReadPathBuildsNoTextPayloads) {
  // End-to-end zero-string assertion on the REAL hot path: interposed
  // syscall -> marshal -> fileserver dispatch -> fd-memoized authorization,
  // with the decision cache and engine in the loop.
  AllowAllEngine engine;
  kernel_.set_engine(&engine);
  fs_.CreateFile("/hot", ToBytes("0123456789"));
  IpcMessage open_msg;
  open_msg.AddString("/hot");
  uint64_t fd = *kernel_.Call(client_, SyscallIpcPort(Syscall::kOpen), open_msg).ArgU64(0);
  IpcMessage read_msg;
  read_msg.AddU64(fd).AddU64(0).AddU64(4);
  ASSERT_TRUE(kernel_.Call(
      client_, SyscallIpcPort(Syscall::kRead), read_msg).status.ok());  // Warm.

  uint64_t before = IpcPayloadCopyCount();
  for (int i = 0; i < 100; ++i) {
    IpcReply reply = kernel_.Call(client_, SyscallIpcPort(Syscall::kRead), read_msg);
    ASSERT_TRUE(reply.status.ok());
    ASSERT_EQ(ToString(reply.data), "0123");
  }
  EXPECT_EQ(IpcPayloadCopyCount(), before);
  kernel_.set_engine(nullptr);
}

TEST_F(FileServerTest, TypedReadPerformsZeroPayloadCopies) {
  // The end-to-end zero-copy audit: a 64 KiB typed read must hand back a
  // slice of the fileserver's backing arena — no payload memcpy anywhere
  // between the store and the caller's reply.
  constexpr size_t kBig = 64 * 1024;
  fs_.CreateFile("/bench/big", Bytes(kBig, 0x5a));
  IpcMessage open_msg;
  open_msg.AddString("/bench/big");
  uint64_t fd = *kernel_.Call(client_, SyscallIpcPort(Syscall::kOpen), open_msg).ArgU64(0);

  IpcMessage read_msg;
  read_msg.AddU64(fd).AddU64(0).AddU64(kBig);
  kernel_.Call(client_, SyscallIpcPort(Syscall::kRead), read_msg);  // Warm caches/interning.

  uint64_t copies_before = IpcPayloadCopyCount();
  IpcReply read;
  for (int i = 0; i < 100; ++i) {
    read = kernel_.Call(client_, SyscallIpcPort(Syscall::kRead), read_msg);
  }
  ASSERT_TRUE(read.status.ok());
  EXPECT_EQ(IpcPayloadCopyCount(), copies_before);
  EXPECT_EQ(read.data.size(), kBig);
  EXPECT_TRUE(read.data.aliased());  // Borrowing the store, not owning a copy.
  EXPECT_EQ(read.data.data()[0], 0x5a);
  EXPECT_EQ(read.data.data()[kBig - 1], 0x5a);
}

TEST_F(FileServerTest, WriteDetachesOutstandingReadSlices) {
  // Copy-on-write isolation: a read slice handed out before a write keeps
  // observing the pre-write bytes; the write lands in a fresh arena.
  fs_.CreateFile("/cow", ToBytes("original-content"));
  uint64_t fd = *Open("/cow").ArgU64(0);
  IpcReply before = FdCall(Syscall::kRead, {fd});
  ASSERT_EQ(ToString(before.data), "original-content");

  ASSERT_TRUE(FdCall(Syscall::kWrite, {fd, 0}, ToBytes("REWRITTEN")).status.ok());
  EXPECT_EQ(ToString(before.data), "original-content");  // Slice unaffected.
  IpcReply after = FdCall(Syscall::kRead, {fd});
  EXPECT_EQ(ToString(after.data), "REWRITTENcontent");
}

TEST_F(FileServerTest, UnlinkLeavesOutstandingSlicesAlive) {
  fs_.CreateFile("/doomed", ToBytes("still-here-after-unlink"));
  uint64_t fd = *Open("/doomed").ArgU64(0);
  IpcReply read = FdCall(Syscall::kRead, {fd});
  ASSERT_TRUE(read.status.ok());
  IpcMessage unlink = IpcMessage::Of("unlink");
  unlink.AddString("/doomed");
  ASSERT_TRUE(kernel_.Call(client_, port_, unlink).status.ok());
  // The map entry is gone but the arena lives as long as the slice does.
  EXPECT_FALSE(fs_.ReadFile("/doomed").ok());
  EXPECT_EQ(ToString(read.data), "still-here-after-unlink");
}

TEST_F(FileServerTest, BatchedReadsViaCallMany) {
  // CallMany straight at the fileserver port exercises HandleMany's
  // prefetch-batch authorization path; replies stay zero-copy slices.
  fs_.CreateFile("/batch", ToBytes("abcdefgh"));
  uint64_t fd = *Open("/batch").ArgU64(0);
  std::vector<IpcMessage> messages(4);
  for (size_t i = 0; i < messages.size(); ++i) {
    messages[i] = IpcMessage::Of("read");
    messages[i].AddU64(fd).AddU64(i * 2).AddU64(2);
  }
  std::vector<IpcReply> replies(4);
  uint64_t copies_before = IpcPayloadCopyCount();
  EXPECT_EQ(kernel_.CallMany(client_, port_, messages, replies), 4u);
  EXPECT_EQ(IpcPayloadCopyCount(), copies_before);
  EXPECT_EQ(ToString(replies[0].data), "ab");
  EXPECT_EQ(ToString(replies[1].data), "cd");
  EXPECT_EQ(ToString(replies[2].data), "ef");
  EXPECT_EQ(ToString(replies[3].data), "gh");
}

TEST_F(FileServerTest, AccessControlEnforcedPerFile) {
  fs_.CreateFile("/guarded", ToBytes("x"));
  DenyAllEngine engine;
  kernel_.set_engine(&engine);
  EXPECT_EQ(Open("/guarded").status.code(), ErrorCode::kPermissionDenied);
}

// --------------------------------------------------------- DecisionCache

TEST(DecisionCacheTest, MissThenHit) {
  DecisionCache cache;
  EXPECT_FALSE(cache.Lookup(1, "read", "file:/x").has_value());
  cache.Insert(1, "read", "file:/x", true);
  auto hit = cache.Lookup(1, "read", "file:/x");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  EXPECT_EQ(*cache.metrics().Value("hits"), 1u);
  EXPECT_EQ(*cache.metrics().Value("misses"), 1u);
}

TEST(DecisionCacheTest, StoresDenials) {
  DecisionCache cache;
  cache.Insert(1, "write", "file:/x", false);
  auto hit = cache.Lookup(1, "write", "file:/x");
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(*hit);
}

TEST(DecisionCacheTest, DistinguishesTuples) {
  DecisionCache cache;
  cache.Insert(1, "read", "file:/x", true);
  EXPECT_FALSE(cache.Lookup(2, "read", "file:/x").has_value());
  EXPECT_FALSE(cache.Lookup(1, "write", "file:/x").has_value());
  EXPECT_FALSE(cache.Lookup(1, "read", "file:/y").has_value());
}

TEST(DecisionCacheTest, SubregionInvalidationClearsOpObject) {
  DecisionCache cache;
  for (ProcessId pid = 1; pid <= 10; ++pid) {
    cache.Insert(pid, "read", "file:/x", true);
  }
  cache.InvalidateSubregion("read", "file:/x");
  for (ProcessId pid = 1; pid <= 10; ++pid) {
    EXPECT_FALSE(cache.Lookup(pid, "read", "file:/x").has_value());
  }
}

TEST(DecisionCacheTest, SubregionInvalidationSparesOtherSubregions) {
  DecisionCache::Config config;
  config.num_subregions = 64;
  DecisionCache cache(config);
  // Insert entries for many objects; invalidating one object's subregion
  // must leave most other objects cached.
  for (int i = 0; i < 100; ++i) {
    cache.Insert(1, "read", "file:/f" + std::to_string(i), true);
  }
  cache.InvalidateSubregion("read", "file:/f0");
  int surviving = 0;
  for (int i = 1; i < 100; ++i) {
    if (cache.Lookup(1, "read", "file:/f" + std::to_string(i)).has_value()) {
      ++surviving;
    }
  }
  EXPECT_GT(surviving, 80);
}

TEST(DecisionCacheTest, EntryInvalidation) {
  DecisionCache cache;
  cache.Insert(1, "read", "file:/x", true);
  cache.InvalidateEntry(1, "read", "file:/x");
  EXPECT_FALSE(cache.Lookup(1, "read", "file:/x").has_value());
}

TEST(DecisionCacheTest, ClearAndResize) {
  DecisionCache cache;
  cache.Insert(1, "read", "o", true);
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(1, "read", "o").has_value());
  cache.Insert(1, "read", "o", true);
  cache.Resize(DecisionCache::Config{8, 8});
  EXPECT_FALSE(cache.Lookup(1, "read", "o").has_value());
}

TEST(DecisionCacheTest, EvictionUnderPressureStaysCorrect) {
  DecisionCache::Config config;
  config.num_subregions = 2;
  config.entries_per_subregion = 4;
  DecisionCache cache(config);
  for (int i = 0; i < 100; ++i) {
    cache.Insert(static_cast<ProcessId>(i), "op", "obj", i % 2 == 0);
  }
  // Whatever remains cached must agree with what was inserted.
  for (int i = 0; i < 100; ++i) {
    auto hit = cache.Lookup(static_cast<ProcessId>(i), "op", "obj");
    if (hit.has_value()) {
      EXPECT_EQ(*hit, i % 2 == 0) << i;
    }
  }
}

TEST(DecisionCacheTest, CrossShardSubregionInvalidationReachesEveryShard) {
  DecisionCache::Config config;
  config.num_shards = 8;
  DecisionCache cache(config);
  // Subjects spread across shards; every entry shares one (op, object).
  std::set<size_t> shards_used;
  for (ProcessId pid = 1; pid <= 64; ++pid) {
    cache.Insert(pid, "read", "file:/x", true);
    shards_used.insert(cache.ShardOf(pid));
  }
  ASSERT_GT(shards_used.size(), 1u) << "subjects must actually span shards";
  // One setgoal-style invalidation must reach all of them.
  cache.InvalidateSubregion("read", "file:/x");
  for (ProcessId pid = 1; pid <= 64; ++pid) {
    EXPECT_FALSE(cache.Lookup(pid, "read", "file:/x").has_value()) << pid;
  }
}

TEST(DecisionCacheTest, PerShardStatsSumToAggregate) {
  DecisionCache::Config config;
  config.num_shards = 4;
  DecisionCache cache(config);
  for (ProcessId pid = 1; pid <= 40; ++pid) {
    cache.Lookup(pid, "op", "obj");      // Miss.
    cache.Insert(pid, "op", "obj", true);
    cache.Lookup(pid, "op", "obj");      // Hit.
  }
  cache.InvalidateSubregion("op", "obj");
  // Value sums the per-shard counters.
  const metrics::MetricGroup& counters = cache.metrics();
  EXPECT_EQ(*counters.Value("hits"), 40u);
  EXPECT_EQ(*counters.Value("misses"), 40u);
  // The broadcast touched every shard's subregion.
  EXPECT_EQ(*counters.Value("subregion_invalidations"), config.num_shards);
}

TEST(DecisionCacheTest, ResizeUnderDifferentShardCountPreservesClearSemantics) {
  DecisionCache::Config config;
  config.num_shards = 2;
  DecisionCache cache(config);
  for (ProcessId pid = 1; pid <= 16; ++pid) {
    cache.Insert(pid, "read", "o", true);
  }
  config.num_shards = 8;
  cache.Resize(config);
  EXPECT_EQ(cache.config().num_shards, 8u);
  for (ProcessId pid = 1; pid <= 16; ++pid) {
    EXPECT_FALSE(cache.Lookup(pid, "read", "o").has_value()) << pid;
  }
  // The resized cache is fully functional.
  cache.Insert(1, "read", "o", false);
  auto hit = cache.Lookup(1, "read", "o");
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(*hit);
}

TEST(DecisionCacheTest, GenerationGuardedInsertDropsStaleVerdict) {
  DecisionCache cache;
  AuthzRequest request = AuthzRequest::Of(1, "read", "file:/x");
  // A verdict computed before an invalidation must not be cached after it
  // (the stale-insert race of a concurrent frontend, compressed serially).
  uint64_t generation = cache.Generation(request);
  cache.InvalidateSubregion(request.op, request.obj);  // Concurrent setgoal.
  EXPECT_FALSE(cache.InsertIfUnchanged(request, true, generation));
  EXPECT_FALSE(cache.Lookup(request).has_value());
  // With a fresh snapshot the insert lands.
  generation = cache.Generation(request);
  EXPECT_TRUE(cache.InsertIfUnchanged(request, true, generation));
  EXPECT_TRUE(cache.Lookup(request).has_value());
  // InvalidateEntry (setproof) bumps the generation too.
  generation = cache.Generation(request);
  cache.InvalidateEntry(request);
  EXPECT_FALSE(cache.InsertIfUnchanged(request, false, generation));
}

TEST(DecisionCacheTest, LookupYieldsTheGenerationItsProbeRead) {
  DecisionCache cache;
  const AuthzRequest request = AuthzRequest::Of(1, "read", "file:/x");
  const uint64_t inserted_under = cache.Generation(request);
  cache.Insert(request, true);
  uint64_t generation = 0;
  ASSERT_TRUE(cache.Lookup(request, &generation).has_value());
  EXPECT_EQ(generation, inserted_under);
  // After a setgoal the same tuple misses, under the bumped generation.
  std::vector<uint64_t> post_gens;
  cache.InvalidateSubregion(request.op, request.obj, &post_gens);
  EXPECT_FALSE(cache.Lookup(request, &generation).has_value());
  EXPECT_EQ(generation, inserted_under + 1);
  EXPECT_EQ(generation, post_gens[cache.ShardOf(request.subject)]);
}

// ------------------------------------------------- Kernel + cache wiring

TEST(KernelAuthorizeTest, NoEngineAllowsEverything) {
  Kernel k;
  EXPECT_TRUE(k.Authorize(AuthzRequest::Of(1, "read", "anything")).ok());
}

TEST(KernelAuthorizeTest, CacheShortCircuitsEngine) {
  Kernel k;
  AllowAllEngine engine;
  k.set_engine(&engine);
  EXPECT_TRUE(k.Authorize(AuthzRequest::Of(1, "read", "o")).ok());
  EXPECT_TRUE(k.Authorize(AuthzRequest::Of(1, "read", "o")).ok());
  EXPECT_TRUE(k.Authorize(AuthzRequest::Of(1, "read", "o")).ok());
  EXPECT_EQ(engine.upcalls, 1);
}

TEST(KernelAuthorizeTest, NonCacheableDecisionsAlwaysUpcall) {
  Kernel k;
  AllowAllEngine engine;
  engine.cacheable = false;
  k.set_engine(&engine);
  k.Authorize(AuthzRequest::Of(1, "read", "o"));
  k.Authorize(AuthzRequest::Of(1, "read", "o"));
  EXPECT_EQ(engine.upcalls, 2);
}

TEST(KernelAuthorizeTest, DisabledCacheAlwaysUpcalls) {
  Kernel k;
  AllowAllEngine engine;
  k.set_engine(&engine);
  k.set_decision_cache_enabled(false);
  k.Authorize(AuthzRequest::Of(1, "read", "o"));
  k.Authorize(AuthzRequest::Of(1, "read", "o"));
  EXPECT_EQ(engine.upcalls, 2);
}

TEST(KernelAuthorizeTest, GoalUpdateInvalidatesCachedDecisions) {
  Kernel k;
  AllowAllEngine engine;
  k.set_engine(&engine);
  k.Authorize(AuthzRequest::Of(1, "read", "o"));
  k.OnGoalUpdate("read", "o");
  k.Authorize(AuthzRequest::Of(1, "read", "o"));
  EXPECT_EQ(engine.upcalls, 2);
}

TEST(KernelAuthorizeTest, ProofUpdateInvalidatesCachedDecision) {
  Kernel k;
  AllowAllEngine engine;
  k.set_engine(&engine);
  k.Authorize(AuthzRequest::Of(1, "read", "o"));
  k.OnProofUpdate(1, "read", "o");
  k.Authorize(AuthzRequest::Of(1, "read", "o"));
  EXPECT_EQ(engine.upcalls, 2);
}

TEST(KernelAuthorizeTest, EngineWithoutABatchPathAnswersEachMissInItsSlot) {
  // An engine that does not override AuthorizeBatch answers a batch of
  // misses through the default loop: one Authorize per miss, each verdict
  // in its request's slot.
  class ObjectListEngine : public AuthorizationEngine {
   public:
    AuthzDecision Authorize(const AuthzRequest& request) override {
      ++upcalls;
      if (request.object() == "allowed") {
        return AuthzDecision::Allow(true);
      }
      return AuthzDecision::Deny(PermissionDenied("not listed"), true);
    }
    int upcalls = 0;
  };
  Kernel k;
  ObjectListEngine engine;
  k.set_engine(&engine);
  const AuthzRequest requests[] = {AuthzRequest::Of(1, "read", "denied"),
                                   AuthzRequest::Of(1, "read", "allowed")};
  std::vector<Status> verdicts = k.AuthorizeBatch(requests);
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(verdicts[1].ok());
  EXPECT_EQ(engine.upcalls, 2);
}

// -------------------------------------------------------------- ProcFs

TEST(ProcFsTest, PublishReadRemove) {
  IntrospectionFs fs;
  fs.PublishValue(1, "/proc/app/key", "value");
  EXPECT_EQ(*fs.Read("/proc/app/key"), "value");
  EXPECT_EQ(*fs.Owner("/proc/app/key"), 1u);
  ASSERT_TRUE(fs.Remove("/proc/app/key").ok());
  EXPECT_FALSE(fs.Read("/proc/app/key").ok());
}

TEST(ProcFsTest, LiveProviders) {
  IntrospectionFs fs;
  int counter = 0;
  fs.Publish(1, "/proc/app/counter", [&counter] { return std::to_string(counter); });
  EXPECT_EQ(*fs.Read("/proc/app/counter"), "0");
  counter = 42;
  EXPECT_EQ(*fs.Read("/proc/app/counter"), "42");
}

TEST(ProcFsTest, ListDirectories) {
  IntrospectionFs fs;
  fs.PublishValue(1, "/proc/ipd/1/name", "a");
  fs.PublishValue(1, "/proc/ipd/2/name", "b");
  fs.PublishValue(1, "/proc/port/9/owner", "1");
  std::vector<std::string> ipds = fs.List("/proc/ipd");
  EXPECT_EQ(ipds, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(fs.List("/proc").size(), 2u);  // ipd and port.
}

TEST(ProcFsTest, WatchersFireOnPrefix) {
  IntrospectionFs fs;
  std::vector<std::string> seen;
  uint64_t token = fs.Watch("/proc/ipd", [&seen](const std::string& path, const std::string&) {
    seen.push_back(path);
  });
  fs.PublishValue(1, "/proc/ipd/3/name", "x");
  fs.PublishValue(1, "/proc/other", "y");
  EXPECT_EQ(seen, (std::vector<std::string>{"/proc/ipd/3/name"}));
  fs.Unwatch(token);
  fs.PublishValue(1, "/proc/ipd/4/name", "z");
  EXPECT_EQ(seen.size(), 1u);
}

TEST(ProcFsTest, RemoveOwnedRemovesAll) {
  IntrospectionFs fs;
  fs.PublishValue(7, "/a", "1");
  fs.PublishValue(7, "/b", "2");
  fs.PublishValue(8, "/c", "3");
  fs.RemoveOwned(7);
  EXPECT_FALSE(fs.Read("/a").ok());
  EXPECT_FALSE(fs.Read("/b").ok());
  EXPECT_TRUE(fs.Read("/c").ok());
}

// ------------------------------------------------------------ Scheduler

TEST(SchedulerTest, StrideRespectsWeights) {
  StrideScheduler sched;
  sched.AddClient(1, 30);
  sched.AddClient(2, 10);
  for (int i = 0; i < 4000; ++i) {
    sched.Tick();
  }
  double share1 = static_cast<double>(sched.QuantaReceived(1)) / 4000.0;
  EXPECT_NEAR(share1, 0.75, 0.02);
}

TEST(SchedulerTest, StrideWeightChangeTakesEffect) {
  StrideScheduler sched;
  sched.AddClient(1, 1);
  sched.AddClient(2, 1);
  for (int i = 0; i < 100; ++i) {
    sched.Tick();
  }
  sched.SetWeight(1, 9);
  uint64_t before1 = sched.QuantaReceived(1);
  for (int i = 0; i < 1000; ++i) {
    sched.Tick();
  }
  double share_after = static_cast<double>(sched.QuantaReceived(1) - before1) / 1000.0;
  EXPECT_NEAR(share_after, 0.9, 0.05);
}

TEST(SchedulerTest, NewClientNotStarved) {
  StrideScheduler sched;
  sched.AddClient(1, 1);
  for (int i = 0; i < 1000; ++i) {
    sched.Tick();
  }
  sched.AddClient(2, 1);
  uint64_t before = sched.QuantaReceived(2);
  for (int i = 0; i < 100; ++i) {
    sched.Tick();
  }
  EXPECT_GE(sched.QuantaReceived(2) - before, 45u);
}

TEST(SchedulerTest, StrideRejectsBadInput) {
  StrideScheduler sched;
  EXPECT_FALSE(sched.AddClient(1, 0).ok());
  sched.AddClient(1, 1);
  EXPECT_FALSE(sched.AddClient(1, 2).ok());
  EXPECT_FALSE(sched.SetWeight(2, 1).ok());
  EXPECT_FALSE(sched.RemoveClient(2).ok());
}

TEST(SchedulerTest, EmptySchedulerFails) {
  StrideScheduler sched;
  EXPECT_FALSE(sched.Tick().ok());
}

// --------------------------------------------------------- HashWhitelist

TEST(HashWhitelistTest, AxiomaticBaseline) {
  Kernel k;
  HashWhitelist whitelist;
  Bytes trusted_player = ToBytes("certified-player-v1");
  whitelist.AllowBinary(trusted_player);

  ProcessId good = *k.CreateProcess("player", trusted_player);
  ProcessId bad = *k.CreateProcess("other-player", ToBytes("home-built-player"));
  EXPECT_TRUE(*whitelist.Check(k, good));
  EXPECT_FALSE(*whitelist.Check(k, bad));
  EXPECT_FALSE(whitelist.Check(k, 999).ok());
}

}  // namespace
}  // namespace nexus::kernel

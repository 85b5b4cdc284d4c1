// Pins that the single-request paths, and an interposed crossing, make no
// heap allocation. Call is CallMany over a one-element span,
// Kernel::Authorize is the batch pipeline run on one request, and
// Engine::Authorize is the engine's miss routine run on one request; a
// batch container built on any of them would fail here. This binary
// replaces the global operator new to count allocations made by the
// calling thread.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/nexus.h"
#include "kernel/kernel.h"
#include "nal/parser.h"
#include "services/ddrm.h"

namespace {

thread_local size_t t_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  ++t_allocations;
  size = size == 0 ? 1 : size;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace nexus::kernel {
namespace {

// Runs `op` once to warm caches and interning, then returns how many
// allocations a second run makes on this thread.
template <typename Op>
size_t AllocationsAfterWarmUp(Op op) {
  op();
  const size_t before = t_allocations;
  op();
  return t_allocations - before;
}

// Allows everything but the "alloc:denied" object; both verdicts cache.
class DenyOneObjectEngine : public AuthorizationEngine {
 public:
  AuthzDecision Authorize(const AuthzRequest& request) override {
    return request.obj == denied_ ? AuthzDecision::Deny(PermissionDenied("denied"))
                                  : AuthzDecision::Allow();
  }

 private:
  const ObjectId denied_ = InternObject("alloc:denied");
};

// Authorizes the caller for the message's object, like the guarded
// servers do; batches take the default serial HandleMany.
class AuthorizingServer : public PortHandler {
 public:
  explicit AuthorizingServer(Kernel* kernel) : kernel_(kernel) {}
  IpcReply Handle(const IpcContext& context, const IpcMessage& message) override {
    Result<ObjectId> object = message.ArgObject(0);
    if (!object.ok()) {
      return IpcReply(object.status());
    }
    IpcReply reply(kernel_->Authorize(AuthzRequest{context.caller, message.op, *object}));
    reply.AddU64(reply.status.ok() ? 1 : 0);
    return reply;
  }

 private:
  Kernel* kernel_;
};

class PassThrough : public Interceptor {
 public:
  InterposeVerdict OnCall(const IpcContext&, IpcMessage&) override {
    return InterposeVerdict::kAllow;
  }
};

class AllocTest : public ::testing::Test {
 protected:
  AllocTest() : server_(&kernel_) {
    kernel_.set_engine(&engine_);
    server_pid_ = *kernel_.CreateProcess("server", ToBytes("s"));
    client_ = *kernel_.CreateProcess("client", ToBytes("c"));
    port_ = *kernel_.CreatePort(server_pid_);
    kernel_.BindHandler(port_, &server_);
    object_ = InternObject("alloc:object");
    read_ = IpcMessage::Of("alloc-read");
    read_.AddObject(object_);
  }

  DenyOneObjectEngine engine_;
  Kernel kernel_;
  AuthorizingServer server_;
  ProcessId server_pid_ = 0;
  ProcessId client_ = 0;
  PortId port_ = 0;
  ObjectId object_ = 0;
  IpcMessage read_;
};

TEST_F(AllocTest, CachedAuthorizeAllocatesNothing) {
  const AuthzRequest request{client_, read_.op, object_};
  EXPECT_EQ(AllocationsAfterWarmUp([&] { ASSERT_TRUE(kernel_.Authorize(request).ok()); }), 0u);
}

TEST_F(AllocTest, CachedDenyAllocatesNothing) {
  const ObjectId denied = InternObject("alloc:denied");
  const AuthzRequest request{client_, read_.op, denied};
  EXPECT_EQ(AllocationsAfterWarmUp([&] {
              ASSERT_EQ(kernel_.Authorize(request).code(), ErrorCode::kPermissionDenied);
            }),
            0u);
  IpcMessage denied_read = IpcMessage::Of("alloc-read");
  denied_read.AddObject(denied);
  EXPECT_EQ(AllocationsAfterWarmUp([&] {
              ASSERT_EQ(kernel_.Call(client_, port_, denied_read).status.code(),
                        ErrorCode::kPermissionDenied);
            }),
            0u);
}

TEST_F(AllocTest, UninterposedCallAllocatesNothing) {
  EXPECT_EQ(AllocationsAfterWarmUp(
                [&] { ASSERT_TRUE(kernel_.Call(client_, port_, read_).status.ok()); }),
            0u);
}

TEST_F(AllocTest, UninterposedCallManyAllocatesNothing) {
  std::vector<IpcMessage> messages(8, read_);
  std::vector<IpcReply> replies(8);
  EXPECT_EQ(AllocationsAfterWarmUp(
                [&] { ASSERT_EQ(kernel_.CallMany(client_, port_, messages, replies), 8u); }),
            0u);
}

TEST_F(AllocTest, NullSyscallAllocatesNothing) {
  const IpcMessage empty{};
  EXPECT_EQ(AllocationsAfterWarmUp([&] {
              ASSERT_TRUE(
                  kernel_.Call(client_, SyscallIpcPort(Syscall::kNull), empty).status.ok());
            }),
            0u);
}

TEST_F(AllocTest, MonitoredCallsAllocateNothing) {
  // Two monitors: a pass-through and the decision-cached DDRM, whose
  // verdict table admits the read.
  PassThrough monitor;
  services::DdrmPolicy policy;
  policy.allowed_operations = {"alloc-read"};
  services::DeviceDriverMonitor ddrm(policy);
  ASSERT_TRUE(kernel_.Interpose(server_pid_, port_, &monitor).ok());
  ASSERT_TRUE(kernel_.Interpose(server_pid_, port_, &ddrm).ok());
  EXPECT_EQ(AllocationsAfterWarmUp(
                [&] { ASSERT_TRUE(kernel_.Call(client_, port_, read_).status.ok()); }),
            0u);
  std::vector<IpcMessage> messages(8, read_);
  std::vector<IpcReply> replies(8);
  EXPECT_EQ(AllocationsAfterWarmUp(
                [&] { ASSERT_EQ(kernel_.CallMany(client_, port_, messages, replies), 8u); }),
            0u);
  // Warm-up and measured runs: two Calls and two 8-message batches.
  EXPECT_EQ(*ddrm.metrics().Value("allowed"), 2u * (1 + 8));
}

// An uncached engine miss: the decision cache is bypassed, so every call
// runs the goal lookup, proof lookup, credential snapshot, stripe locking
// and the guard. After warm-up the guard answers from its proof cache.
TEST(EngineAllocTest, UncachedSingleMissAllocatesNothing) {
  Rng rng(5);
  tpm::Tpm tpm(rng);
  core::Nexus nexus(&tpm);
  ProcessId owner = *nexus.CreateProcess("owner", ToBytes("o"));
  ProcessId subject = *nexus.CreateProcess("subject", ToBytes("s"));
  ASSERT_TRUE(nexus.engine().RegisterObject("alloc:doc", owner, kKernelProcessId).ok());
  nal::Formula goal = *nal::ParseFormula("Certifier says safe(alloc)");
  ASSERT_TRUE(nexus.engine().SetGoal(owner, "read", "alloc:doc", goal).ok());
  nexus.engine().SayAs(nal::Principal("Certifier"), *nal::ParseFormula("safe(alloc)"));
  const AuthzRequest request = AuthzRequest::Of(subject, "read", "alloc:doc");
  ASSERT_TRUE(nexus.engine().SetProof(request, nal::proof::Premise(goal)).ok());

  EXPECT_EQ(AllocationsAfterWarmUp(
                [&] { ASSERT_TRUE(nexus.engine().Authorize(request).allowed()); }),
            0u);
}

}  // namespace
}  // namespace nexus::kernel

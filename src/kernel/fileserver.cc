#include "kernel/fileserver.h"

#include <algorithm>
#include <vector>

namespace nexus::kernel {

namespace {

// Hoisted operation ids: interned once per process lifetime, not per call.
const OpId kCreateOp = InternOp("create");
const OpId kOpenOp = InternOp("open");
const OpId kCloseOp = InternOp("close");
const OpId kReadOp = InternOp("read");
const OpId kWriteOp = InternOp("write");
const OpId kUnlinkOp = InternOp("unlink");
const OpId kStatOp = InternOp("stat");

// A miss on a hot verb replies with a FIXED message (small-string, no
// heap) and carries the offending path as an aliased reply slot — the
// caller's own bytes, zero-copy — instead of concatenating a fresh
// "no such file: <path>" heap string per miss.
IpcReply NoSuchFile(const IpcMessage& message, size_t path_slot) {
  IpcReply reply(NotFound("no such file"));
  reply.args.AddAliasedPayload(ArgTag::kString, message.args, path_slot);
  return reply;
}

}  // namespace

Status FileServer::CreateFile(const std::string& path, ByteView content) {
  if (files_.contains(path)) {
    return AlreadyExists("file exists: " + path);
  }
  files_[path] = std::make_shared<Bytes>(content.begin(), content.end());
  return OkStatus();
}

Result<Bytes> FileServer::ReadFile(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFound("no such file: " + path);
  }
  return *it->second;
}

Result<ObjectId> FileServer::FileObject(ProcessId caller, std::string_view path) {
  auto it = file_objects_.find(path);
  if (it != file_objects_.end()) {
    return it->second;  // Memoized: no string built, no interning.
  }
  // First sight of this path: build "file:<path>" ONCE and intern it
  // through the charged surface — probing endless novel paths exhausts the
  // prober's name quota, not the table. The same buffer then becomes the
  // memo key (erase the prefix in place), so the miss path costs one heap
  // string total, not two.
  std::string key = "file:";
  key += path;
  Result<ObjectId> object = kernel_->InternObjectCharged(caller, key);
  if (object.ok()) {
    key.erase(0, 5);
    file_objects_.emplace(std::move(key), *object);
  }
  return object;
}

std::shared_ptr<Bytes>& FileServer::ContentFor(const std::string& path) {
  std::shared_ptr<Bytes>& content = files_[path];
  if (content == nullptr) {
    content = std::make_shared<Bytes>();
  }
  return content;
}

Status FileServer::Authorized(const Prejudged* pre, const AuthzRequest& request) {
  if (pre != nullptr && pre->request.subject == request.subject &&
      pre->request.op == request.op && pre->request.obj == request.obj) {
    return pre->verdict;
  }
  // No (matching) prefetched verdict — the serial path, or a batch message
  // whose target changed under an earlier message in the same batch.
  return kernel_->Authorize(request);
}

std::optional<AuthzRequest> FileServer::AuthzFor(const IpcContext& context,
                                                 const IpcMessage& message) {
  const OpId op = message.op;
  if (op == kCreateOp || op == kOpenOp || op == kUnlinkOp) {
    Result<std::string_view> path_arg = message.ArgString(0);
    if (!path_arg.ok()) {
      return std::nullopt;  // Fails argument validation before authorizing.
    }
    Result<ObjectId> object = FileObject(context.caller, *path_arg);
    if (!object.ok()) {
      return std::nullopt;  // Interning fails identically at execute time.
    }
    return AuthzRequest{context.caller, op, *object};
  }
  if (op == kReadOp || op == kWriteOp) {
    Result<uint64_t> fd_arg = message.ArgU64(0);
    if (!fd_arg.ok()) {
      return std::nullopt;
    }
    auto it = open_files_.find(static_cast<int64_t>(*fd_arg));
    if (it == open_files_.end() || it->second.owner != context.caller) {
      return std::nullopt;
    }
    return AuthzRequest{context.caller, op, it->second.object};
  }
  return std::nullopt;  // close/stat/unknown verbs don't authorize.
}

IpcReply FileServer::Handle(const IpcContext& context, const IpcMessage& message) {
  return HandleWith(context, message, nullptr);
}

void FileServer::HandleMany(const IpcContext& context, std::span<const IpcMessage> messages,
                            std::span<IpcReply> replies) {
  const size_t n = std::min(messages.size(), replies.size());
  // Prefetch pass: predict each message's authorization tuple, then make
  // ONE batched upcall for all of them — the engine amortizes credential
  // collection and deduplicates repeated tuples across the batch.
  std::vector<AuthzRequest> requests;
  std::vector<size_t> request_of(n, static_cast<size_t>(-1));
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (std::optional<AuthzRequest> request = AuthzFor(context, messages[i])) {
      request_of[i] = requests.size();
      requests.push_back(*request);
    }
  }
  std::vector<Status> verdicts;
  if (!requests.empty()) {
    verdicts = kernel_->AuthorizeBatch(requests);
  }
  // Execute pass: same per-message semantics as N serial Handle calls,
  // with the prefetched verdict consulted where it still applies.
  for (size_t i = 0; i < n; ++i) {
    if (request_of[i] == static_cast<size_t>(-1)) {
      replies[i] = HandleWith(context, messages[i], nullptr);
    } else {
      Prejudged pre{requests[request_of[i]], verdicts[request_of[i]]};
      replies[i] = HandleWith(context, messages[i], &pre);
    }
  }
}

// Argument convention (typed ABI v2): paths travel as string slots —
// they are names — while fds, offsets, and lengths are integer slots and
// cross the IPC boundary with no stringify/re-parse. Text where an
// integer belongs is an InvalidArgument.
IpcReply FileServer::HandleWith(const IpcContext& context, const IpcMessage& message,
                                const Prejudged* pre) {
  const OpId op = message.op;

  if (op == kCreateOp) {
    Result<std::string_view> path_arg = message.ArgString(0);
    if (!path_arg.ok()) {
      return Error(InvalidArgument("create needs a path"));
    }
    const std::string path(*path_arg);  // CreateFile owns the key.
    Result<ObjectId> object = FileObject(context.caller, path);
    if (!object.ok()) {
      return Error(object.status());
    }
    Status authorized = Authorized(pre, AuthzRequest{context.caller, kCreateOp, *object});
    if (!authorized.ok()) {
      return Error(authorized);
    }
    Status created = CreateFile(path, message.data);
    return IpcReply(created);
  }

  if (op == kOpenOp) {
    Result<std::string_view> path_arg = message.ArgString(0);
    if (!path_arg.ok()) {
      return Error(InvalidArgument("open needs a path"));
    }
    Result<ObjectId> object = FileObject(context.caller, *path_arg);
    if (!object.ok()) {
      return Error(object.status());
    }
    Status authorized = Authorized(pre, AuthzRequest{context.caller, kOpenOp, *object});
    if (!authorized.ok()) {
      return Error(authorized);
    }
    auto it = files_.find(*path_arg);  // Transparent: no key string built.
    if (it == files_.end()) {
      return NoSuchFile(message, 0);
    }
    int64_t fd = next_fd_++;
    open_files_[fd] = OpenFile{std::string(*path_arg), context.caller, *object};
    // v2: the fd is the reply — the v1 path-text echo is gone (no consumer
    // ever read it back, and it made every open move a heap string).
    return IpcReply::Ok().AddU64(static_cast<uint64_t>(fd));
  }

  if (op == kCloseOp) {
    Result<uint64_t> fd_arg = message.ArgU64(0);
    if (!fd_arg.ok()) {
      return Error(InvalidArgument("close: fd must be a file descriptor"));
    }
    int64_t fd = static_cast<int64_t>(*fd_arg);
    auto it = open_files_.find(fd);
    if (it == open_files_.end() || it->second.owner != context.caller) {
      return Error(NotFound("bad file descriptor"));
    }
    open_files_.erase(it);
    return IpcReply::Ok();
  }

  if (op == kReadOp || op == kWriteOp) {
    const bool is_read = op == kReadOp;
    Result<uint64_t> fd_arg = message.ArgU64(0);
    if (!fd_arg.ok()) {
      return Error(InvalidArgument(std::string(is_read ? "read" : "write") +
                                   ": fd must be a file descriptor"));
    }
    int64_t fd = static_cast<int64_t>(*fd_arg);
    auto it = open_files_.find(fd);
    if (it == open_files_.end() || it->second.owner != context.caller) {
      return Error(NotFound("bad file descriptor"));
    }
    // The fd carries its interned object id: the per-call authorization is
    // three integers, no "file:<path>" string ever built on this path.
    Status authorized = Authorized(
        pre, AuthzRequest{context.caller, is_read ? kReadOp : kWriteOp, it->second.object});
    if (!authorized.ok()) {
      return Error(authorized);
    }
    const std::string& path = it->second.path;
    std::shared_ptr<Bytes>& content = ContentFor(path);
    if (is_read) {
      uint64_t offset = 0;
      uint64_t length = content->size();
      if (message.args.size() > 1) {
        Result<uint64_t> offset_arg = message.ArgU64(1);
        if (!offset_arg.ok()) {
          return Error(InvalidArgument("read: offset must be an integer"));
        }
        offset = *offset_arg;
      }
      if (message.args.size() > 2) {
        Result<uint64_t> length_arg = message.ArgU64(2);
        if (!length_arg.ok()) {
          return Error(InvalidArgument("read: length must be an integer"));
        }
        length = *length_arg;
      }
      if (offset > content->size()) {
        return Error(OutOfRange("read past end of file"));
      }
      length = std::min<uint64_t>(length, content->size() - offset);
      // Typed read reply: one u64 length slot + the data block. The data
      // is a SLICE of the backing store — zero bytes copied; the slice
      // holds a reference, so an unlink or COW write cannot yank the
      // buffer out from under the caller.
      IpcReply reply = IpcReply::Ok().AddU64(length);
      reply.data = Payload::Slice(content, static_cast<size_t>(offset),
                                  static_cast<size_t>(length));
      return reply;
    }
    // write
    uint64_t offset = content->size();
    if (message.args.size() > 1) {
      Result<uint64_t> offset_arg = message.ArgU64(1);
      if (!offset_arg.ok()) {
        return Error(InvalidArgument("write: offset must be an integer"));
      }
      offset = *offset_arg;
    }
    if (offset > content->size()) {
      return Error(OutOfRange("write past end of file"));
    }
    // Copy-on-write: outstanding read slices pin the old buffer; a write
    // clones it first so they keep the exact content they sliced.
    if (content.use_count() > 1) {
      content = std::make_shared<Bytes>(*content);
    }
    if (offset + message.data.size() > content->size()) {
      content->resize(offset + message.data.size());
    }
    std::copy(message.data.begin(), message.data.end(),
              content->begin() + static_cast<ptrdiff_t>(offset));
    return IpcReply::Ok().AddU64(message.data.size());
  }

  if (op == kUnlinkOp) {
    Result<std::string_view> path_arg = message.ArgString(0);
    if (!path_arg.ok()) {
      return Error(InvalidArgument("unlink needs a path"));
    }
    std::string_view path = *path_arg;
    Result<ObjectId> object = FileObject(context.caller, path);
    if (!object.ok()) {
      return Error(object.status());
    }
    Status authorized = Authorized(pre, AuthzRequest{context.caller, kUnlinkOp, *object});
    if (!authorized.ok()) {
      return Error(authorized);
    }
    auto it = files_.find(path);
    if (it == files_.end()) {
      return NoSuchFile(message, 0);
    }
    files_.erase(it);  // Outstanding read slices keep their reference.
    return IpcReply::Ok();
  }

  if (op == kStatOp) {
    Result<std::string_view> path_arg = message.ArgString(0);
    if (!path_arg.ok()) {
      return Error(InvalidArgument("stat needs a path"));
    }
    auto it = files_.find(*path_arg);  // Transparent: no key string built.
    if (it == files_.end()) {
      return NoSuchFile(message, 0);
    }
    return IpcReply::Ok().AddU64(it->second->size());
  }

  return Error(
      InvalidArgument("unknown filesystem operation: " + std::string(message.operation())));
}

}  // namespace nexus::kernel

#include "apps/fauxbook.h"

#include <algorithm>

namespace nexus::apps {

// ---------------------------------------------------------------- Sandbox

bool PythonSandbox::IsReflectionCall(const std::string& call) {
  return call.rfind("getattr", 0) == 0 || call.rfind("eval", 0) == 0 ||
         call.rfind("__import__", 0) == 0 || call.rfind("exec", 0) == 0;
}

Status PythonSandbox::CheckImports(const TenantModule& module) const {
  for (const std::string& import : module.imports) {
    if (!import_whitelist_.contains(import)) {
      return PermissionDenied("tenant module '" + module.name + "' imports '" + import +
                              "', which is outside the sandbox whitelist");
    }
  }
  return OkStatus();
}

TenantModule PythonSandbox::RewriteReflection(const TenantModule& module) const {
  TenantModule out = module;
  for (std::string& call : out.calls) {
    if (IsReflectionCall(call)) {
      call = "safe_" + call;  // Constrained form cannot reach __import__.
    }
  }
  return out;
}

Result<TenantModule> PythonSandbox::Load(const TenantModule& module, core::Engine* engine,
                                         kernel::ProcessId loader) const {
  NEXUS_RETURN_IF_ERROR(CheckImports(module));
  TenantModule rewritten = RewriteReflection(module);
  // Post-conditions of the two labeling functions, as labels.
  auto say = [&](const std::string& pred) {
    return engine->SayFormula(
        loader, nal::FormulaNode::Pred(pred, {nal::Term::Symbol(module.name)}));
  };
  Result<core::LabelHandle> l1 = say("isLegalPython");
  if (!l1.ok()) {
    return l1.status();
  }
  Result<core::LabelHandle> l2 = say("importsConstrained");
  if (!l2.ok()) {
    return l2.status();
  }
  Result<core::LabelHandle> l3 = say("reflectionRewritten");
  if (!l3.ok()) {
    return l3.status();
  }
  return rewritten;
}

nal::Principal UserPrincipal(const nal::Principal& webserver, const std::string& user) {
  return webserver.Sub("user").Sub(user);
}

// -------------------------------------------------------------- Fauxbook

Fauxbook::Fauxbook(core::Nexus* nexus) : Fauxbook(nexus, Config{}) {}

Fauxbook::Fauxbook(core::Nexus* nexus, const Config& config)
    : nexus_(nexus), config_(config), sandbox_(config.import_whitelist) {
  kernel::Kernel& k = nexus_->kernel();

  // The three tiers plus the tenant IPD.
  driver_ = *nexus_->CreateProcess("netdriver", ToBytes("nexus-e1000-driver"));
  webserver_ = *nexus_->CreateProcess("webserver", ToBytes("lighttpd-1.4"));
  framework_ = *nexus_->CreateProcess("webframework", ToBytes("python-framework"));
  tenant_pid_ = *nexus_->CreateProcess("fauxbook-app", ToBytes("fauxbook-tenant-code"),
                                       framework_);

  driver_port_ = *nexus_->CreatePort(driver_);
  webserver_port_ = *nexus_->CreatePort(webserver_);

  // Channel topology: driver <-> webserver <-> framework. The driver has no
  // channel to the filesystem — the analyzer can attest that.
  k.ConnectPort(webserver_, driver_port_);
  k.ConnectPort(driver_, webserver_port_);
  k.ConnectPort(framework_, webserver_port_);

  // DDRM on the driver: DMA and packet ops only, no page-content access,
  // IPC restricted to the web server (synthetic trust, §4.1).
  services::DdrmPolicy policy;
  policy.allowed_operations = {"dma_setup", "send", "recv", "interrupt_ack", "ipc_send"};
  policy.allow_page_content_access = false;
  policy.allowed_ipc_targets = {webserver_port_};
  driver_monitor_ = std::make_unique<services::DeviceDriverMonitor>(policy);
  kernel::ProcessId monitor_pid = *nexus_->CreateProcess("ddrm", ToBytes("nexus-ddrm"));
  k.Interpose(monitor_pid, driver_port_, driver_monitor_.get());
  driver_monitor_->AttestDriver(&nexus_->engine(), monitor_pid, driver_);

  // The web server relinquishes everything but IPC/polling after init.
  k.RestrictSyscalls(webserver_, {kernel::Syscall::kNull, kernel::Syscall::kYield,
                                  kernel::Syscall::kIpcCall, kernel::Syscall::kGetTimeOfDay,
                                  kernel::Syscall::kOpen, kernel::Syscall::kClose,
                                  kernel::Syscall::kRead, kernel::Syscall::kWrite});

  // Cobuf flows follow the social graph: recipient may absorb source's data
  // iff source authorized recipient as a friend.
  cobufs_ = std::make_unique<services::CobufManager>(
      [this](const nal::Principal& recipient, const nal::Principal& source) {
        // Principals are name.webserver.user.<name>; compare the leaf.
        if (recipient.path().empty() || source.path().empty()) {
          return false;
        }
        const std::string& r = recipient.path().back();
        const std::string& s = source.path().back();
        return AreFriends(s, r);
      });

  // Tenants scheduled under the proportional-share scheduler.
  k.scheduler().AddClient(framework_, 1);
}

Status Fauxbook::AddUser(const std::string& name) {
  if (users_.contains(name)) {
    return AlreadyExists("user exists: " + name);
  }
  User user;
  user.principal = UserPrincipal(nexus_->kernel().ProcessPrincipal(webserver_), name);
  users_[name] = std::move(user);
  return OkStatus();
}

Status Fauxbook::AddFriend(const std::string& user, const std::string& friend_name) {
  auto owner = users_.find(user);
  if (owner == users_.end() || !users_.contains(friend_name)) {
    return NotFound("no such user");
  }
  owner->second.friends.insert(friend_name);
  // The authentication library records the edge as a scoped delegation:
  //   <user> says <friend> speaksfor <user> on feed.
  nexus_->engine().SayAs(
      owner->second.principal,
      nal::FormulaNode::SpeaksFor(users_.at(friend_name).principal, owner->second.principal,
                                  "feed"));
  return OkStatus();
}

bool Fauxbook::AreFriends(const std::string& owner, const std::string& reader) const {
  auto it = users_.find(owner);
  return it != users_.end() && it->second.friends.contains(reader);
}

Status Fauxbook::PostStatus(const std::string& user, const std::string& text) {
  auto it = users_.find(user);
  if (it == users_.end()) {
    return NotFound("no such user");
  }
  // The web server attaches the authenticated session owner; tenant code
  // receives only the cobuf id.
  services::CobufId post = cobufs_->CreateOwned(it->second.principal, ToBytes(text));
  it->second.posts.push_back(post);
  return OkStatus();
}

Result<std::vector<std::string>> Fauxbook::ReadFeed(const std::string& viewer) {
  auto viewer_it = users_.find(viewer);
  if (viewer_it == users_.end()) {
    return NotFound("no such user");
  }
  // --- Tenant code: assemble the feed as cobuf operations only.
  TenantDataApi api(cobufs_.get());
  services::CobufId feed = cobufs_->CreateOwned(viewer_it->second.principal, {});
  std::vector<std::pair<services::CobufId, size_t>> offsets;
  for (const auto& [name, user] : users_) {
    for (services::CobufId post : user.posts) {
      // Collation succeeds only along authorized edges (or self).
      services::CobufId separator = cobufs_->CreateOwned(viewer_it->second.principal,
                                                         ToBytes("\n"));
      if (api.Append(feed, post).ok()) {
        api.Append(feed, separator);
      }
      cobufs_->Destroy(separator);
    }
  }
  // --- Web server: extraction under the viewer's session principal.
  Result<Bytes> rendered = cobufs_->Extract(feed, viewer_it->second.principal);
  cobufs_->Destroy(feed);
  if (!rendered.ok()) {
    return rendered.status();
  }
  std::vector<std::string> out;
  std::string blob = ToString(*rendered);
  size_t start = 0;
  while (start < blob.size()) {
    size_t end = blob.find('\n', start);
    if (end == std::string::npos) {
      end = blob.size();
    }
    if (end > start) {
      out.push_back(blob.substr(start, end - start));
    }
    start = end + 1;
  }
  return out;
}

Result<Bytes> Fauxbook::DeveloperPeek(const std::string& user) {
  auto it = users_.find(user);
  if (it == users_.end()) {
    return NotFound("no such user");
  }
  if (it->second.posts.empty()) {
    return NotFound("no posts");
  }
  // The developer's code runs as the tenant; it holds no session principal
  // for the user, only its own identity.
  nal::Principal developer =
      nexus_->kernel().ProcessPrincipal(tenant_pid_);
  return cobufs_->Extract(it->second.posts.front(), developer);
}

Status Fauxbook::DeveloperForgeFriend(const std::string& user, const std::string& impostor) {
  // Tenant code has no path to the authentication library: the only edge-
  // creating API validates that the session principal matches `user`, and
  // the tenant's session is its own. Model: reject non-self-initiated
  // edges.
  if (!users_.contains(user) || !users_.contains(impostor)) {
    return NotFound("no such user");
  }
  return PermissionDenied("friend edges require the owner's authenticated session; tenant "
                          "code cannot forge cobuf ownership (owner ids are attached in the "
                          "web server layer)");
}

Status Fauxbook::TenantExfiltrate(const std::string& victim, const std::string& attacker) {
  auto victim_it = users_.find(victim);
  auto attacker_it = users_.find(attacker);
  if (victim_it == users_.end() || attacker_it == users_.end()) {
    return NotFound("no such user");
  }
  if (victim_it->second.posts.empty()) {
    return NotFound("no posts");
  }
  TenantDataApi api(cobufs_.get());
  services::CobufId sink = cobufs_->CreateOwned(attacker_it->second.principal, {});
  Status flowed = api.Append(sink, victim_it->second.posts.front());
  cobufs_->Destroy(sink);
  return flowed;
}

Status Fauxbook::SetTenantWeight(const std::string& tenant, uint32_t weight) {
  tenant_weights_[tenant] = weight;
  kernel::Kernel& k = nexus_->kernel();
  // Tenants share the framework process in this model; per-tenant weights
  // are tracked in the scheduler via the framework's weight plus exported
  // introspection nodes (readable only by that tenant, per goal formulas).
  Status s = k.scheduler().SetWeight(framework_, weight);
  k.procfs().PublishValue(framework_, "/proc/tenant/" + tenant + "/weight",
                          std::to_string(weight));
  return s;
}

Result<core::LabelHandle> Fauxbook::AttestCpuShare(const std::string& tenant,
                                                   int min_percent) {
  kernel::Kernel& k = nexus_->kernel();
  Result<std::string> weight_str = k.procfs().Read("/proc/tenant/" + tenant + "/weight");
  if (!weight_str.ok()) {
    return weight_str.status();
  }
  uint32_t weight = static_cast<uint32_t>(std::stoul(*weight_str));
  uint64_t total = 0;
  for (kernel::ProcessId pid : k.scheduler().Clients()) {
    total += k.scheduler().Weight(pid);
  }
  if (total == 0 || weight * 100 < static_cast<uint64_t>(min_percent) * total) {
    return FailedPrecondition("scheduler state does not support a " +
                              std::to_string(min_percent) + "% share for tenant " + tenant);
  }
  // The labeling function vouches from live allocator state (§4.1).
  return nexus_->engine().SayFormula(
      framework_,
      nal::FormulaNode::Compare(nal::CompareOp::kGe,
                                nal::Term::Symbol("cpuShare:" + tenant),
                                nal::Term::Int(min_percent)));
}

Result<Bytes> Fauxbook::ServeStatic(const std::string& path) {
  kernel::Kernel& k = nexus_->kernel();
  // driver -> webserver: the request arrives as a packet (typed v2
  // message; the op id is hoisted, the path is a string slot).
  static const kernel::OpId recv_op = kernel::InternOp("recv");
  kernel::IpcMessage packet = kernel::IpcMessage::Of(recv_op);
  packet.AddString(path);
  kernel::IpcReply from_driver = k.Call(webserver_, driver_port_, packet);
  (void)from_driver;  // The driver port may have no handler in benches.

  // webserver -> filesystem via file syscalls. The fd travels as an
  // integer slot: no std::to_string / re-parse on the read/close path.
  kernel::IpcMessage open_msg;
  open_msg.AddString(path);
  kernel::IpcReply open =
      k.Call(webserver_, kernel::SyscallIpcPort(kernel::Syscall::kOpen), open_msg);
  if (!open.status.ok()) {
    return open.status;
  }
  Result<uint64_t> fd = open.ArgU64(0);
  if (!fd.ok()) {
    return fd.status();
  }
  kernel::IpcMessage fd_msg;
  fd_msg.AddU64(*fd);
  kernel::IpcReply read =
      k.Call(webserver_, kernel::SyscallIpcPort(kernel::Syscall::kRead), fd_msg);
  k.Call(webserver_, kernel::SyscallIpcPort(kernel::Syscall::kClose), fd_msg);
  if (!read.status.ok()) {
    return read.status;
  }
  return read.data.ToOwned();
}

Result<Bytes> Fauxbook::ServeDynamic(const std::string& viewer) {
  Result<std::vector<std::string>> feed = ReadFeed(viewer);
  if (!feed.ok()) {
    return feed.status();
  }
  // Render: framework dispatch + HTML-ish assembly.
  Bytes page = ToBytes("<html><body>");
  for (const std::string& item : *feed) {
    Append(page, ToBytes("<p>" + item + "</p>"));
  }
  Append(page, ToBytes("</body></html>"));
  return page;
}

Status Fauxbook::LoadTenantCode(const TenantModule& module) {
  Result<TenantModule> loaded = sandbox_.Load(module, &nexus_->engine(), framework_);
  return loaded.status();
}

}  // namespace nexus::apps

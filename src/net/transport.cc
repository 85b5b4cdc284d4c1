#include "net/transport.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace nexus::net {

namespace {

std::pair<NodeId, NodeId> OrderedPair(const NodeId& a, const NodeId& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

Transport::Transport(uint64_t seed) : rng_(seed) {}

Status Transport::Attach(const NodeId& node, Endpoint* endpoint) {
  if (endpoint == nullptr) {
    return InvalidArgument("null endpoint");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = endpoints_.emplace(node, endpoint);
  if (!inserted) {
    return AlreadyExists("node already attached: " + node);
  }
  (void)it;
  return OkStatus();
}

void Transport::Detach(const NodeId& node) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_.erase(node);
}

void Transport::SetLink(const NodeId& a, const NodeId& b, const LinkConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  links_[OrderedPair(a, b)] = config;
}

const LinkConfig& Transport::LinkForLocked(const NodeId& a, const NodeId& b) const {
  auto it = links_.find(OrderedPair(a, b));
  return it == links_.end() ? default_link_ : it->second;
}

uint64_t Transport::AllocateChannelId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_channel_id_++;
}

uint64_t Transport::now_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_us_;
}

void Transport::ArmPumpGate(size_t queued_messages) {
  std::lock_guard<std::mutex> lock(mu_);
  gate_queued_messages_ = queued_messages;
}

Status Transport::Send(Message message) {
  std::lock_guard<std::mutex> lock(mu_);
  if (endpoints_.find(message.to) == endpoints_.end()) {
    return NotFound("no endpoint attached at " + message.to);
  }
  const LinkConfig& link = LinkForLocked(message.from, message.to);
  stats_.sent->Increment();
  stats_.bytes_carried->Increment(message.payload.size());
  if (rng_.NextBool(link.drop_rate)) {
    stats_.dropped->Increment();
    return OkStatus();  // Loss is invisible to the sender.
  }
  Pending pending;
  pending.deliver_at = now_us_ + link.latency_us;
  pending.seq = send_seq_++;
  pending.message = std::move(message);
  queue_.push_back(std::move(pending));
  std::push_heap(queue_.begin(), queue_.end(), std::greater<Pending>());
  gate_cv_.notify_all();
  return OkStatus();
}

size_t Transport::DeliverAll(size_t max_steps) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (gate_queued_messages_ > 0) {
      gate_cv_.wait(lock, [this] {
        return gate_queued_messages_ == 0 || queue_.size() >= gate_queued_messages_;
      });
      gate_queued_messages_ = 0;  // One-shot: disarm and release other waiters.
      gate_cv_.notify_all();
    }
  }
  // One thread plays the fabric at a time; a second pumper waits here and
  // then typically finds the queue already drained.
  std::lock_guard<std::mutex> pump(pump_mu_);
  size_t delivered = 0;
  while (delivered < max_steps) {
    Message message;
    Endpoint* endpoint = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) {
        break;
      }
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<Pending>());
      Pending next = std::move(queue_.back());
      queue_.pop_back();
      if (next.deliver_at > now_us_) {
        now_us_ = next.deliver_at;
      }
      auto it = endpoints_.find(next.message.to);
      if (it == endpoints_.end()) {
        continue;  // Endpoint detached while the message was in flight.
      }
      stats_.delivered->Increment();
      ++delivered;
      endpoint = it->second;
      message = std::move(next.message);
    }
    // The handler runs outside mu_ (it may Send, which takes mu_), but
    // under pump_mu_ — handlers never overlap each other.
    endpoint->OnMessage(message);
  }
  return delivered;
}

}  // namespace nexus::net

#include "apps/bgp_verifier.h"

namespace nexus::apps {

void BgpVerifier::OnInbound(const BgpMessage& message) {
  if (message.type != BgpMessage::Type::kAdvertise) {
    return;
  }
  auto [it, inserted] = best_received_.emplace(message.prefix, message.as_path.size());
  if (!inserted) {
    it->second = std::min(it->second, message.as_path.size());
  }
}

size_t BgpVerifier::ShortestReceived(const std::string& prefix) const {
  auto it = best_received_.find(prefix);
  return it == best_received_.end() ? SIZE_MAX : it->second;
}

Status BgpVerifier::CheckOutbound(const BgpMessage& message) {
  auto blocked = [this](const std::string& why) {
    blocked_->Increment();
    return PermissionDenied(why);
  };

  if (message.type == BgpMessage::Type::kWithdraw) {
    if (!advertised_.contains(message.prefix)) {
      return blocked("withdrawal for a route never advertised: " + message.prefix);
    }
    advertised_.erase(message.prefix);
    passed_->Increment();
    return OkStatus();
  }

  // Advertisement rules.
  if (message.as_path.empty() || message.as_path.front() != self_as_) {
    return blocked("emitted AS path must begin with the speaker's own AS");
  }
  bool originated = message.as_path.size() == 1;
  if (originated) {
    if (!owned_prefixes_.contains(message.prefix)) {
      return blocked("false origination: speaker does not own " + message.prefix);
    }
  } else {
    size_t best = ShortestReceived(message.prefix);
    if (best == SIZE_MAX) {
      return blocked("route fabrication: no received route for " + message.prefix);
    }
    // Forwarding prepends our AS: the emitted path must be at least one
    // hop longer than the best path we received (n >= m + 1).
    if (message.as_path.size() < best + 1) {
      return blocked("route shortening: emitted " + std::to_string(message.as_path.size()) +
                     "-hop path but best received is " + std::to_string(best) + " hops");
    }
  }
  advertised_.insert(message.prefix);
  passed_->Increment();
  return OkStatus();
}

}  // namespace nexus::apps

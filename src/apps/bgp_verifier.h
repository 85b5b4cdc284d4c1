// The BGP protocol verifier (§4): synthetic trust for a network protocol.
//
// Rather than attesting every BGP speaker's binary (axiomatic, hopeless
// given legacy routers), a verifier proxies a legacy speaker's sessions and
// enforces minimal safety rules on what the speaker *emits*:
//   - no route fabrication: an advertisement's AS path cannot be shorter
//     than the best path the speaker itself received for that prefix
//     (n >= m), except for prefixes the speaker originates;
//   - no false origination: only owned prefixes may be originated;
//   - the speaker's own AS must appear at the head of emitted paths;
//   - withdrawals only for routes actually advertised.
#ifndef NEXUS_APPS_BGP_VERIFIER_H_
#define NEXUS_APPS_BGP_VERIFIER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/status.h"

namespace nexus::apps {

using AsNumber = uint32_t;

struct BgpMessage {
  enum class Type : uint8_t { kAdvertise, kWithdraw };
  Type type = Type::kAdvertise;
  std::string prefix;             // e.g. "10.1.0.0/16".
  std::vector<AsNumber> as_path;  // Head = most recent AS.
};

class BgpVerifier {
 public:
  // `self_as` is the monitored speaker's AS; `owned_prefixes` are the
  // prefixes it may originate.
  BgpVerifier(AsNumber self_as, std::set<std::string> owned_prefixes)
      : self_as_(self_as), owned_prefixes_(std::move(owned_prefixes)) {}

  // An inbound message from a peer (recorded; always forwarded).
  void OnInbound(const BgpMessage& message);

  // An outbound message the legacy speaker wants to emit. OK = forward;
  // PERMISSION_DENIED = blocked with the violated rule in the message.
  Status CheckOutbound(const BgpMessage& message);

  // Shortest received AS-path length for a prefix (SIZE_MAX if none).
  size_t ShortestReceived(const std::string& prefix) const;

  // "bgp_verifier.*" counters; a fresh verifier reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  AsNumber self_as_;
  std::set<std::string> owned_prefixes_;
  std::map<std::string, size_t> best_received_;  // prefix -> min path length.
  std::set<std::string> advertised_;             // prefixes we forwarded out.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "bgp_verifier"};
  metrics::Counter* passed_ = metrics_.NewCounter("passed");
  metrics::Counter* blocked_ = metrics_.NewCounter("blocked");
};

}  // namespace nexus::apps

#endif  // NEXUS_APPS_BGP_VERIFIER_H_

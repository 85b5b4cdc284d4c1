// The simulated inter-instance message fabric.
//
// Distributed attestation (§2.4) needs credentials and authority queries to
// travel between Nexus instances. The transport models that fabric
// in-process: named nodes attach endpoints, links carry per-direction
// latency and a drop probability, and delivery runs on a simulated
// microsecond clock so tests exercise reordering, loss, and timeout paths
// deterministically (the Rng is seeded). Nothing here is trusted — every
// security property of a channel comes from the attestation handshake one
// layer up (channel.h), never from the fabric.
//
// Threading: the fabric is safe for concurrent senders and pumpers, which
// is what lets independent authorization misses overlap their remote round
// trips end to end. Queue and clock live under one mutex; DELIVERY is
// serialized by a second mutex held for a whole DeliverAll pass, so
// endpoint handlers never run concurrently with each other (they may Send
// from inside OnMessage, which only needs the state mutex). A thread whose
// message was delivered by another thread's pump simply finds the fabric
// quiet. The simulated clock advances under the state mutex, exactly once
// per queued delivery — concurrent round trips issued before any pump cost
// max(latency), not sum(latency), the property the overlap tests assert.
#ifndef NEXUS_NET_TRANSPORT_H_
#define NEXUS_NET_TRANSPORT_H_

#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"

namespace nexus::net {

using NodeId = std::string;

struct LinkConfig {
  uint64_t latency_us = 50;  // One-way delivery delay on the simulated clock.
  double drop_rate = 0.0;    // Probability a message silently vanishes.
};

struct Message {
  NodeId from;
  NodeId to;
  uint64_t channel = 0;  // Conversation id allocated by AllocateChannelId().
  std::string kind;      // "hello", "hello_ack", "auth", "data", ...
  Bytes payload;
};

// A node's receive hook. Handlers may send further messages from inside
// OnMessage; those are queued and delivered in the same pump. Handlers are
// never invoked concurrently (the pump lock serializes delivery).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void OnMessage(const Message& message) = 0;
};

class Transport {
 public:
  explicit Transport(uint64_t seed = 7);

  Status Attach(const NodeId& node, Endpoint* endpoint);
  void Detach(const NodeId& node);

  // Configures both directions of the (a, b) link. Unconfigured links use
  // LinkConfig{}. Configure topology before concurrent traffic starts.
  void SetLink(const NodeId& a, const NodeId& b, const LinkConfig& config);

  // Queues a message for delivery at now + link latency (or drops it). An
  // unknown destination is an error; a drop is not — the sender cannot
  // observe loss except through missing replies. Thread-safe.
  Status Send(Message message);

  // Delivers queued messages in timestamp order, advancing the simulated
  // clock to each delivery time, until the fabric is quiet (or `max_steps`
  // deliveries, a runaway guard). Returns the number delivered. Thread-safe;
  // concurrent callers serialize, and a caller that arrives second may find
  // its traffic already delivered by the first.
  size_t DeliverAll(size_t max_steps = 100000);

  // Test rendezvous: the next DeliverAll call(s) block until at least
  // `queued_messages` messages sit in the fabric, then the gate disarms.
  // This pins down the racy window overlap tests care about — N threads
  // each Send one request and pump; no request is delivered (and the clock
  // does not move) until all N are in flight, so the round trips provably
  // share the same latency window. One-shot; never used outside tests.
  void ArmPumpGate(size_t queued_messages);

  // Globally unique conversation ids for channels. Thread-safe.
  uint64_t AllocateChannelId();

  uint64_t now_us() const;
  // "transport.*" counters; reads are lock-free relaxed loads.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  struct Pending {
    uint64_t deliver_at = 0;
    uint64_t seq = 0;  // FIFO tie-break for equal timestamps.
    Message message;
    bool operator>(const Pending& other) const {
      return deliver_at != other.deliver_at ? deliver_at > other.deliver_at
                                            : seq > other.seq;
    }
  };

  // Caller holds mu_.
  const LinkConfig& LinkForLocked(const NodeId& a, const NodeId& b) const;

  // Queue, clock, topology, rng, gate. Never held while an endpoint
  // handler runs.
  mutable std::mutex mu_;
  std::condition_variable gate_cv_;
  // Serializes whole DeliverAll passes: exactly one thread plays "the
  // fabric" at a time, so endpoint handlers never overlap.
  std::mutex pump_mu_;

  std::map<NodeId, Endpoint*> endpoints_;
  std::map<std::pair<NodeId, NodeId>, LinkConfig> links_;
  LinkConfig default_link_;
  // A min-heap on (deliver_at, seq) under std::greater, kept by hand with
  // push_heap/pop_heap so delivery can move the earliest entry out.
  std::vector<Pending> queue_;
  size_t gate_queued_messages_ = 0;  // 0 = disarmed.
  uint64_t send_seq_ = 0;
  uint64_t next_channel_id_ = 1;
  uint64_t now_us_ = 0;
  Rng rng_;

  // Registry instruments ("transport.*"), incremented inside the existing
  // mu_ regions.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "transport"};
  struct {
    metrics::Counter* sent;
    metrics::Counter* delivered;
    metrics::Counter* dropped;
    metrics::Counter* bytes_carried;
  } stats_{metrics_.NewCounter("sent"), metrics_.NewCounter("delivered"),
           metrics_.NewCounter("dropped"), metrics_.NewCounter("bytes_carried")};
};

}  // namespace nexus::net

#endif  // NEXUS_NET_TRANSPORT_H_

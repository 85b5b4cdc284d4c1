// Remote authorities: dynamic-state queries across instances (§2.7).
//
// Authority answers are untransferable by design — they may not be cached,
// stored, or forwarded. That property survives the network: a
// RemoteAuthority forwards each query over an attested channel to an
// AuthorityService on the instance where the dynamic state lives, consumes
// the fresh yes/no, and DENIES whenever the answer is missing or late. The
// proof checker already marks proofs with authority leaves uncacheable, so
// every guard evaluation re-crosses the channel.
//
// Every query uses one wire message: N statements travel in one attested
// round trip and come back as N independent fresh answers, and a single
// query is a batch of one. Batching changes the transport economics, not
// the trust model — each answer is still consumed exactly once, by the
// decision that asked. The deadline is the caller's: the guard passes its
// `remote_query_timeout_us` on every consultation.
#ifndef NEXUS_NET_REMOTE_AUTHORITY_H_
#define NEXUS_NET_REMOTE_AUTHORITY_H_

#include <functional>
#include <string>
#include <vector>

#include "core/authority.h"
#include "net/node.h"
#include "util/metrics.h"

namespace nexus::net {

// Server side: exposes local authorities to peers as the "authority"
// service (length-prefixed statement list -> one verdict byte per
// statement). Unhandled or erroring queries answer deny — never "ask
// someone else".
class AuthorityService : public Service {
 public:
  static constexpr std::string_view kServiceName = "authority";

  explicit AuthorityService(NetNode* node);

  void AddAuthority(core::LocalAuthority* authority) { authorities_.push_back(authority); }

  Result<Bytes> Handle(AttestedChannel& channel, ByteView request) override;

  // "authority_service.*" counters; a fresh service reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  bool Evaluate(const nal::Formula& statement);

  NetNode* node_;
  std::vector<core::LocalAuthority*> authorities_;
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "authority_service"};
  // Individual statements evaluated (batch requests count each statement).
  metrics::Counter* queries_served_ = metrics_.NewCounter("queries_served");
  // Wire-level batch requests handled.
  metrics::Counter* batches_served_ = metrics_.NewCounter("batches_served");
};

// Client side: a core::Authority whose truth lives on a peer instance.
// Register with Guard::AddRemoteAuthority so the guard's deadline applies.
// Thread-safe once its channel is established: concurrent worker threads
// may query it while their round trips overlap on the shared fabric
// (counters are relaxed-atomic registry instruments, read through
// metrics()).
class RemoteAuthority : public core::Authority {
 public:
  using HandlesPredicate = std::function<bool(const nal::Formula&)>;

  // `handles` scopes which statements this authority forwards (nullptr =
  // all).
  RemoteAuthority(NetNode* node, NodeId peer, HandlesPredicate handles = nullptr);

  bool Handles(const nal::Formula& statement) const override;
  // N statements, ONE attested round trip: the wire message goes out NOW
  // and the reply is collected at Wait(), so the caller overlaps this round
  // trip with others and with local proof checking. A lost or late reply
  // denies all of them (fail closed) and reads as unresponsive, which is
  // what QuorumAuthority aggregates: a dead peer is skipped and backed off,
  // a responsive deny is a real no-vote.
  core::VouchFuture Vouch(std::span<const nal::Formula> statements,
                          uint64_t timeout_us) override;

  // "remote_authority.*" counters; a fresh authority reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  NetNode* node_;
  NodeId peer_;
  HandlesPredicate handles_;
  // Registry instruments ("remote_authority.*"): relaxed-atomic tallies,
  // read per instance through metrics() and aggregated across instances by
  // the registry.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "remote_authority"};
  struct {
    metrics::Counter* queries;  // Statements asked (batched or not).
    metrics::Counter* vouched;
    metrics::Counter* denied;  // The peer answered: deny (incl. malformed replies).
    // Never got a request in flight (no channel: untrusted peer, handshake
    // failure, send failure).
    metrics::Counter* denied_unreachable;
    // Request went out; the reply was lost or landed past the deadline.
    metrics::Counter* denied_timeout;
    // Vouch wire calls issued (a single query is a round trip of one).
    metrics::Counter* batch_round_trips;
  } stats_{metrics_.NewCounter("queries"), metrics_.NewCounter("vouched"),
           metrics_.NewCounter("denied"), metrics_.NewCounter("denied_unreachable"),
           metrics_.NewCounter("denied_timeout"), metrics_.NewCounter("batch_round_trips")};
};

}  // namespace nexus::net

#endif  // NEXUS_NET_REMOTE_AUTHORITY_H_

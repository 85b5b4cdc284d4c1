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

  // Individual statements evaluated (batch requests count each statement).
  uint64_t queries_served() const { return queries_served_; }
  // Wire-level batch requests handled.
  uint64_t batches_served() const { return batches_served_; }

 private:
  bool Evaluate(const nal::Formula& statement);

  NetNode* node_;
  std::vector<core::LocalAuthority*> authorities_;
  uint64_t queries_served_ = 0;
  uint64_t batches_served_ = 0;
};

// Client side: a core::Authority whose truth lives on a peer instance.
// Register with Guard::AddRemoteAuthority so the guard's deadline applies.
// Thread-safe once its channel is established: concurrent worker threads
// may query it while their round trips overlap on the shared fabric
// (counters are atomics; stats() returns a snapshot).
class RemoteAuthority : public core::Authority {
 public:
  using HandlesPredicate = std::function<bool(const nal::Formula&)>;

  struct Stats {
    uint64_t queries = 0;  // Statements asked (batched or not).
    uint64_t vouched = 0;
    uint64_t denied = 0;              // The peer answered: deny (incl. malformed replies).
    uint64_t denied_unreachable = 0;  // Never got a request in flight (no
                                      // channel: untrusted peer, handshake
                                      // failure, send failure).
    uint64_t denied_timeout = 0;      // Request went out; the reply was lost
                                      // or landed past the deadline.
    uint64_t batch_round_trips = 0;   // Vouch wire calls issued (a single
                                      // query is a round trip of one).
  };

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

  Stats stats() const {
    return Stats{stats_.queries->Value(),
                 stats_.vouched->Value(),
                 stats_.denied->Value(),
                 stats_.denied_unreachable->Value(),
                 stats_.denied_timeout->Value(),
                 stats_.batch_round_trips->Value()};
  }

 private:
  NetNode* node_;
  NodeId peer_;
  HandlesPredicate handles_;
  // Registry instruments ("remote_authority.*"): relaxed-atomic tallies;
  // stats() snapshots them per instance, the registry aggregates across
  // instances.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "remote_authority"};
  struct {
    metrics::Counter* queries;
    metrics::Counter* vouched;
    metrics::Counter* denied;
    metrics::Counter* denied_unreachable;
    metrics::Counter* denied_timeout;
    metrics::Counter* batch_round_trips;
  } stats_{metrics_.NewCounter("queries"), metrics_.NewCounter("vouched"),
           metrics_.NewCounter("denied"), metrics_.NewCounter("denied_unreachable"),
           metrics_.NewCounter("denied_timeout"), metrics_.NewCounter("batch_round_trips")};
};

}  // namespace nexus::net

#endif  // NEXUS_NET_REMOTE_AUTHORITY_H_

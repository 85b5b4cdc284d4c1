// Cross-node decision-cache invalidation (epoch-stamped).
//
// A setgoal/setproof on node A retires A's cached verdicts through
// DecisionCache::InvalidateSubregion — but node B may hold cached verdicts
// for the same (op, obj) pair, installed while B's guard consulted A's
// authorities. The propagator closes that hole: A's kernel invalidation
// sink hands every local invalidation to Broadcast(), which stamps it with
// a per-origin monotonic EPOCH and ships (origin, epoch, op, obj) to every
// mesh peer over the attested channels; the receiving propagator applies
// InvalidateSubregion on ITS cache and — when observability is on — stamps
// the exact post-bump generations into the mutation log (kind
// remote_invalidate) plus a flight-recorder event, which is what lets
// TraceAuditor flag a remote verdict served past its invalidation.
//
// Semantics under loss/duplication/reordering:
//   - duplicate delivery: a per-origin replay window makes the re-apply an
//     exact no-op (no second generation bump);
//   - reordered delivery: distinct epochs all apply — invalidation is a
//     bump, not a value write, so order does not matter;
//   - dropped delivery: a bounded outbound log is re-pushed by
//     ResendRecent() (anti-entropy), so a healed partition catches up.
// Invalidations are accepted only FIRST-HAND: the origin field must equal
// the delivering channel's attested peer, so no node can forge another's
// invalidations (fan-out is mesh-full, not relayed).
//
// Names travel, ids do not: OpId/ObjectId are intern-table handles, so the
// wire carries the op/object NAMES and the receiver re-interns them.
#ifndef NEXUS_NET_MESH_INVALIDATION_H_
#define NEXUS_NET_MESH_INVALIDATION_H_

#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "kernel/kernel.h"
#include "net/mesh/registry.h"
#include "net/node.h"
#include "util/metrics.h"
#include "util/replay_window.h"

namespace nexus::net::mesh {

class InvalidationPropagator : public Service {
 public:
  static constexpr std::string_view kServiceName = "mesh_inval";
  // Outbound records retained for ResendRecent().
  static constexpr size_t kResendLog = 1024;

  struct Options {
    // Stamp applied invalidations into the global MutationLog and
    // FlightRecorder. Enable on the node whose decision plane is being
    // audited; DISABLE on auxiliary instances sharing the process-global
    // observability plane, or their applies pollute the audited timeline.
    bool stamp_observability = true;
  };

  InvalidationPropagator(NetNode* node, MeshRegistry* registry, Options options);

  // Wires this node's kernel to Broadcast: every local goal/proof
  // invalidation fans out to the mesh. The sink applies nothing locally
  // (the kernel already bumped its own cache) and must stay installed no
  // longer than this propagator lives.
  void AttachKernel(kernel::Kernel* kernel);
  void DetachKernel(kernel::Kernel* kernel);

  // Fan out one invalidation (called by the kernel sink, or tests).
  void Broadcast(kernel::OpId op, kernel::ObjectId obj);

  // Re-push the retained outbound log to every reachable peer. Duplicates
  // are no-ops at the receiver, so this is safe to call repeatedly; it is
  // the heal-after-partition path. Returns messages sent.
  size_t ResendRecent();

  Result<Bytes> Handle(AttestedChannel& channel, ByteView request) override;

  // Highest epoch applied from `origin` (0 = none), for tests.
  uint64_t AppliedEpoch(const NodeId& origin) const;
  uint64_t local_epoch() const { return epoch_.load(std::memory_order_relaxed); }
  // "mesh.invalidation.*" counters; a fresh propagator reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  struct OutboundRecord {
    uint64_t epoch = 0;
    std::string op_name;
    std::string obj_name;
  };
  Bytes SerializeRecord(const OutboundRecord& record) const;
  size_t SendToPeers(const Bytes& payload);

  NetNode* node_;
  MeshRegistry* registry_;
  Options options_;
  std::atomic<uint64_t> epoch_{0};

  mutable std::mutex mu_;  // outbound_ and origins_.
  std::deque<OutboundRecord> outbound_;
  // Per-origin duplicate filter over epochs, the same one a channel keeps
  // over sequence numbers: exactly once within the last
  // ReplayWindow::kSpan (4096) epochs, a 512-byte bitmap per origin. An
  // older epoch is rejected outright. AppliedEpoch reads max_seen.
  std::map<NodeId, ReplayWindow> origins_;

  // Registry instruments ("mesh.invalidation.*"): relaxed atomics, so
  // tallying takes no lock.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "mesh.invalidation"};
  struct {
    metrics::Counter* broadcasts;  // Local invalidations fanned out.
    metrics::Counter* sends;       // Per-peer messages sent.
    metrics::Counter* applied;     // Remote invalidations applied here.
    metrics::Counter* duplicates;  // Replay-window no-ops.
    metrics::Counter* rejected;    // Malformed or forged-origin messages.
  } stats_{metrics_.NewCounter("broadcasts"), metrics_.NewCounter("sends"),
           metrics_.NewCounter("applied"), metrics_.NewCounter("duplicates"),
           metrics_.NewCounter("rejected")};
};

}  // namespace nexus::net::mesh

#endif  // NEXUS_NET_MESH_INVALIDATION_H_

// Mesh gossip: floods peer records and certificates over attested channels.
//
// Transitive trust, made explicit: the seed topology registers EKs out of
// band (the paper's §2.4 assumption) for ADJACENT nodes only; gossip then
// carries every node's (name, EK) record across the mesh, and a node
// accepts a record because it arrived over a channel whose endpoint it
// already attested. Certificates ride the same flood but are individually
// re-verified against the receiver's trust anchors before import — the
// channel authenticates the MESSENGER, VerifyCertificate authenticates the
// STATEMENT, and a certificate whose chain does not verify is dropped
// without entering the registry (so it is never re-gossiped: no poisoning).
//
// Delivery discipline: handlers run under the transport pump lock, which is
// NOT reentrant — a handler may Send but must never pump. Gossip therefore
// uses only the one-way SendSecure primitive from inside Handle (flood on
// news), and reserves Connect/anti-entropy rounds for PushState()/
// AntiEntropyRound(), which callers invoke from OUTSIDE the pump.
//
// Reordering tolerance: a certificate can arrive before the peer record
// that anchors its chain. Such certificates wait in a bounded pending set
// and are retried whenever new peer records land, so any delivery order of
// the same record set converges to the same registry.
#ifndef NEXUS_NET_MESH_GOSSIP_H_
#define NEXUS_NET_MESH_GOSSIP_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/mesh/registry.h"
#include "net/node.h"
#include "util/metrics.h"

namespace nexus::net::mesh {

class GossipService : public Service {
 public:
  static constexpr std::string_view kServiceName = "mesh_gossip";
  // A tampered certificate re-verifies false forever, so the pending set
  // must be bounded: past the cap the oldest pending entry is dropped (it
  // can re-arrive on a later anti-entropy round once its anchor is known).
  static constexpr size_t kMaxPendingCerts = 1024;

  // Registers itself on `node` under kServiceName and seeds the registry
  // with the node's own (id, EK) record. `import_pid` is the process whose
  // labelstore receives gossiped certificate statements.
  GossipService(NetNode* node, MeshRegistry* registry, kernel::ProcessId import_pid);

  Result<Bytes> Handle(AttestedChannel& channel, ByteView request) override;

  // Sends this node's full state to `peer` over the (established) channel,
  // one-way. Call from outside the pump; the caller pumps the transport.
  Status PushState(const NodeId& peer);

  // Pins `peer` as a standing anti-entropy target even before (or without)
  // its record entering the registry. Join pushes are one-way and lossy;
  // without this, a dropped join push severs the only link between two
  // registry partitions and no later round ever re-targets it — the mesh
  // wedges split. Seeds make the configured topology durable: every round
  // retries the seed link until the registries actually merge.
  void AddSeed(const NodeId& peer);

  // One anti-entropy round: push full state to every peer in the registry
  // with a usable channel (Connect()s as needed — never call from inside a
  // handler). Returns the number of pushes sent. Combined with the flood-
  // on-news in Handle, repeated rounds converge the mesh even after
  // partitions drop arbitrary subsets of messages.
  size_t AntiEntropyRound();

  // Queue a locally-minted certificate for propagation: imports it into
  // the local registry and floods it. Call from outside the pump.
  Status PublishCertificate(const Bytes& cert_bytes);

  size_t pending_certs() const;
  // "mesh.gossip.*" counters; a fresh service reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  // Serializes the registry's full state (wire: u32 peer count, records;
  // u32 cert count, length-prefixed certs).
  Bytes SerializeState() const;
  // Applies one gossip payload; returns how many records were NEW. `from`
  // names the delivering channel's peer (excluded from the re-flood). The
  // payload is decoded whole first: a malformed one, trailing bytes
  // included, applies nothing and counts as rejected.
  size_t ApplyState(ByteView payload, const NodeId& from);
  // Imports one peer record (registry + Nexus trust anchor), one cert.
  bool ApplyPeerRecord(const PeerRecord& record);
  bool ApplyCertificate(const Bytes& cert_bytes);
  // Re-attempts parked certificates (called after new peer records).
  size_t RetryPendingLocked();
  // SendSecure `payload` to every registry peer with an established
  // channel, except `skip`. Safe under the pump lock (send-only).
  size_t Flood(const Bytes& payload, const NodeId& skip);

  NetNode* node_;
  MeshRegistry* registry_;
  kernel::ProcessId import_pid_;

  mutable std::mutex mu_;  // pending_certs_ and seeds_.
  std::map<std::string, Bytes> pending_certs_;  // digest -> bytes
  std::vector<std::string> pending_order_;      // FIFO for the cap.
  std::vector<NodeId> seeds_;  // Standing anti-entropy targets (joins).

  // Registry instruments ("mesh.gossip.*"): relaxed atomics, so tallying
  // takes no lock.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "mesh.gossip"};
  struct {
    metrics::Counter* peers_imported;
    metrics::Counter* certs_imported;
    metrics::Counter* duplicates;      // Idempotent re-deliveries (peer or cert).
    metrics::Counter* rejected;        // Conflicting records, failed verification.
    metrics::Counter* pending_parked;  // Certs parked awaiting their trust anchor.
    metrics::Counter* floods_sent;     // SendSecure fan-outs triggered by news.
  } stats_{metrics_.NewCounter("peers_imported"), metrics_.NewCounter("certs_imported"),
           metrics_.NewCounter("duplicates"),     metrics_.NewCounter("rejected"),
           metrics_.NewCounter("pending_parked"), metrics_.NewCounter("floods_sent")};
};

}  // namespace nexus::net::mesh

#endif  // NEXUS_NET_MESH_GOSSIP_H_

// Convergent replicated mesh state: the peer registry and certificate
// store a federation gossips between instances.
//
// The design target is strong eventual consistency in the sense of the
// Gomes et al. formulation (PAPERS.md): both collections are state-based
// grow-only maps whose import operation is IDEMPOTENT (re-importing a
// record the replica already holds is a no-op) and COMMUTATIVE (the final
// state is independent of arrival order), so any two replicas that have
// received the same SET of records — in any order, with any duplication —
// hold byte-identical state. CanonicalSnapshot()/Digest() make that
// assertable: they serialize the state in a canonical (sorted) order, and
// the convergence tests compare snapshots byte for byte.
//
// Trust note: the registry is bookkeeping, not a trust decision. A peer
// record only becomes a trust anchor when the gossip layer forwards it to
// Nexus::RegisterPeer over an ATTESTED channel, and a certificate only
// enters the store after VerifyCertificate walked its chain to an already
// trusted EK (gossip.cc). A record that fails those checks never enters
// the registry, so it is never re-gossiped — a tampered record cannot
// poison neighbors through an honest node.
#ifndef NEXUS_NET_MESH_REGISTRY_H_
#define NEXUS_NET_MESH_REGISTRY_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "util/bytes.h"
#include "util/status.h"

namespace nexus::net::mesh {

// One gossiped peer identity: a node name bound to its serialized TPM
// endorsement public key (the out-of-band trust anchor of §2.4, now
// propagated in-band over channels that are themselves EK-rooted).
struct PeerRecord {
  NodeId name;
  Bytes ek;  // crypto::RsaPublicKey::Serialize() bytes.

  Bytes SerializeRecord() const;
  static Result<PeerRecord> DeserializeRecord(ByteView data);
};

class MeshRegistry {
 public:
  enum class Import : uint8_t {
    kNew,        // First sighting; the record was added.
    kDuplicate,  // Already held, byte-identical: idempotent no-op.
    kConflict,   // Same key, DIFFERENT bytes: rejected (first write pins).
  };

  // Both imports are thread-safe and follow the same convergence contract:
  // insert if absent, no-op if identical, reject if conflicting.
  Import ImportPeer(const PeerRecord& record);
  // Certificates are keyed by their content digest, so a conflict is
  // impossible by construction — every import is kNew or kDuplicate.
  Import ImportCertificate(const Bytes& cert_bytes);

  bool HasPeer(const NodeId& name) const;
  bool HasCertificate(const std::string& digest) const;
  std::vector<PeerRecord> Peers() const;
  std::vector<Bytes> Certificates() const;

  size_t peer_count() const;
  size_t cert_count() const;

  // Canonical serialization: peers in name order, certificates in digest
  // order, each length-prefixed. Two converged replicas produce EQUAL
  // byte strings — the convergence tests' oracle.
  Bytes CanonicalSnapshot() const;
  // Hex SHA-256 of CanonicalSnapshot(), for cheap N-way comparison.
  std::string Digest() const;

 private:
  mutable std::mutex mu_;
  std::map<NodeId, Bytes> peers_;       // name -> serialized EK
  std::map<std::string, Bytes> certs_;  // content digest -> certificate bytes
};

}  // namespace nexus::net::mesh

#endif  // NEXUS_NET_MESH_REGISTRY_H_

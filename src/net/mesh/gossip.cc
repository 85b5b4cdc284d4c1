#include "net/mesh/gossip.h"

#include "core/certificate.h"
#include "crypto/sha256.h"

namespace nexus::net::mesh {

GossipService::GossipService(NetNode* node, MeshRegistry* registry,
                             kernel::ProcessId import_pid)
    : node_(node), registry_(registry), import_pid_(import_pid) {
  node_->RegisterService(std::string(kServiceName), this);
  // Seed the replicated state with our own identity; every push therefore
  // carries it, which is how a freshly-joined node becomes mesh-wide known.
  registry_->ImportPeer(
      PeerRecord{node_->id(), node_->nexus().tpm().endorsement_public_key().Serialize()});
}

Bytes GossipService::SerializeState() const {
  Bytes out;
  std::vector<PeerRecord> peers = registry_->Peers();
  AppendU32(out, static_cast<uint32_t>(peers.size()));
  for (const PeerRecord& record : peers) {
    AppendLengthPrefixed(out, record.SerializeRecord());
  }
  std::vector<Bytes> certs = registry_->Certificates();
  AppendU32(out, static_cast<uint32_t>(certs.size()));
  for (const Bytes& cert : certs) {
    AppendLengthPrefixed(out, cert);
  }
  return out;
}

bool GossipService::ApplyPeerRecord(const PeerRecord& record) {
  Result<crypto::RsaPublicKey> ek = crypto::RsaPublicKey::Deserialize(record.ek);
  if (!ek.ok() || record.name.empty()) {
    stats_.rejected->Increment();
    return false;
  }
  // An out-of-band anchor for this name always wins: a gossiped record that
  // contradicts it is rejected BEFORE touching the registry, so registry
  // and kernel trust set stay consistent.
  Result<crypto::RsaPublicKey> known = node_->nexus().PeerEk(record.name);
  if (known.ok() && !(*known == *ek)) {
    stats_.rejected->Increment();
    return false;
  }
  switch (registry_->ImportPeer(record)) {
    case MeshRegistry::Import::kNew:
      break;
    case MeshRegistry::Import::kDuplicate:
      stats_.duplicates->Increment();
      return false;
    case MeshRegistry::Import::kConflict:
      stats_.rejected->Increment();
      return false;
  }
  // Our own record needs no self-trust; everyone else becomes a trust
  // anchor, which is what lets certificates chained to them verify and
  // lets us attest channels to not-directly-seeded nodes.
  if (record.name != node_->id()) {
    (void)node_->nexus().RegisterPeer(record.name, *ek);
  }
  stats_.peers_imported->Increment();
  return true;
}

bool GossipService::ApplyCertificate(const Bytes& cert_bytes) {
  std::string digest = crypto::Sha256Hex(cert_bytes);
  if (registry_->HasCertificate(digest)) {
    stats_.duplicates->Increment();
    return false;
  }
  Result<core::Certificate> cert = core::Certificate::Deserialize(cert_bytes);
  if (!cert.ok()) {
    stats_.rejected->Increment();
    return false;
  }
  if (cert->ek_public == node_->nexus().tpm().endorsement_public_key()) {
    // A certificate rooted in OUR OWN EK (typically one we externalized and
    // published). We do not register ourselves as a peer, so it cannot go
    // through ImportPeerCertificate — but it must still verify before the
    // registry accepts it, or a forgery claiming our EK would enter our
    // replica (diverging us from honest nodes and re-gossiping garbage).
    if (!core::VerifyCertificate(*cert, cert->ek_public).ok()) {
      stats_.rejected->Increment();
      return false;
    }
    registry_->ImportCertificate(cert_bytes);
    stats_.certs_imported->Increment();
    return true;
  }
  if (!node_->nexus().IsTrustedPeerEk(cert->ek_public)) {
    // The anchoring peer record may simply not have arrived yet (gossip is
    // order-free); park the certificate and retry when new peers land.
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_certs_.try_emplace(digest, cert_bytes).second) {
      pending_order_.push_back(digest);
      stats_.pending_parked->Increment();
      while (pending_order_.size() > kMaxPendingCerts) {
        pending_certs_.erase(pending_order_.front());
        pending_order_.erase(pending_order_.begin());
      }
    }
    return false;
  }
  // Chain verification + labelstore import. A certificate that fails here
  // is cryptographically bad (tampered statement or signature): reject it
  // permanently — it never enters the registry, so we never re-gossip it.
  Result<core::LabelHandle> handle = node_->nexus().ImportPeerCertificate(import_pid_, *cert);
  if (!handle.ok()) {
    stats_.rejected->Increment();
    return false;
  }
  registry_->ImportCertificate(cert_bytes);
  stats_.certs_imported->Increment();
  return true;
}

size_t GossipService::RetryPendingLocked() {
  size_t imported = 0;
  // Collect first: ApplyCertificate takes mu_ itself, so release before
  // re-applying (the parked entry is erased up front; a still-unanchored
  // certificate simply parks again).
  std::vector<Bytes> retry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retry.reserve(pending_certs_.size());
    for (const auto& [digest, bytes] : pending_certs_) {
      retry.push_back(bytes);
    }
    pending_certs_.clear();
    pending_order_.clear();
  }
  for (const Bytes& bytes : retry) {
    if (ApplyCertificate(bytes)) {
      ++imported;
    }
  }
  return imported;
}

size_t GossipService::ApplyState(ByteView payload, const NodeId& from) {
  // The whole payload decodes — peer section, certificate section, and
  // nothing after them — before any of it is applied: a malformed payload
  // (trailing bytes included) is rejected whole.
  ByteReader reader(payload);
  Result<std::vector<Bytes>> peer_blobs = reader.ReadLengthPrefixedList();
  Result<std::vector<Bytes>> cert_blobs = reader.ReadLengthPrefixedList();
  if (!peer_blobs.ok() || !cert_blobs.ok() || !reader.AtEnd()) {
    stats_.rejected->Increment();
    return 0;
  }
  size_t fresh = 0;
  bool new_peers = false;
  for (const Bytes& blob : *peer_blobs) {
    Result<PeerRecord> record = PeerRecord::DeserializeRecord(blob);
    if (!record.ok()) {
      stats_.rejected->Increment();
      continue;
    }
    if (ApplyPeerRecord(*record)) {
      ++fresh;
      new_peers = true;
    }
  }
  for (const Bytes& cert : *cert_blobs) {
    if (ApplyCertificate(cert)) {
      ++fresh;
    }
  }
  if (new_peers) {
    fresh += RetryPendingLocked();
  }
  if (fresh > 0) {
    // Flood-on-news: forward our (merged) state to everyone except the
    // sender. Send-only — we may be running under the pump lock.
    Flood(SerializeState(), from);
  }
  return fresh;
}

size_t GossipService::Flood(const Bytes& payload, const NodeId& skip) {
  size_t sent = 0;
  for (const PeerRecord& record : registry_->Peers()) {
    if (record.name == node_->id() || record.name == skip) {
      continue;
    }
    AttestedChannel* channel = node_->ChannelTo(record.name);
    if (channel == nullptr || !channel->established()) {
      continue;  // Anti-entropy rounds reach peers we cannot Connect here.
    }
    if (channel->SendSecure(std::string(kServiceName), payload).ok()) {
      ++sent;
    }
  }
  stats_.floods_sent->Increment(sent);
  return sent;
}

Result<Bytes> GossipService::Handle(AttestedChannel& channel, ByteView request) {
  ApplyState(request, channel.peer_node());
  return Bytes{};  // One-way deliveries (SendSecure) never send a reply.
}

Status GossipService::PushState(const NodeId& peer) {
  AttestedChannel* channel = node_->ChannelTo(peer);
  if (channel == nullptr || !channel->established()) {
    return Unavailable("no established channel to " + peer);
  }
  return channel->SendSecure(std::string(kServiceName), SerializeState());
}

void GossipService::AddSeed(const NodeId& peer) {
  if (peer == node_->id()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const NodeId& existing : seeds_) {
    if (existing == peer) {
      return;
    }
  }
  seeds_.push_back(peer);
}

size_t GossipService::AntiEntropyRound() {
  size_t sent = 0;
  Bytes state = SerializeState();
  // Registry peers plus pinned seeds: a seed whose record has not imported
  // yet (its join push was lost) must still be re-targeted every round.
  std::vector<NodeId> targets;
  for (const PeerRecord& record : registry_->Peers()) {
    targets.push_back(record.name);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const NodeId& seed : seeds_) {
      if (!registry_->HasPeer(seed)) {
        targets.push_back(seed);
      }
    }
  }
  for (const NodeId& target : targets) {
    if (target == node_->id()) {
      continue;
    }
    // Outside the pump we may handshake to newly-learned peers (their EK
    // became a trust anchor when their record imported).
    Result<AttestedChannel*> channel = node_->Connect(target);
    if (!channel.ok()) {
      continue;
    }
    if ((*channel)->SendSecure(std::string(kServiceName), state).ok()) {
      ++sent;
    }
  }
  stats_.floods_sent->Increment(sent);
  return sent;
}

Status GossipService::PublishCertificate(const Bytes& cert_bytes) {
  if (!ApplyCertificate(cert_bytes)) {
    // Duplicate publishes are fine (idempotent); anything else is a real
    // failure of the local import.
    if (!registry_->HasCertificate(crypto::Sha256Hex(cert_bytes))) {
      return InvalidArgument("certificate did not import locally");
    }
  }
  Flood(SerializeState(), /*skip=*/"");
  return OkStatus();
}

size_t GossipService::pending_certs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_certs_.size();
}

}  // namespace nexus::net::mesh

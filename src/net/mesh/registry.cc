#include "net/mesh/registry.h"

#include "crypto/sha256.h"

namespace nexus::net::mesh {

Bytes PeerRecord::SerializeRecord() const {
  Bytes out;
  AppendLengthPrefixed(out, ToBytes(name));
  AppendLengthPrefixed(out, ek);
  return out;
}

Result<PeerRecord> PeerRecord::DeserializeRecord(ByteView data) {
  ByteReader reader(data);
  Result<Bytes> name = reader.ReadLengthPrefixed();
  if (!name.ok()) {
    return name.status();
  }
  Result<Bytes> ek = reader.ReadLengthPrefixed();
  if (!ek.ok()) {
    return ek.status();
  }
  if (!reader.AtEnd()) {
    return InvalidArgument("peer record: trailing bytes");
  }
  return PeerRecord{ToString(*name), std::move(*ek)};
}

MeshRegistry::Import MeshRegistry::ImportPeer(const PeerRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = peers_.try_emplace(record.name, record.ek);
  if (inserted) {
    return Import::kNew;
  }
  if (it->second == record.ek) {
    return Import::kDuplicate;
  }
  return Import::kConflict;
}

MeshRegistry::Import MeshRegistry::ImportCertificate(const Bytes& cert_bytes) {
  std::string digest = crypto::Sha256Hex(cert_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = certs_.try_emplace(std::move(digest), cert_bytes);
  return inserted ? Import::kNew : Import::kDuplicate;
}

bool MeshRegistry::HasPeer(const NodeId& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_.count(name) != 0;
}

bool MeshRegistry::HasCertificate(const std::string& digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  return certs_.count(digest) != 0;
}

std::vector<PeerRecord> MeshRegistry::Peers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PeerRecord> out;
  out.reserve(peers_.size());
  for (const auto& [name, ek] : peers_) {
    out.push_back(PeerRecord{name, ek});
  }
  return out;
}

std::vector<Bytes> MeshRegistry::Certificates() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Bytes> out;
  out.reserve(certs_.size());
  for (const auto& [digest, bytes] : certs_) {
    out.push_back(bytes);
  }
  return out;
}

size_t MeshRegistry::peer_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_.size();
}

size_t MeshRegistry::cert_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return certs_.size();
}

Bytes MeshRegistry::CanonicalSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Bytes out;
  // std::map iteration IS the canonical order (sorted by key), so the
  // serialization is order-independent by construction.
  AppendU32(out, static_cast<uint32_t>(peers_.size()));
  for (const auto& [name, ek] : peers_) {
    AppendLengthPrefixed(out, ToBytes(name));
    AppendLengthPrefixed(out, ek);
  }
  AppendU32(out, static_cast<uint32_t>(certs_.size()));
  for (const auto& [digest, bytes] : certs_) {
    AppendLengthPrefixed(out, bytes);
  }
  return out;
}

std::string MeshRegistry::Digest() const { return crypto::Sha256Hex(CanonicalSnapshot()); }

}  // namespace nexus::net::mesh

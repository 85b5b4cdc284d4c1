#include "net/cert_exchange.h"

namespace nexus::net {

CertificateExchange::CertificateExchange(NetNode* node, kernel::ProcessId import_pid)
    : node_(node), import_pid_(import_pid) {
  node_->RegisterService(std::string(kServiceName), this);
}

Result<core::LabelHandle> CertificateExchange::PushLabel(const NodeId& peer,
                                                         kernel::ProcessId pid,
                                                         core::LabelHandle handle,
                                                         uint64_t timeout_us) {
  Result<core::Certificate> cert = node_->nexus().ExternalizeLabel(pid, handle);
  if (!cert.ok()) {
    return cert.status();
  }
  return PushCertificate(peer, *cert, timeout_us);
}

Result<core::LabelHandle> CertificateExchange::PushCertificate(const NodeId& peer,
                                                               const core::Certificate& cert,
                                                               uint64_t timeout_us) {
  Result<AttestedChannel*> channel = node_->Connect(peer);
  if (!channel.ok()) {
    return channel.status();
  }
  stats_.pushed->Increment();
  Result<Bytes> reply =
      (*channel)->Call(std::string(kServiceName), cert.Serialize(), timeout_us);
  if (!reply.ok()) {
    return reply.status();
  }
  ByteReader reader(*reply);
  Result<uint64_t> handle = reader.ReadU64();
  if (!handle.ok()) {
    return Internal("malformed certificate-exchange reply");
  }
  return core::LabelHandle{*handle};
}

Result<Bytes> CertificateExchange::Handle(AttestedChannel& channel, ByteView request) {
  (void)channel;  // Transport identity is irrelevant: the certificate
                  // verifies standalone against registered trust anchors.
  Result<core::Certificate> cert = core::Certificate::Deserialize(request);
  if (!cert.ok()) {
    stats_.rejected->Increment();
    return cert.status();
  }
  Result<core::LabelHandle> handle = node_->nexus().ImportPeerCertificate(import_pid_, *cert);
  if (!handle.ok()) {
    stats_.rejected->Increment();
    return handle.status();
  }
  stats_.imported->Increment();
  Bytes reply;
  AppendU64(reply, *handle);
  return reply;
}

}  // namespace nexus::net

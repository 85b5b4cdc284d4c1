// Cross-instance certificate exchange (§2.4's externalization, networked).
//
// The push side externalizes a label into a TPM-rooted certificate and
// ships it over an attested channel; the receive side verifies the chain
// against its registered peer trust anchors and imports the statement into
// a designated labelstore. Import is idempotent per certificate, so
// duplicated, re-ordered, or replayed deliveries converge to the same
// labelstore state (strong-eventual-consistency-style order insensitivity).
#ifndef NEXUS_NET_CERT_EXCHANGE_H_
#define NEXUS_NET_CERT_EXCHANGE_H_

#include <string>

#include "core/nexus.h"
#include "net/node.h"
#include "util/metrics.h"

namespace nexus::net {

class CertificateExchange : public Service {
 public:
  static constexpr std::string_view kServiceName = "certx";

  // Certificates arriving on `node` are imported into `import_pid`'s
  // labelstore (typically a gateway process whose store feeds guard
  // evaluations). Registers itself as the "certx" service on the node.
  CertificateExchange(NetNode* node, kernel::ProcessId import_pid);

  // Externalizes (pid, handle) on the local instance and pushes the
  // certificate to `peer`, returning the handle the peer assigned.
  Result<core::LabelHandle> PushLabel(const NodeId& peer, kernel::ProcessId pid,
                                      core::LabelHandle handle, uint64_t timeout_us = 100000);
  // Ships an already-built certificate (e.g. one received from a third
  // instance) to `peer`.
  Result<core::LabelHandle> PushCertificate(const NodeId& peer, const core::Certificate& cert,
                                            uint64_t timeout_us = 100000);

  // Receive side: verify against registered peer EKs and import.
  Result<Bytes> Handle(AttestedChannel& channel, ByteView request) override;

  // "cert_exchange.*" counters; a fresh exchange reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  NetNode* node_;
  kernel::ProcessId import_pid_;
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "cert_exchange"};
  struct {
    metrics::Counter* pushed;
    metrics::Counter* imported;
    metrics::Counter* rejected;
  } stats_{metrics_.NewCounter("pushed"), metrics_.NewCounter("imported"),
           metrics_.NewCounter("rejected")};
};

}  // namespace nexus::net

#endif  // NEXUS_NET_CERT_EXCHANGE_H_

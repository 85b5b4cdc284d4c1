// ReadRedactionMonitor — the reference reply-rewriting monitor.
//
// Interposed on the fileserver port, it demonstrates what STRUCTURAL
// reply interposition buys (§5.1): the monitor pattern-matches the typed
// read reply — one u64 length slot plus the data block — clamps the
// length in place (ArgVec::SetScalar) and redacts a configured byte range
// of the content, without parsing a single character of text. An
// interposed typed read therefore moves ZERO heap strings end to end;
// tests pin that with IpcPayloadCopyCount (one copy: the detach of the
// redacted data).
#ifndef NEXUS_SERVICES_READ_REDACTOR_H_
#define NEXUS_SERVICES_READ_REDACTOR_H_

#include <cstdint>

#include "kernel/kernel.h"
#include "util/metrics.h"

namespace nexus::services {

struct RedactionPolicy {
  // Longest read reply the monitor lets through; longer replies are
  // truncated (data AND length slot — the two must stay consistent).
  uint64_t max_read_length = UINT64_MAX;
  // Byte range [redact_begin, redact_end) of the file content to mask,
  // in post-clamp reply coordinates. Empty range = no masking.
  uint64_t redact_begin = 0;
  uint64_t redact_end = 0;
  uint8_t fill = '#';
};

class ReadRedactionMonitor : public kernel::Interceptor {
 public:
  explicit ReadRedactionMonitor(RedactionPolicy policy);

  // Call direction: pass-through (this monitor constrains what callers
  // SEE, not what they may do).
  kernel::InterposeVerdict OnCall(const kernel::IpcContext& context,
                                  kernel::IpcMessage& message) override;

  // Reply direction: structural rewrite of successful read replies.
  kernel::InterposeVerdict OnReply(const kernel::IpcContext& context,
                                   const kernel::IpcMessage& request,
                                   kernel::IpcReply& reply) override;

  // "redactor.*" counters; a fresh monitor reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }
  const RedactionPolicy& policy() const { return policy_; }

 private:
  RedactionPolicy policy_;
  kernel::OpId read_op_;  // Hoisted once; matching a reply is an integer compare.
  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "redactor"};
  metrics::Counter* rewrites_ = metrics_.NewCounter("rewrites");
};

}  // namespace nexus::services

#endif  // NEXUS_SERVICES_READ_REDACTOR_H_

// K-of-N quorum vouching over mesh peers.
//
// A single RemoteAuthority turns "peer unreachable within the deadline"
// into a deny — correct but brittle: one flapping link vetoes every
// authorization it guards. QuorumAuthority replaces the single peer with N
// members (typically RemoteAuthoritys to N mesh nodes holding replicas of
// the dynamic state): a statement is vouched iff at least K members
// responsively vouch it. Denies keep their cause: no_quorum (enough
// members answered, fewer than K said yes) vs timeout (so many members
// were unresponsive that K yes-votes were arithmetically impossible).
//
// Responsiveness: a quorum answers responsively iff enough members
// answered for K yes-votes to have been possible — the same test that
// classifies its own timeout-denies. A quorum that is itself a member of
// another quorum therefore reports its timeouts as a dead member, and the
// enclosing quorum backs it off like any other unresponsive peer.
//
// Latency: the batch is issued to ALL live members via Vouch BEFORE any
// Wait, so the round trips overlap on the fabric and the consultation
// costs max-of-K, not sum-of-K — the same discipline Guard::CheckBatch
// applies across authorities, proven on the simulated clock by the mesh
// tests. The deadline is the caller's and applies to every member.
//
// Backoff: a member that fails to answer `failures_before_backoff`
// consecutive times is sidelined for `backoff_us` of simulated time —
// queries during the window skip it entirely (no wasted wire traffic, no
// per-query timeout stall on a dead peer). Any responsive answer resets
// the member.
#ifndef NEXUS_NET_MESH_QUORUM_H_
#define NEXUS_NET_MESH_QUORUM_H_

#include <functional>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/authority.h"
#include "net/node.h"
#include "util/metrics.h"

namespace nexus::net::mesh {

struct QuorumPolicy {
  size_t quorum = 1;  // K yes-votes required per statement.
  // Consecutive unresponsive rounds before a member is sidelined.
  uint32_t failures_before_backoff = 1;
  // How long (simulated us) a sidelined member is skipped.
  uint64_t backoff_us = 200000;
};

class QuorumAuthority : public core::Authority {
 public:
  using HandlesPredicate = std::function<bool(const nal::Formula&)>;

  // `transport` provides the simulated clock for backoff windows; `handles`
  // scopes which statements this authority routes (nullptr = all).
  QuorumAuthority(Transport* transport, QuorumPolicy policy,
                  HandlesPredicate handles = nullptr);

  // Members are registered at wiring time, before concurrent traffic.
  void AddMember(core::Authority* member);
  size_t member_count() const { return members_.size(); }

  bool Handles(const nal::Formula& statement) const override;
  // Issues to every live member before any Wait: max-of-K latency.
  core::VouchFuture Vouch(std::span<const nal::Formula> statements,
                          uint64_t timeout_us) override;

  // "quorum_authority.*" counters; a fresh quorum reads zero.
  const metrics::MetricGroup& metrics() const { return metrics_; }

 private:
  struct MemberState {
    uint32_t consecutive_failures = 0;
    uint64_t backoff_until_us = 0;  // Simulated-clock instant; 0 = live.
  };

  // One member's in-flight round: its index and its future.
  using MemberFuture = std::pair<size_t, core::VouchFuture>;
  // Waits on one round's member futures and tallies `count` verdicts.
  core::VouchOutcome Tally(size_t count, std::span<MemberFuture> futures);
  void RecordOutcome(size_t member, bool responsive);

  Transport* transport_;
  QuorumPolicy policy_;
  HandlesPredicate handles_;
  std::vector<core::Authority*> members_;

  mutable std::mutex mu_;  // member_state_ (backoff bookkeeping).
  std::vector<MemberState> member_state_;

  metrics::MetricGroup metrics_{&metrics::Registry::Global(), "quorum_authority"};
  struct {
    metrics::Counter* statements;        // Statements decided (batched or not).
    metrics::Counter* vouched;           // Reached quorum.
    metrics::Counter* denied_no_quorum;  // Enough answers, fewer than K yes.
    metrics::Counter* denied_timeout;    // Unresponsive members made K impossible.
    metrics::Counter* member_rounds;     // Per-member batch round trips issued.
    metrics::Counter* members_skipped;   // Sidelined members not consulted.
  } stats_{metrics_.NewCounter("statements"),       metrics_.NewCounter("vouched"),
           metrics_.NewCounter("denied_no_quorum"), metrics_.NewCounter("denied_timeout"),
           metrics_.NewCounter("member_rounds"),    metrics_.NewCounter("members_skipped")};
};

}  // namespace nexus::net::mesh

#endif  // NEXUS_NET_MESH_QUORUM_H_

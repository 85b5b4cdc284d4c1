#include "net/mesh/quorum.h"

namespace nexus::net::mesh {

QuorumAuthority::QuorumAuthority(Transport* transport, QuorumPolicy policy,
                                 HandlesPredicate handles)
    : transport_(transport), policy_(std::move(policy)), handles_(std::move(handles)) {}

void QuorumAuthority::AddMember(core::Authority* member) {
  members_.push_back(member);
  member_state_.push_back(MemberState{});
}

bool QuorumAuthority::Handles(const nal::Formula& statement) const {
  if (handles_ != nullptr) {
    return handles_(statement);
  }
  for (core::Authority* member : members_) {
    if (member->Handles(statement)) {
      return true;
    }
  }
  return false;
}

void QuorumAuthority::RecordOutcome(size_t member, bool responsive) {
  std::lock_guard<std::mutex> lock(mu_);
  MemberState& state = member_state_[member];
  if (responsive) {
    state.consecutive_failures = 0;
    state.backoff_until_us = 0;
    return;
  }
  ++state.consecutive_failures;
  if (state.consecutive_failures >= policy_.failures_before_backoff) {
    state.backoff_until_us = transport_->now_us() + policy_.backoff_us;
  }
}

core::VouchOutcome QuorumAuthority::Tally(size_t count, std::span<MemberFuture> futures) {
  std::vector<size_t> yes(count, 0);
  size_t responsive = 0;
  for (auto& [member, future] : futures) {
    core::VouchOutcome outcome = future.Wait();
    RecordOutcome(member, outcome.responsive);
    if (!outcome.responsive || outcome.answers.size() != count) {
      continue;
    }
    ++responsive;
    for (size_t i = 0; i < count; ++i) {
      if (outcome.answers[i]) {
        ++yes[i];
      }
    }
  }
  // Responsive iff enough members answered for K yes-votes to have been
  // possible; otherwise every deny is unresponsiveness, not dissent, and an
  // enclosing quorum must see this one as a dead member, not a no-vote.
  core::VouchOutcome verdict{std::vector<bool>(count, false),
                             /*responsive=*/responsive >= policy_.quorum};
  for (size_t i = 0; i < count; ++i) {
    verdict.answers[i] = yes[i] >= policy_.quorum;
    if (verdict.answers[i]) {
      stats_.vouched->Increment();
    } else if (!verdict.responsive) {
      stats_.denied_timeout->Increment();
    } else {
      stats_.denied_no_quorum->Increment();
    }
  }
  return verdict;
}

core::VouchFuture QuorumAuthority::Vouch(std::span<const nal::Formula> statements,
                                         uint64_t timeout_us) {
  size_t count = statements.size();
  if (count == 0) {
    return core::VouchFuture(core::VouchOutcome{});
  }
  stats_.statements->Increment(count);
  // Issue phase: EVERY live member's batch goes on the wire before any
  // Wait — the overlap that makes the round cost max-of-K latency.
  std::vector<MemberFuture> futures;
  futures.reserve(members_.size());
  uint64_t now = transport_->now_us();
  for (size_t i = 0; i < members_.size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (member_state_[i].backoff_until_us > now) {
        stats_.members_skipped->Increment();
        continue;  // Sidelined; it rejoins when the window passes.
      }
    }
    stats_.member_rounds->Increment();
    futures.emplace_back(i, members_[i]->Vouch(statements, timeout_us));
  }
  return core::VouchFuture([this, count, futures = std::move(futures)]() mutable {
    return Tally(count, futures);
  });
}

}  // namespace nexus::net::mesh

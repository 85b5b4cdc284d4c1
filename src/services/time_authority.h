// The trustworthy clock service (§2.7).
//
// A time authority *refuses to sign* statements about the current time —
// any such label would inevitably become stale and make the service an
// untrustworthy principal. Instead it subscribes to a small family of
// arithmetic statements (`Self says TimeNow <op> constant`) and answers
// yes/no over the attested query channel, freshly, on every check.
#ifndef NEXUS_SERVICES_TIME_AUTHORITY_H_
#define NEXUS_SERVICES_TIME_AUTHORITY_H_

#include <functional>
#include <string>

#include "core/authority.h"
#include "nal/formula.h"

namespace nexus::services {

class TimeAuthority : public core::LocalAuthority {
 public:
  // `name` is the principal statements are attributed to (e.g. "NTP" or a
  // process principal). `clock` supplies the current time.
  TimeAuthority(nal::Principal name, std::function<int64_t()> clock)
      : name_(std::move(name)), clock_(std::move(clock)) {}

  bool Handles(const nal::Formula& statement) const override;

  // Deliberately unsupported: a time label would expire while cached.
  // Returns FAILED_PRECONDITION always; exists to document the contract.
  Status SignTimeLabel() const {
    return FailedPrecondition("a trustworthy clock never issues transferable time statements");
  }

 protected:
  bool Answer(const nal::Formula& statement) override;

 private:
  nal::Principal name_;
  std::function<int64_t()> clock_;
};

// Evaluates a ground integer comparison.
bool EvaluateComparison(nal::CompareOp op, int64_t lhs, int64_t rhs);

}  // namespace nexus::services

#endif  // NEXUS_SERVICES_TIME_AUTHORITY_H_

#include "check/audit.h"

#include <sstream>

namespace dasched {

void InvariantCheck::fail(SimTime time, std::string detail) {
  auditor_.record(Violation{name(), std::move(detail), time});
}

void InvariantCheck::evaluated() { ++auditor_.evaluations_; }

void SimAuditor::record(Violation v) {
  ++violations_total_;
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(std::move(v));
  }
}

void SimAuditor::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (auto& check : checks_) check->at_end();
}

std::string SimAuditor::report() const {
  std::ostringstream os;
  if (clean()) {
    os << "audit: " << evaluations_ << " invariant evaluations across "
       << num_checks() << " checks, no violations\n";
    return os.str();
  }
  os << "audit: " << violations_total_ << " violation(s) across "
     << num_checks() << " checks (" << evaluations_ << " evaluations)\n";
  for (const Violation& v : violations_) {
    os << "  [" << v.check << "] t=" << to_sec(v.time) << "s  " << v.detail
       << "\n";
  }
  if (violations_total_ > static_cast<std::int64_t>(violations_.size())) {
    os << "  ... "
       << violations_total_ - static_cast<std::int64_t>(violations_.size())
       << " further violation(s) suppressed\n";
  }
  return os.str();
}

}  // namespace dasched

#include "check/energy_check.h"

#include <cmath>
#include <sstream>

namespace dasched {

namespace {

/// Absolute slack for comparing two double energy sums.  The simulator and
/// the ledger add the same terms in the same order, so differences beyond
/// rounding noise are genuine mis-bookings.
constexpr double kAbsEpsJ = 1e-6;

bool close(Joules a, Joules b) {
  const double av = std::fabs(a.value());
  const double bv = std::fabs(b.value());
  const double scale = av > bv ? av : bv;
  return std::fabs((a - b).value()) <= kAbsEpsJ + 1e-12 * scale;
}

}  // namespace

EnergyConservationCheck::Ledger& EnergyConservationCheck::ledger_for(
    const Disk& disk) {
  const auto it = ledger_index_.find(&disk);
  if (it != ledger_index_.end()) return ledgers_[it->second].second;
  ledger_index_.emplace(&disk, ledgers_.size());
  ledgers_.emplace_back(&disk, Ledger{disk.params()});
  return ledgers_.back().second;
}

Watts EnergyConservationCheck::expected_power_w(const Ledger& ledger,
                                                const Disk& disk,
                                                DiskState state, Rpm rpm) {
  switch (state) {
    case DiskState::kIdle: return ledger.model.idle_w(rpm);
    case DiskState::kSeeking: return ledger.model.seek_w(rpm);
    case DiskState::kTransferring: return ledger.model.active_w(rpm);
    case DiskState::kSpinningDown: return ledger.model.spin_down_w();
    case DiskState::kStandby: return ledger.model.standby_w();
    case DiskState::kSpinningUp: return ledger.model.spin_up_w();
    case DiskState::kChangingSpeed:
      return ledger.model.rpm_transition_w(disk.transition_from(),
                                           disk.transition_to());
  }
  return Watts{0.0};
}

void EnergyConservationCheck::on_energy_accrued(const Disk& disk,
                                                DiskState state, Rpm rpm,
                                                SimTime dt, Joules joules) {
  evaluated();
  Ledger& ledger = ledger_for(disk);
  const Joules expected = expected_power_w(ledger, disk, state, rpm) * dt;
  if (!close(expected, joules)) {
    std::ostringstream os;
    os << "disk booked " << joules << " J for " << to_sec(dt) << " s in "
       << to_string(state) << " at " << rpm << " rpm; power model implies "
       << expected << " J";
    fail(disk.sim().now(), os.str());
  }
  // Grow the ledger by what the mode/residency product says, so a one-off
  // mis-booking also surfaces as a running-total divergence.
  ledger.expected_j += expected;
  ledger.expected_by_state_j[static_cast<int>(state)] += expected;
  ledger.residency[static_cast<int>(state)] += dt;
}

void EnergyConservationCheck::cross_check_total(const Disk& disk,
                                                const char* where) {
  evaluated();
  const Ledger& ledger = ledger_for(disk);
  const Joules booked = disk.stats().energy_j;
  if (!close(ledger.expected_j, booked)) {
    std::ostringstream os;
    os << where << ": disk total energy " << booked
       << " J diverges from sum(mode residency x wattage) = "
       << ledger.expected_j << " J";
    fail(disk.sim().now(), os.str());
  }
}

void EnergyConservationCheck::on_state_change(const Disk& disk, DiskState from,
                                              DiskState to) {
  (void)from, (void)to;
  cross_check_total(disk, "mode transition");
}

void EnergyConservationCheck::on_finalized(const Disk& disk) {
  cross_check_total(disk, "finalize");
  Ledger& ledger = ledger_for(disk);
  const DiskStats& stats = disk.stats();

  Joules by_state_sum{};
  for (int s = 0; s < kNumDiskStates; ++s) {
    by_state_sum += stats.energy_by_state_j[static_cast<std::size_t>(s)];
    if (!close(stats.energy_by_state_j[static_cast<std::size_t>(s)],
               ledger.expected_by_state_j[static_cast<std::size_t>(s)])) {
      std::ostringstream os;
      os << "finalize: energy booked to " << to_string(static_cast<DiskState>(s))
         << " is " << stats.energy_by_state_j[static_cast<std::size_t>(s)]
         << " J; residency x wattage implies "
         << ledger.expected_by_state_j[static_cast<std::size_t>(s)] << " J";
      fail(disk.sim().now(), os.str());
    }
  }
  evaluated();
  if (!close(by_state_sum, stats.energy_j)) {
    std::ostringstream os;
    os << "finalize: per-state energies sum to " << by_state_sum
       << " J but total is " << stats.energy_j << " J";
    fail(disk.sim().now(), os.str());
  }
  evaluated();
  if (ledger.residency[static_cast<int>(DiskState::kStandby)] !=
      stats.time_in_standby) {
    std::ostringstream os;
    os << "finalize: standby residency " << to_sec(stats.time_in_standby)
       << " s disagrees with observed "
       << to_sec(ledger.residency[static_cast<int>(DiskState::kStandby)])
       << " s";
    fail(disk.sim().now(), os.str());
  }
}

std::array<Joules, kNumDiskStates> EnergyConservationCheck::ledger_by_state_j()
    const {
  std::array<Joules, kNumDiskStates> out{};
  for (const auto& [disk, ledger] : ledgers_) {
    for (int s = 0; s < kNumDiskStates; ++s) {
      out[static_cast<std::size_t>(s)] +=
          ledger.expected_by_state_j[static_cast<std::size_t>(s)];
    }
  }
  return out;
}

void EnergyConservationCheck::cross_check_aggregate(
    const std::array<Joules, kNumDiskStates>& by_state_j, Joules total_j,
    SimTime when) {
  Joules external_sum{};
  for (Joules v : by_state_j) external_sum += v;

  evaluated();
  if (!close(external_sum, total_j)) {
    std::ostringstream os;
    os << "aggregate: external per-state energies sum to " << external_sum
       << " J but the run's scalar total is " << total_j << " J";
    fail(when, os.str());
  }

  const std::array<Joules, kNumDiskStates> ledger = ledger_by_state_j();
  for (int s = 0; s < kNumDiskStates; ++s) {
    evaluated();
    if (!close(by_state_j[static_cast<std::size_t>(s)],
               ledger[static_cast<std::size_t>(s)])) {
      std::ostringstream os;
      os << "aggregate: external energy in "
         << to_string(static_cast<DiskState>(s)) << " is "
         << by_state_j[static_cast<std::size_t>(s)]
         << " J; the independent ledgers sum to "
         << ledger[static_cast<std::size_t>(s)] << " J";
      fail(when, os.str());
    }
  }
}

}  // namespace dasched

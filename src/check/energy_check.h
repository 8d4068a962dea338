// Energy conservation (invariant 1 of the audit catalog).
//
// Replays every energy accrual against an independent `PowerModel` instance:
// the joules a disk books for a residency interval must equal
// (mode wattage at the interval's speed) x (interval length), and the disk's
// running `energy_j` must equal the ledger's independent sum — cross-checked
// at every mode transition and again at finalize, where the per-state energy
// split and the standby-residency counter are also reconciled.
#pragma once

#include <array>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "disk/disk.h"
#include "disk/power_model.h"
#include "util/annotations.h"

namespace dasched {

class DASCHED_OBSERVER_PASSIVE EnergyConservationCheck final
    : public InvariantCheck,
                                      public DiskObserver {
 public:
  explicit EnergyConservationCheck(SimAuditor& auditor)
      : InvariantCheck(auditor) {}

  [[nodiscard]] const char* name() const override {
    return "energy-conservation";
  }

  // DiskObserver -------------------------------------------------------------
  void on_energy_accrued(const Disk& disk, DiskState state, Rpm rpm,
                         SimTime dt, Joules joules) override;
  void on_state_change(const Disk& disk, DiskState from, DiskState to) override;
  void on_finalized(const Disk& disk) override;

  // External aggregates ------------------------------------------------------
  /// Cross-checks an externally derived per-state energy breakdown (the
  /// telemetry summary's) against the independent ledgers and against the
  /// run's scalar total `total_j` — the conservation invariant extended
  /// across the telemetry path.  Records violations on divergence.
  void cross_check_aggregate(
      const std::array<Joules, kNumDiskStates>& by_state_j, Joules total_j,
      SimTime when);

  /// Sum of all disks' independent ledgers (valid after the run).
  [[nodiscard]] Joules ledger_total_j() const;
  [[nodiscard]] std::array<Joules, kNumDiskStates> ledger_by_state_j() const;

 private:
  struct Ledger {
    PowerModel model;
    Joules expected_j{};
    std::array<Joules, kNumDiskStates> expected_by_state_j{};
    std::array<SimTime, kNumDiskStates> residency{};
    explicit Ledger(const DiskParams& params) : model(params) {}
  };

  Ledger& ledger_for(const Disk& disk);
  /// Wattage the disk must draw in `state` — the auditor's own reading of
  /// the power model, independent of `Disk::current_power_w`.
  [[nodiscard]] static Watts expected_power_w(const Ledger& ledger,
                                              const Disk& disk,
                                              DiskState state, Rpm rpm);
  void cross_check_total(const Disk& disk, const char* where);

  // Ledgers are iterated when aggregating (float sums feed audit reports),
  // so they live in a vector in first-accrual order — deterministic for a
  // deterministic simulation.  The pointer-keyed unordered map is a
  // lookup-only index; its iteration order can never reach a report.
  std::unordered_map<const Disk*, std::size_t> ledger_index_;
  std::vector<std::pair<const Disk*, Ledger>> ledgers_;
};

}  // namespace dasched

// End-to-end experiment runner.
//
// One experiment = one application × one power policy × scheme on/off,
// executed on a freshly built simulator + storage system.  Every bench
// binary (and the integration tests) goes through `run_experiment`, so the
// paper's pipeline — workload, compile, simulate, measure — lives in exactly
// one place.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "compiler/compile.h"
#include "io/cluster.h"
#include "power/policies.h"
#include "storage/storage_system.h"
#include "telemetry/events.h"
#include "util/histogram.h"
#include "workload/app.h"

/// Build-time default of `ExperimentConfig::audit`; the DASCHED_AUDIT CMake
/// option sets it to 1 so every experiment in the tree runs audited.
#ifndef DASCHED_AUDIT_DEFAULT
#define DASCHED_AUDIT_DEFAULT 0
#endif

namespace dasched {

class SimAuditor;
struct TelemetrySummary;

/// Configuration rejection with the offending field attached.  Subclasses
/// std::invalid_argument so existing catch sites keep working; daemon error
/// frames and CLI diagnostics use `field()` to tell clients *which* knob to
/// fix instead of forwarding a bare message.
class ConfigError : public std::invalid_argument {
 public:
  ConfigError(std::string field, const std::string& message)
      : std::invalid_argument(message), field_(std::move(field)) {}

  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

struct ExperimentConfig {
  std::string app = "hf";
  WorkloadScale scale;
  StorageConfig storage;
  CompileOptions compile;
  RuntimeConfig runtime;
  /// Policy installed on every disk (kNone = the paper's Default Scheme).
  PolicyKind policy = PolicyKind::kNone;
  PolicyConfig policy_cfg;
  /// Enables the paper's contribution: compile-time scheduling + runtime
  /// prefetching.  False reproduces the "without our approach" runs.
  bool use_scheme = false;
  std::uint64_t seed = 1;

  /// Runs the experiment under the invariant auditor (src/check).  A
  /// violation makes `run_experiment` throw with the audit report, so a
  /// DASCHED_AUDIT=ON build turns every test into an invariant test.
  bool audit = DASCHED_AUDIT_DEFAULT != 0;

  /// Telemetry capture (src/telemetry).  Off by default; when enabled the
  /// run is traced, the summary lands in ExperimentResult::telemetry, the
  /// energy-by-state breakdown is reconciled against the scalar total, and
  /// `telemetry.dir` (if set) receives trace.bin / summary.json /
  /// trace.json.  The recorder is passive: enabling it cannot change any
  /// simulation result.
  TelemetryConfig telemetry;

  /// Slack bound: how far (in slots) the compiler may hoist an access.
  /// 0 = the full producer-to-consumer window (paper semantics); the runtime
  /// buffer capacity is then the only limit on hoisting.
  Slot max_slack = 600;

  /// Must be 0: one run is one serial timeline on one Simulator.  Kept only
  /// because the benchmark harness (perfbench/) sets and reads it; it goes
  /// in the next benchmark revision.  validate_experiment_topology rejects
  /// any other value with ConfigError("shards").
  int shards = 0;
};

/// Topology-derived bound on concurrently outstanding events, used to
/// pre-reserve the event queue and record pool (Simulator::reserve_events)
/// so the steady state performs zero queue allocations.  Deliberately
/// generous — memory cost is ~56 bytes per slot — but growth past it is
/// still legal (the queues keep their annotated growth paths).
[[nodiscard]] std::size_t default_event_reserve(const StorageConfig& storage,
                                                const WorkloadScale& scale);

struct ExperimentResult {
  std::string app;
  PolicyKind policy = PolicyKind::kNone;
  bool scheme = false;

  SimTime exec_time = 0;
  Joules energy_j{};
  StorageStats storage;
  RuntimeStats runtime;
  ScheduleStats sched;
  std::int64_t events = 0;

  /// True when the run was audited; `audit_violations` is the total count
  /// (only ever non-zero with an external auditor, which does not throw).
  bool audited = false;
  std::int64_t audit_violations = 0;

  /// Analytics summary of the traced run; null when telemetry was off.
  /// Shared so grid sinks can aggregate without copying the histograms.
  std::shared_ptr<const TelemetrySummary> telemetry;

  [[nodiscard]] double exec_minutes() const { return to_minutes(exec_time); }
};

/// Validates the run topology: process/node counts must be positive (any
/// size is accepted — the paper's 8-node/32-client evaluation cap is a
/// default, not a limit), and `shards` must be 0.  Throws ConfigError (a
/// std::invalid_argument carrying the offending field name) with a specific
/// message otherwise.  Called by run_experiment;
/// exposed for tools, the daemon, and tests.
void validate_experiment_topology(const ExperimentConfig& cfg);

/// Runs a single experiment to completion.  Throws std::runtime_error if the
/// simulation deadlocks (a client never finishes) or if `cfg.audit` is set
/// and an invariant check fires.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Same, auditing into a caller-provided auditor (enabled regardless of
/// `cfg.audit`).  Violations are reported through the auditor instead of
/// throwing, so tools can print the full report.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                              SimAuditor* auditor);

/// Energy of `r` normalized to `baseline` (the paper's Fig. 12c/d y-axis).
[[nodiscard]] inline double normalized_energy(const ExperimentResult& r,
                                              const ExperimentResult& baseline) {
  return baseline.energy_j == Joules{0.0} ? 0.0
                                          : r.energy_j / baseline.energy_j;
}

/// Execution-time degradation of `r` relative to `baseline` (Fig. 13a/b).
[[nodiscard]] inline double degradation(const ExperimentResult& r,
                                        const ExperimentResult& baseline) {
  return baseline.exec_time == SimTime{0}
             ? 0.0
             : static_cast<double>(r.exec_time - baseline.exec_time) /
                   static_cast<double>(baseline.exec_time);
}

}  // namespace dasched

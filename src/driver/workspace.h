// Allocation-free cross-run reuse: the per-worker experiment workspace.
//
// `run_experiment` builds a full simulation stack — engine, storage system,
// workload, compiled schedule, runtime cluster — per call, which is exactly
// right for one-off runs but dominates grid throughput once the per-cell
// simulated work is small.  An `ExperimentWorkspace` owns one such stack and
// rebuilds it *in place* between runs: every layer exposes a `reset()` that
// restores its constructor postcondition while keeping its allocations warm
// (event-record pools, ladder arenas, cache tables, elevator slabs, join
// pools, waiter arenas, result histograms), so the second and later runs of
// a topology-compatible configuration perform zero heap allocations
// (tests/driver/workspace_alloc_test.cc proves it with an operator-new
// interposer).
//
// Reuse is bit-identical to fresh construction by the same argument that
// makes the engine deterministic: all event ordering is (time, seq) keyed,
// and seq values are a dense counter rewound by the resets.  Slot
// indices, generation counters and free-list layout never enter an ordering
// key, so warm pools are observationally indistinguishable from cold ones
// (DESIGN.md §16; tests/driver/workspace_differential_test.cc).
//
// Shape changes are handled with a capacity high-water-mark policy: growing
// a dimension (more processes, more events) reallocates once and keeps the
// larger footprint; nothing ever shrinks.  A genuine topology change
// (node count, disk count, ...) rebuilds the affected components cleanly;
// the engine is topology-independent and is built once per workspace (and
// again after a poisoned run).  A run that threw mid-flight poisons the workspace;
// the next run detects it and rebuilds from scratch instead of trusting
// half-mutated state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "sim/simulator.h"
#include "util/annotations.h"

namespace dasched {

class SimAuditor;

class ExperimentWorkspace {
 public:
  ExperimentWorkspace() = default;
  ~ExperimentWorkspace();

  ExperimentWorkspace(const ExperimentWorkspace&) = delete;
  ExperimentWorkspace& operator=(const ExperimentWorkspace&) = delete;

  /// Makes the workspace ready to run `cfg`: resets compatible components in
  /// place, rebuilds the ones whose shape genuinely changed (storage
  /// topology, workload identity).  Called by `run`;
  /// exposed for tests that want to observe the rebuild decisions.
  void prepare(const ExperimentConfig& cfg);

  /// Runs one experiment, reusing the warm stack.  Same contract as
  /// `run_experiment(cfg)` — audits when `cfg.audit` is set and throws on a
  /// violation — but returns a reference to workspace-owned storage that is
  /// valid until the next `run` or the workspace's destruction.
  const ExperimentResult& run(const ExperimentConfig& cfg);

  /// Same, auditing into a caller-provided auditor (enabled regardless of
  /// `cfg.audit`); violations land in the auditor instead of throwing.
  const ExperimentResult& run(const ExperimentConfig& cfg, SimAuditor* auditor);

  /// True after a run threw mid-flight (the in-run marker was never
  /// cleared); the next prepare() rebuilds from scratch and clears it.
  [[nodiscard]] bool poisoned() const { return in_run_; }

  // Rebuild telemetry for tests and benches: how often each expensive stage
  // actually ran (engine construction, workload build, schedule compile).
  [[nodiscard]] std::uint64_t engine_rebuilds() const { return engine_rebuilds_; }
  [[nodiscard]] std::uint64_t workload_builds() const { return workload_builds_; }
  [[nodiscard]] std::uint64_t compile_misses() const { return compile_misses_; }
  [[nodiscard]] std::uint64_t runs_completed() const { return runs_completed_; }

 private:
  /// Identity of the built workload: `App::build` registers files on the
  /// striping map, so it must run exactly once per (app, scale, striping
  /// geometry) — rerunning it would append duplicate files.
  struct WorkloadKey {
    std::string app;
    int num_processes = 0;
    double factor = 0.0;
    int num_io_nodes = 0;
    Bytes stripe_size = 0;

    friend bool operator==(const WorkloadKey&, const WorkloadKey&) = default;
  };

  struct CompileSlot {
    std::uint64_t epoch = 0;  // workload_epoch_ the compile belongs to
    std::uint64_t tick = 0;   // LRU stamp
    CompileOptions opts;
    std::unique_ptr<Compiled> compiled;
  };

  /// Drops every component; the next prepare() builds from scratch.
  void clear_all();
  /// Detaches audit/telemetry observers from every layer (simulator,
  /// storage, nodes, disks, policies); they are re-installed per run.
  void detach_observers();
  /// Compiled schedule for the current workload under `copts`, via the LRU
  /// cache (bypassed when a scheduler observer is attached — the observer
  /// must see every placement, so the compile must actually run).
  const Compiled& obtain_compiled(const CompileOptions& copts);
  /// The grid's steady-state path: on a topology-compatible rerun it must
  /// not allocate (enforced by the lint's hot-alloc rule + the operator-new
  /// interposition test); every sanctioned warm-up/miss-path allocation in
  /// the implementation carries an inline allow(hot-alloc) justification.
  DASCHED_HOT const ExperimentResult& run_impl(const ExperimentConfig& cfg,
                                               SimAuditor* auditor);

  // Engine: built on first prepare() and after a poisoned run, then reset.
  std::unique_ptr<Simulator> sim_;

  // Storage (optional<> so a topology change can re-emplace in place).
  std::optional<StorageSystem> storage_;

  // Workload: the built (lowered) trace, reused across compiles.
  std::optional<WorkloadKey> workload_key_;
  CompiledProgram trace_;
  std::uint64_t workload_epoch_ = 0;

  // Compiled-schedule LRU.  unique_ptr entries give every compile a stable
  // address, which is what lets Cluster::reset skip its read-site index
  // rebuild on reruns over the same compile.
  static constexpr std::size_t kCompileCacheSlots = 4;
  std::vector<CompileSlot> compile_cache_;
  std::unique_ptr<Compiled> observed_compile_;  // trace-mode bypass slot
  std::uint64_t compile_tick_ = 0;
  /// The compile the cluster is currently bound to; never evicted, so the
  /// address comparison inside Cluster::reset can never see an ABA reuse.
  const Compiled* bound_compiled_ = nullptr;

  // Runtime.
  std::unique_ptr<Cluster> cluster_;
  ExperimentResult result_;

  /// Set for the duration of every run; still set at the next prepare()
  /// means the previous run threw mid-flight and the stack is suspect.
  bool in_run_ = false;
  std::uint64_t engine_rebuilds_ = 0;
  std::uint64_t workload_builds_ = 0;
  std::uint64_t compile_misses_ = 0;
  std::uint64_t runs_completed_ = 0;
};

/// Workspace-reusing counterpart of `run_experiment(cfg)`: identical results
/// (bit-for-bit), amortized construction.  The classic entry points are thin
/// wrappers over a single-use workspace.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                              ExperimentWorkspace& ws);

}  // namespace dasched

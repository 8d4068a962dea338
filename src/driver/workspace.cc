#include "driver/workspace.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "check/install.h"
#include "telemetry/analytics.h"
#include "telemetry/export.h"
#include "telemetry/install.h"
#include "telemetry/trace_io.h"
#include "util/annotations.h"

namespace dasched {

namespace {

/// Relative tolerance between the telemetry energy-by-state aggregate and
/// the run's scalar total.  Both sum the exact same accrual terms; only the
/// cross-disk/cross-state addition order differs, so anything beyond
/// re-association noise is a genuine telemetry bug.
constexpr double kEnergyRelEps = 1e-9;

void write_telemetry_artifacts(const std::string& dir,
                               const TraceBuffer& buffer, const TraceMeta& meta,
                               const TelemetrySummary& summary) {
  // dasched-lint: allow(hot-alloc): artifact writing, opt-in telemetry only
  std::filesystem::create_directories(dir);
  // dasched-lint: allow(hot-alloc): artifact writing, opt-in telemetry only
  if (!save_trace(dir + "/trace.bin", buffer, meta)) {
    // dasched-lint: allow(hot-alloc): fatal-error path
    throw std::runtime_error("telemetry: cannot write " + dir + "/trace.bin");
  }
  // dasched-lint: allow(hot-alloc): artifact writing, opt-in telemetry only
  std::ofstream sj(dir + "/summary.json");
  // dasched-lint: allow(hot-alloc): artifact writing, opt-in telemetry only
  std::ofstream cj(dir + "/trace.json");
  if (!sj || !cj) {
    // dasched-lint: allow(hot-alloc): fatal-error path
    throw std::runtime_error("telemetry: cannot open outputs under " + dir);
  }
  write_summary_json(sj, summary);
  write_chrome_trace(cj, buffer, meta);
}

}  // namespace

ExperimentWorkspace::~ExperimentWorkspace() {
  // Layers hold raw pointers to per-run observers; they are long gone by
  // now, but the stack is torn down here anyway.
}

void ExperimentWorkspace::clear_all() {
  cluster_.reset();
  bound_compiled_ = nullptr;
  compile_cache_.clear();
  observed_compile_.reset();
  storage_.reset();
  workload_key_.reset();
  sim_.reset();
}

void ExperimentWorkspace::detach_observers() {
  if (sim_ != nullptr) sim_->set_observer(nullptr);
  if (!storage_.has_value()) return;
  storage_->set_observer(nullptr);
  for (int i = 0; i < storage_->num_io_nodes(); ++i) {
    IoNode& node = storage_->node(i);
    node.set_observer(nullptr);
    for (int d = 0; d < node.num_disks(); ++d) {
      node.disk(d).set_observer(nullptr);
      if (PowerPolicy* policy = node.policy(d)) policy->set_observer(nullptr);
    }
  }
}

void ExperimentWorkspace::prepare(const ExperimentConfig& cfg) {
  validate_experiment_topology(cfg);
  if (in_run_) {
    // The previous run threw mid-flight; nothing below the driver promises
    // exception-safe partial state, so rebuild everything from scratch.
    clear_all();
    in_run_ = false;
  }

  if (sim_ == nullptr) {
    // dasched-lint: allow(hot-alloc): first run / post-poison construction
    sim_ = std::make_unique<Simulator>();
    ++engine_rebuilds_;
  } else {
    sim_->reset();
  }
  // Grow-only and idempotent, so the engine can serve a bigger topology
  // without a rebuild (capacity high-water-mark policy).
  sim_->reserve_events(default_event_reserve(cfg.storage, cfg.scale));

  StorageConfig storage_cfg = cfg.storage;  // all scalars; no allocation
  storage_cfg.node.policy = cfg.policy;
  storage_cfg.node.policy_cfg = cfg.policy_cfg;
  storage_cfg.seed = cfg.seed;
  if (!storage_.has_value()) {
    storage_.emplace(*sim_, storage_cfg);
    workload_key_.reset();
  } else {
    storage_->reset(storage_cfg);
  }

  const bool workload_ok =
      workload_key_.has_value() && workload_key_->app == cfg.app &&
      workload_key_->num_processes == cfg.scale.num_processes &&
      workload_key_->factor == cfg.scale.factor &&
      workload_key_->num_io_nodes == cfg.storage.num_io_nodes &&
      workload_key_->stripe_size == cfg.storage.stripe_size;
  if (!workload_ok) {
    // App::build creates files on the striping map, so the map must be
    // emptied first; the deterministic rebuild then reproduces the exact
    // same file->offset mapping a fresh system would produce.
    storage_->striping().reset();
    const App& app = app_by_name(cfg.app);
    trace_ = app.build(storage_->striping(), cfg.scale);
    workload_key_ = WorkloadKey{cfg.app, cfg.scale.num_processes,
                                cfg.scale.factor, cfg.storage.num_io_nodes,
                                cfg.storage.stripe_size};
    ++workload_epoch_;
    ++workload_builds_;
  }
}

const Compiled& ExperimentWorkspace::obtain_compiled(
    const CompileOptions& copts) {
  ++compile_tick_;
  if (copts.sched_observer != nullptr) {
    // The observer must see every placement, so the compile actually runs.
    // Allocate the fresh result before releasing the old one: with both
    // alive at once the addresses must differ, so Cluster::reset's
    // same-address fast path can never mistake new content for old.
    CompiledProgram copy = trace_;
    // dasched-lint: allow(hot-alloc): trace-mode bypass, compiles every run
    auto fresh = std::make_unique<Compiled>(compile_trace(
        // dasched-lint: allow(hot-alloc): trace-mode bypass, compiles anew
        std::move(copy), storage_->striping(), copts));
    observed_compile_ = std::move(fresh);
    ++compile_misses_;
    return *observed_compile_;
  }
  for (CompileSlot& slot : compile_cache_) {
    if (slot.compiled != nullptr && slot.epoch == workload_epoch_ &&
        slot.opts == copts) {
      slot.tick = compile_tick_;
      return *slot.compiled;
    }
  }
  ++compile_misses_;
  CompiledProgram copy = trace_;  // compile_trace consumes its input
  // dasched-lint: allow(hot-alloc): compile-cache miss path, bounded by LRU
  auto fresh = std::make_unique<Compiled>(compile_trace(
      // dasched-lint: allow(hot-alloc): compile-cache miss path
      std::move(copy), storage_->striping(), copts));
  CompileSlot* victim = nullptr;
  if (compile_cache_.size() < kCompileCacheSlots) {
    // dasched-lint: allow(hot-alloc): cache warm-up, at most 4 slots ever
    victim = &compile_cache_.emplace_back();
  } else {
    // Evict the least recently used entry, but never the compile the
    // cluster is still bound to — freeing it could let a later allocation
    // reuse its address and defeat the same-address rerun fast path.
    for (CompileSlot& slot : compile_cache_) {
      if (slot.compiled.get() == bound_compiled_) continue;
      if (victim == nullptr || slot.tick < victim->tick) victim = &slot;
    }
  }
  victim->epoch = workload_epoch_;
  victim->tick = compile_tick_;
  victim->opts = copts;
  victim->compiled = std::move(fresh);
  return *victim->compiled;
}

const ExperimentResult& ExperimentWorkspace::run(const ExperimentConfig& cfg) {
  if (!cfg.audit) return run_impl(cfg, nullptr);
  // Internal auditor: a violation is a fatal correctness bug, so surface the
  // report as an exception rather than as statistics.
  SimAuditor auditor;
  const ExperimentResult& out = run_impl(cfg, &auditor);
  if (!auditor.clean()) {
    throw std::runtime_error("experiment '" + cfg.app +
                             "' failed its invariant audit:\n" +
                             auditor.report());
  }
  return out;
}

const ExperimentResult& ExperimentWorkspace::run(const ExperimentConfig& cfg,
                                                 SimAuditor* auditor) {
  return run_impl(cfg, auditor);
}

const ExperimentResult& ExperimentWorkspace::run_impl(
    const ExperimentConfig& cfg, SimAuditor* auditor) {
  prepare(cfg);
  in_run_ = true;  // cleared on success; a throw leaves it set -> poison
  Simulator& sim = *sim_;
  StorageSystem& storage = *storage_;

  // Per-run observers (audit checks, telemetry recorders) die at the end of
  // this call, so every layer must drop its raw pointers to them even when
  // the run throws.
  struct DetachGuard {
    ExperimentWorkspace* ws;
    ~DetachGuard() { ws->detach_observers(); }
  } detach_guard{this};

  // Hook the auditor in before anything can schedule an event, so the
  // event-queue ledger sees the complete history.
  InstalledChecks checks;
  if (auditor != nullptr) {
    checks = install_audit(*auditor, sim, storage, cfg.policy, cfg.policy_cfg);
  }

  // The telemetry recorder attaches beside the audit checks (every layer
  // multiplexes observers) and is strictly passive.
  std::unique_ptr<TelemetryRecorder> recorder;
  if (cfg.telemetry.enabled()) {
    // dasched-lint: allow(hot-alloc): telemetry runs opt into recording
    recorder = std::make_unique<TelemetryRecorder>(cfg.telemetry.level);
    install_telemetry(*recorder, sim, storage);
    TraceMeta& meta = recorder->meta();
    meta.app = cfg.app;
    meta.policy = static_cast<int>(cfg.policy);
    meta.scheme = cfg.use_scheme;
  }

  const App& app = app_by_name(cfg.app);
  CompileOptions copts = cfg.compile;
  copts.enable_scheduling = cfg.use_scheme;
  copts.slack.length_unit = app.length_unit;
  copts.slack.max_slack = cfg.max_slack;
  if (recorder != nullptr && recorder->level() >= TraceLevel::kFull) {
    copts.sched_observer = recorder.get();
  }
  const Compiled& compiled = obtain_compiled(copts);
  if (auditor != nullptr) {
    audit_compiled(*auditor, compiled, copts.sched, copts.enable_scheduling);
  }

  RuntimeConfig rt = cfg.runtime;
  rt.use_runtime_scheduler = cfg.use_scheme;
  if (cluster_ == nullptr) {
    // dasched-lint: allow(hot-alloc): first run / post-rebuild construction
    cluster_ = std::make_unique<Cluster>(sim, storage, compiled, rt);
  } else {
    cluster_->reset(compiled, rt);
  }
  bound_compiled_ = &compiled;

  // Run until the application completes; power-policy timers may keep the
  // event queue alive past that point, and accounting must stop at the
  // application's end (the paper's energies cover program execution).
  cluster_->run_to_completion();

  if (!cluster_->all_finished()) {
    // dasched-lint: allow(hot-alloc): fatal-error path, never on success
    throw std::runtime_error("experiment '" + cfg.app +
                             "': simulation drained but clients are stuck");
  }

  result_.app = cfg.app;
  result_.policy = cfg.policy;
  result_.scheme = cfg.use_scheme;
  result_.exec_time = cluster_->exec_time();
  storage.finalize_into(result_.storage);
  result_.energy_j = result_.storage.energy_j;
  result_.runtime = cluster_->stats();
  result_.sched = compiled.sched_stats;
  result_.events = sim.events_executed();
  result_.audited = false;
  result_.audit_violations = 0;
  result_.telemetry = nullptr;

  if (recorder != nullptr) {
    // finalize() above fired the trailing accruals, so the trace now tiles
    // every disk's timeline completely.
    recorder->meta().end_time = sim.now();
    // dasched-lint: allow(hot-alloc): telemetry summary, opt-in runs only
    auto summary = std::make_shared<TelemetrySummary>(
        // dasched-lint: allow(hot-alloc): telemetry analysis, opt-in only
        analyze_trace(recorder->buffer(), recorder->meta()));

    // Reconcile the energy-by-state breakdown against the scalar total.
    // Under an auditor this extends the energy-conservation invariant;
    // without one a divergence is a fatal telemetry bug.
    if (checks.energy != nullptr) {
      checks.energy->cross_check_aggregate(summary->energy_by_state_j,
                                           result_.energy_j, sim.now());
    }
    const double scale = std::max(std::fabs(result_.energy_j.value()), 1.0);
    if (std::fabs((summary->energy_total_j - result_.energy_j).value()) >
        kEnergyRelEps * scale) {
      // dasched-lint: allow(hot-alloc): fatal-error path, never on success
      throw std::runtime_error(
          "telemetry: energy-by-state breakdown diverges from the scalar "
          // dasched-lint: allow(hot-alloc): fatal-error path
          "total for experiment '" +
          cfg.app + "'");  // dasched-lint: allow(hot-alloc): fatal path
    }

    if (!cfg.telemetry.dir.empty()) {
      write_telemetry_artifacts(cfg.telemetry.dir, recorder->buffer(),
                                recorder->meta(), *summary);
    }
    result_.telemetry = std::move(summary);
  }

  if (auditor != nullptr) {
    auditor->finalize();
    result_.audited = true;
    result_.audit_violations = auditor->violations_total();
  }
  in_run_ = false;
  ++runs_completed_;
  return result_;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                ExperimentWorkspace& ws) {
  return ws.run(cfg);
}

}  // namespace dasched

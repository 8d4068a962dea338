// The traced run: one experiment rebuilt from the public calls that
// ExperimentWorkspace::run makes on the classic engine, with a span around
// each call.  Nothing inside the program is instrumented.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "compiler/compile.h"
#include "io/cluster.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"
#include "workload/app.h"

namespace perfbench {

using namespace dasched;

ExperimentResult traced_experiment(const ExperimentConfig& cfg, SpanLog& log) {
  if (cfg.shards != 0 || cfg.audit || cfg.telemetry.enabled()) {
    throw std::invalid_argument(
        "traced_experiment: classic engine, unaudited, untraced runs only");
  }
  validate_experiment_topology(cfg);
  Scoped whole(log, "experiment");

  std::optional<Simulator> sim;
  std::optional<StorageSystem> storage;
  {
    Scoped s(log, "sim.construct");
    sim.emplace();
    sim->reserve_events(default_event_reserve(cfg.storage, cfg.scale));
    StorageConfig storage_cfg = cfg.storage;
    storage_cfg.node.policy = cfg.policy;
    storage_cfg.node.policy_cfg = cfg.policy_cfg;
    storage_cfg.seed = cfg.seed;
    storage.emplace(*sim, storage_cfg);
    s.count("io_nodes", storage->num_io_nodes());
  }

  const App& app = app_by_name(cfg.app);
  CompiledProgram lowered;
  {
    Scoped s(log, "workload.build");
    lowered = app.build(storage->striping(), cfg.scale);
    s.count("accesses", lowered.total_ops());
  }

  CompileOptions copts = cfg.compile;
  copts.enable_scheduling = cfg.use_scheme;
  copts.slack.length_unit = app.length_unit;
  copts.slack.max_slack = cfg.max_slack;

  // compile_trace, call by call.
  Compiled compiled;
  {
    Scoped s(log, "compiler.slack");
    analyze_slacks(lowered, storage->striping(), copts.slack);
  }
  {
    Scoped s(log, "core.schedule");
    if (copts.enable_scheduling && !lowered.reads.empty()) {
      AccessScheduler scheduler(storage->striping().num_io_nodes(),
                                std::max<Slot>(lowered.num_slots, 1),
                                copts.sched);
      compiled.scheduled = scheduler.schedule(lowered.reads);
      compiled.sched_stats = scheduler.stats();
    } else {
      compiled.scheduled.reserve(lowered.reads.size());
      for (const AccessRecord& rec : lowered.reads) {
        compiled.scheduled.push_back(ScheduledAccess{rec, rec.original, false});
      }
      compiled.sched_stats.scheduled =
          static_cast<std::int64_t>(compiled.scheduled.size());
    }
    s.count("scheduled", compiled.sched_stats.scheduled);
    s.count("forced", compiled.sched_stats.forced);
    s.count("theta_fallbacks", compiled.sched_stats.theta_fallbacks);
  }
  {
    Scoped s(log, "core.table");
    compiled.table = SchedulingTable(compiled.scheduled);
    s.count("entries", compiled.table.total_entries());
  }
  compiled.program = std::move(lowered);

  RuntimeConfig rt = cfg.runtime;
  rt.use_runtime_scheduler = cfg.use_scheme;
  std::optional<Cluster> cluster;
  {
    Scoped s(log, "io.cluster");
    cluster.emplace(*sim, *storage, compiled, rt);
    s.count("processes", cluster->num_processes());
  }
  {
    Scoped s(log, "sim.run");
    cluster->run_to_completion();
    s.count("events", sim->events_executed());
  }
  if (!cluster->all_finished()) {
    throw std::runtime_error("traced run of '" + cfg.app +
                             "': simulation drained but clients are stuck");
  }

  ExperimentResult r;
  r.app = cfg.app;
  r.policy = cfg.policy;
  r.scheme = cfg.use_scheme;
  r.exec_time = cluster->exec_time();
  {
    Scoped s(log, "storage.finalize");
    storage->finalize_into(r.storage);
    s.count("requests", r.storage.requests);
  }
  r.energy_j = r.storage.energy_j;
  r.runtime = cluster->stats();
  r.sched = compiled.sched_stats;
  r.events = sim->events_executed();
  return r;
}

namespace {

std::int64_t span_count(const SpanLog& log, const std::string& span,
                        const std::string& key) {
  for (const SpanLog::Span& s : log.spans()) {
    if (s.name != span) continue;
    for (const auto& [k, v] : s.counts) {
      if (k == key) return v;
    }
  }
  return 0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void report_traced_layers(Report& report, const SpanLog& log,
                          const ExperimentResult& r) {
  const auto count = [&report](const std::string& name, std::int64_t v) {
    report.layer(name, static_cast<double>(v), "count");
  };
  report.layer("workload.build_s", log.total("workload.build"), "s");
  count("workload.accesses", span_count(log, "workload.build", "accesses"));
  report.layer("compiler.slack_s", log.total("compiler.slack"), "s");
  report.layer("core.schedule_s", log.total("core.schedule"), "s");
  report.layer("core.table_s", log.total("core.table"), "s");
  count("core.forced", r.sched.forced);
  count("core.theta_fallbacks", r.sched.theta_fallbacks);

  // Simulator + StorageSystem + Cluster construction and the run itself.
  report.layer("sim.simulate_s",
               log.total("sim.construct") + log.total("io.cluster") +
                   log.total("sim.run"),
               "s");
  count("sim.events", r.events);
  report.layer("sim.ns_per_event",
               ratio(log.total("sim.run") * 1e9, static_cast<double>(r.events)),
               "ns");

  const RuntimeStats& rt = r.runtime;
  count("io.prefetches", rt.prefetches);
  report.layer("io.hit_ratio",
               ratio(static_cast<double>(rt.buffer_hits + rt.in_flight_hits),
                     static_cast<double>(rt.prefetches)),
               "ratio");
  count("io.wasted", rt.buffer.wasted);
  count("io.full_rejections", rt.buffer.full_rejections);

  const StorageStats& st = r.storage;
  count("storage.requests", st.requests);
  count("storage.disk_requests", st.disk_requests);
  report.layer("storage.cache_hit_rate", st.cache_hit_rate, "ratio");
  report.layer("storage.finalize_s", log.total("storage.finalize"), "s");
  count("power.spin_downs", st.spin_downs);
  count("power.spin_ups", st.spin_ups);
  count("power.rpm_changes", st.rpm_changes);
}

}  // namespace perfbench

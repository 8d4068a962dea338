// paper-grid: the paper's evaluation grid through run_grid — 6 apps x 5
// policies x scheme on/off = 60 cells at scale 0.1 — with fresh worker
// workspaces per invocation and 2 worker threads.  Many small cells with
// distinct compile keys put the host time in workload, compiler and core,
// the workspace compile LRU and the engine's worker pool.
#include <algorithm>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "check/audit.h"
#include "driver/workspace.h"
#include "engine/grid_runner.h"

namespace perfbench {

using namespace dasched;

namespace {

ExperimentGrid paper_grid(const Options& opt) {
  ExperimentGrid grid;
  grid.base.scale.factor = opt.smoke ? 0.02 : 0.1;
  grid.base.scale.num_processes = opt.smoke ? 4 : 32;
  grid.apps.clear();
  if (opt.smoke) {
    grid.apps = {"sar", "hf"};
    grid.policies = {PolicyKind::kNone, PolicyKind::kHistory};
  } else {
    for (const App& app : all_apps()) grid.apps.push_back(app.name);
    grid.policies = {PolicyKind::kNone, PolicyKind::kSimple,
                     PolicyKind::kPrediction, PolicyKind::kHistory,
                     PolicyKind::kStaggered};
  }
  grid.schemes = {false, true};
  grid.base_seed = opt.seed;
  return grid;
}

struct Invocation {
  double wall_s = 0.0;
  std::vector<double> cell_s;  // service time, by cell index
  std::vector<double> done_s;  // completion since the call started
  GridResultSet results;
};

/// One run_grid call.  A cell's service time is the interval between its
/// worker's previous completion (or the start) and its own, seen via
/// on_cell_done.
Invocation invoke(const ExperimentGrid& grid, int threads) {
  Invocation inv;
  inv.cell_s.assign(grid.size(), 0.0);
  inv.done_s.assign(grid.size(), 0.0);
  std::map<std::thread::id, Clock::time_point> last;
  GridRunOptions o;
  o.threads = threads;
  o.workspace = 1;
  const auto t0 = Clock::now();
  o.on_cell_done = [&](const GridCell& cell) {
    const auto now = Clock::now();
    const auto [it, fresh] = last.emplace(std::this_thread::get_id(), t0);
    inv.cell_s[cell.index] = std::chrono::duration<double>(now - it->second).count();
    inv.done_s[cell.index] = std::chrono::duration<double>(now - t0).count();
    it->second = now;
  };
  inv.results = run_grid(grid, o);
  inv.wall_s = seconds_since(t0);
  return inv;
}

}  // namespace

void run_grid_workload(const Options& opt, Report& report) {
  // Two workers keep a pool (and its straggler imbalance) while leaving
  // half of a 4-vCPU host free: with one worker per vCPU, any other load
  // on the host lands on the critical path of every call.
  const int threads = std::min(2, nproc());

  // Set-up: build the grid, expand and validate its cells, and build every
  // app's workload once on the grid's striping geometry.  A few times
  // before the first invocation and twice after each one, so the samples
  // span the whole run rather than one stretch of it.
  std::vector<double> setup_s;
  ExperimentGrid grid;
  std::vector<GridCell> cells;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    grid = paper_grid(opt);
    cells = grid.cells();
    for (const GridCell& c : cells) validate_experiment_topology(c.config);
    for (const std::string& name : grid.apps) {
      StripingMap striping(grid.base.storage.num_io_nodes,
                           grid.base.storage.stripe_size);
      const CompiledProgram program = app_by_name(name).build(striping, grid.base.scale);
      if (program.total_ops() == 0) report.fail("empty workload: " + name);
    }
    setup_s.push_back(seconds_since(t0));
  };
  for (int k = 0; k < 3; ++k) set_up();

  // Timed invocations.
  std::vector<std::vector<std::uint8_t>> want(cells.size());
  // Cell times and rates are means over the whole run: cells of different
  // apps and policies take different times, so a median over cells would
  // sit in a gap between groups, and a median over the few calls of a run
  // would jump with the host's speed phases.
  double on_cell_s = 0.0;
  double off_cell_s = 0.0;
  std::int64_t on_cells = 0;
  std::int64_t off_cells = 0;
  std::vector<double> all_cell_s;
  // Latency as a caller streaming the cells sees it: from the call to each
  // cell's result.
  std::vector<double> result_ms;
  std::vector<double> call_s;
  double wall_s = 0.0;
  double events = 0.0;
  double busy_s = 0.0;
  double cell_max_s = 0.0;
  int invocations = 0;
  GridResultSet first;
  // Set-up samples taken between invocations do not count against the
  // run's measuring time.
  double paused_s = 0.0;
  const auto loop0 = Clock::now();
  while (invocations < 2 || seconds_since(loop0) - paused_s < opt.seconds) {
    ExperimentGrid g = grid;
    // The injected mismatch: one invocation run with another seed.
    if (opt.inject_mismatch && invocations == 1) g.base_seed = grid.base_seed + 1;
    Invocation inv = invoke(g, threads);
    wall_s += inv.wall_s;
    call_s.push_back(inv.wall_s);
    for (const GridCellResult& row : inv.results.rows()) {
      const std::size_t i = row.cell.index;
      std::vector<std::uint8_t> bytes =
          result_bytes(row.result, static_cast<std::uint32_t>(i));
      if (invocations == 0) {
        want[i] = std::move(bytes);
      } else {
        report.expect_same(want[i], bytes, "grid cell " + std::to_string(i));
      }
      events += static_cast<double>(row.result.events);
      const double s = inv.cell_s[i];
      if (row.cell.scheme) {
        on_cell_s += s;
        ++on_cells;
      } else {
        off_cell_s += s;
        ++off_cells;
      }
      all_cell_s.push_back(s);
      result_ms.push_back(inv.done_s[i] * 1e3);
      busy_s += s;
      cell_max_s = std::max(cell_max_s, s);
    }
    report.attempted(static_cast<std::int64_t>(inv.results.size()));
    if (invocations == 0) first = std::move(inv.results);
    ++invocations;
    const auto pause0 = Clock::now();
    set_up();
    set_up();
    paused_s += seconds_since(pause0);
  }

  // The paper's headline over the grid: mean over app x policy of the
  // scheme-on / scheme-off energy and execution time.
  double energy_sum = 0.0;
  double exec_sum = 0.0;
  int pairs = 0;
  for (const std::string& app : grid.apps) {
    for (PolicyKind p : grid.policies) {
      const ExperimentResult& on = first.find(app, p, true);
      const ExperimentResult& off = first.find(app, p, false);
      energy_sum += on.energy_j / off.energy_j;
      exec_sum += static_cast<double>(on.exec_time.count()) /
                  static_cast<double>(off.exec_time.count());
      ++pairs;
    }
  }

  // The cell the audited and the traced runs rebuild: sar / History / on.
  const auto probe_it = std::find_if(cells.begin(), cells.end(), [](const GridCell& c) {
    return c.app == "sar" && c.policy == PolicyKind::kHistory && c.scheme;
  });
  if (probe_it == cells.end()) throw std::logic_error("grid has no sar/History/on cell");
  const GridCell& probe = *probe_it;
  const auto probe_index = static_cast<std::uint32_t>(probe.index);
  {
    SimAuditor auditor;
    ExperimentResult audited = run_experiment(probe.config, &auditor);
    report.attempted();
    if (!auditor.clean()) report.fail("audit: " + auditor.report());
    audited.audited = false;
    audited.audit_violations = 0;
    report.expect_same(want[probe.index], result_bytes(audited, probe_index),
                       "audited grid cell");
  }

  const double run_s = on_cell_s / static_cast<double>(on_cells);
  const double baseline_run_s = off_cell_s / static_cast<double>(off_cells);

  double q = 0.0;
  const double p_tail = tail(result_ms, &q);
  report.end_to_end("setup_s", median(setup_s), "s");
  report.end_to_end("run_s", run_s, "s");
  report.end_to_end("baseline_run_s", baseline_run_s, "s");
  report.end_to_end("events_per_s", events / wall_s, "1/s");
  report.end_to_end("cells_per_s", static_cast<double>(on_cells + off_cells) / wall_s, "1/s");
  report.end_to_end("req_per_s", invocations / wall_s, "1/s");
  report.end_to_end("latency_p50_ms", median(result_ms), "ms");
  report.end_to_end("latency_p99_ms", p_tail, "ms");
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report.end_to_end("sim_energy_ratio", energy_sum / pairs, "ratio");
  report.end_to_end("sim_exec_ratio", exec_sum / pairs, "ratio");
  {
    std::ostringstream n;
    n << "threads=" << threads << " invocations=" << invocations
      << " cells=" << all_cell_s.size() << " tail quantile=" << q
      << " (latency_p99_ms)";
    report.note(n.str());
    note_samples(report, "setup_s", setup_s);
    note_samples(report, "run_grid call s", call_s);
  }

  if (!opt.trace) return;

  report.layer("engine.cell_s_p50", median(all_cell_s), "s");
  report.layer("engine.cell_s_max", cell_max_s, "s");
  report.layer("engine.worker_busy_frac", busy_s / (threads * wall_s), "ratio");

  // The grid's cells in order through one workspace, as a one-thread
  // run_grid would run them; its counters stand for the workers'.
  SpanLog log;
  ExperimentWorkspace ws;
  std::vector<double> prepare_s;
  for (const GridCell& c : cells) {
    {
      Scoped s(log, "driver.prepare");
      const auto t0 = Clock::now();
      ws.prepare(c.config);
      prepare_s.push_back(seconds_since(t0));
    }
    Scoped s(log, "driver.run");
    const ExperimentResult& r = ws.run(c.config);
    report.attempted();
    report.expect_same(want[c.index],
                       result_bytes(r, static_cast<std::uint32_t>(c.index)),
                       "serial workspace cell " + std::to_string(c.index));
  }
  report_driver_counters(report, ws, prepare_s);

  SpanLog probe_log;
  const ExperimentResult traced =
      traced_overhead(probe.config, want[probe.index], probe_index, 9, report, probe_log);
  report_traced_layers(report, probe_log, traced);
  report.layer("io.prefetch_overhead_s", run_s - baseline_run_s, "s");
  report.layer("serve.codec_us",
               codec_round_trip_us(probe.config, traced, report, &probe_log), "us");
  zero_layers(report, {"serve"});
  for (const std::string& line : log.lines()) report.note(line);
  for (const std::string& line : probe_log.lines()) report.note(line);
}

}  // namespace perfbench

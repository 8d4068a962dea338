// Shape-change and failure-recovery semantics of ExperimentWorkspace.
//
// The differential tests pin "reuse == fresh" for a fixed topology; these
// pin the *rebuild decisions*: a topology change rebuilds exactly the
// components whose shape changed (and the rebuilt stack matches fresh
// construction), the engine is built once per workspace, and a run that
// threw mid-flight poisons the workspace so the next run rebuilds from
// scratch instead of trusting half-mutated state.  Plus the grid-level knob:
// a grid run with workspace reuse on must be bit-identical to the legacy
// fresh-per-cell path, and the topology validator that guards every run.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "driver/workspace.h"
#include "engine/grid_runner.h"

namespace dasched {
namespace {

ExperimentConfig base_cell() {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  return cfg;
}

void expect_bits(double actual, double expected, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": got " << std::hexfloat << actual << ", expected "
      << expected << std::defaultfloat;
}

void expect_matches_fresh(ExperimentWorkspace& ws,
                          const ExperimentConfig& cfg) {
  const ExperimentResult fresh = run_experiment(cfg);
  const ExperimentResult& reused = ws.run(cfg);
  EXPECT_EQ(reused.exec_time.count(), fresh.exec_time.count());
  expect_bits(reused.energy_j.value(), fresh.energy_j.value(), "energy_j");
  EXPECT_EQ(reused.events, fresh.events);
  EXPECT_EQ(reused.storage.per_node.size(), fresh.storage.per_node.size());
}

TEST(WorkspaceShape, NodeCountChangeRebuildsCleanly) {
  ExperimentConfig cfg = base_cell();
  ExperimentWorkspace ws;
  expect_matches_fresh(ws, cfg);

  // Topology change: more I/O nodes.  The engine survives (it is
  // shape-independent); storage and workload rebuild.
  cfg.storage.num_io_nodes = 4;
  expect_matches_fresh(ws, cfg);
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
  EXPECT_EQ(ws.workload_builds(), 2u);

  // And back down: capacity stays (high-water mark), results stay exact.
  cfg.storage.num_io_nodes = 8;
  expect_matches_fresh(ws, cfg);
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
}

TEST(WorkspaceShape, DiskAndPolicyChangesResetInPlace) {
  ExperimentConfig cfg = base_cell();
  ExperimentWorkspace ws;
  expect_matches_fresh(ws, cfg);

  cfg.storage.node.num_disks = 4;  // per-node disk array rebuild
  expect_matches_fresh(ws, cfg);

  cfg.policy = PolicyKind::kStaggered;  // policy swap on warm disks
  expect_matches_fresh(ws, cfg);

  cfg.policy = PolicyKind::kNone;  // policy removal
  expect_matches_fresh(ws, cfg);
  EXPECT_EQ(ws.engine_rebuilds(), 1u)
      << "none of these shapes should touch the engine";
}

TEST(WorkspaceShape, InvalidTopologyRejectedWithoutPoisoning) {
  ExperimentWorkspace ws;
  expect_matches_fresh(ws, base_cell());

  ExperimentConfig bad = base_cell();
  bad.storage.num_io_nodes = 0;
  EXPECT_THROW((void)ws.run(bad), std::invalid_argument);
  // Validation fails before any component is touched: not poisoned, and the
  // warm stack keeps producing exact results.
  EXPECT_FALSE(ws.poisoned());
  expect_matches_fresh(ws, base_cell());
}

TEST(WorkspaceShape, MidRunThrowPoisonsThenRecovers) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dasched_ws_poison_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // A regular file where the telemetry path wants a directory: the run
  // executes fully, then throws inside the telemetry export — after the
  // simulation mutated every component, i.e. a genuine mid-run failure.
  { std::ofstream block(dir / "blocker"); }

  ExperimentConfig cfg = base_cell();
  ExperimentWorkspace ws;
  expect_matches_fresh(ws, cfg);

  ExperimentConfig traced = cfg;
  traced.telemetry.level = TraceLevel::kState;
  traced.telemetry.dir = (dir / "blocker" / "sub").string();
  EXPECT_THROW((void)ws.run(traced), std::exception);
  EXPECT_TRUE(ws.poisoned());

  // The next run detects the poison, rebuilds from scratch (engine
  // included), and is exact.
  EXPECT_EQ(ws.engine_rebuilds(), 1u);
  expect_matches_fresh(ws, cfg);
  EXPECT_FALSE(ws.poisoned());
  EXPECT_EQ(ws.engine_rebuilds(), 2u);
  expect_matches_fresh(ws, cfg);
  EXPECT_EQ(ws.engine_rebuilds(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(WorkspaceShape, GridWorkspaceKnobIsBitIdentical) {
  ExperimentGrid grid;
  grid.base = base_cell();
  grid.apps = {"sar", "madbench2"};
  grid.policies = {PolicyKind::kHistory, PolicyKind::kSimple};
  grid.schemes = {false, true};

  GridRunOptions fresh_opts;
  fresh_opts.threads = 1;
  fresh_opts.workspace = 0;  // legacy fresh-per-cell
  GridRunOptions reuse_opts;
  reuse_opts.threads = 1;
  reuse_opts.workspace = 1;  // warm per-worker workspace

  const GridResultSet fresh = run_grid(grid, fresh_opts);
  const GridResultSet reused = run_grid(grid, reuse_opts);
  ASSERT_EQ(fresh.size(), reused.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const ExperimentResult& a = fresh.rows()[i].result;
    const ExperimentResult& b = reused.rows()[i].result;
    EXPECT_EQ(a.exec_time.count(), b.exec_time.count());
    expect_bits(a.energy_j.value(), b.energy_j.value(), "energy_j");
    expect_bits(a.storage.cache_hit_rate, b.storage.cache_hit_rate,
                "cache_hit_rate");
    EXPECT_EQ(a.events, b.events);
  }
}

TEST(ShardTopologyValidation, RejectsDegenerateTopologies) {
  ExperimentConfig cfg = base_cell();
  cfg.scale.num_processes = 0;
  EXPECT_THROW(validate_experiment_topology(cfg), std::invalid_argument);

  cfg = base_cell();
  cfg.storage.num_io_nodes = 0;
  EXPECT_THROW(validate_experiment_topology(cfg), std::invalid_argument);
}

TEST(ShardTopologyValidation, AcceptsTopologiesBeyondThePaperCap) {
  // >8 nodes and >32 clients are first-class configurations; the validator
  // only rejects genuinely inconsistent combinations.
  ExperimentConfig cfg = base_cell();
  cfg.scale.num_processes = 512;
  cfg.storage.num_io_nodes = 64;
  EXPECT_NO_THROW(validate_experiment_topology(cfg));
}

TEST(ShardTopologyValidation, RejectsAnyShardCountButZero) {
  // There is one serial engine; the retained field must stay 0.
  for (const int shards : {1, 4, -1}) {
    ExperimentConfig cfg = base_cell();
    cfg.shards = shards;
    try {
      validate_experiment_topology(cfg);
      FAIL() << "shards=" << shards << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.field(), "shards");
    }
    EXPECT_THROW((void)run_experiment(cfg), ConfigError);
  }
}

}  // namespace
}  // namespace dasched

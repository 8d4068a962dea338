// Wire-protocol unit tests: frame layout, request round-trips, the
// bit-exact result codec, and structured errors (DESIGN.md §17).
//
// The codec tests compare *serialized bytes*, not fields: if
// serialize(deserialize(serialize(r))) differs anywhere from
// serialize(r), some field was dropped, reordered, or rounded — exactly
// the class of bug that would silently break the daemon's bit-identity
// guarantee.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/workspace.h"
#include "engine/experiment_grid.h"
#include "serve/protocol.h"

namespace dasched::serve {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  cfg.seed = 7;
  return cfg;
}

TEST(ServeProtocol, FrameLayoutIsLengthTypePayload) {
  std::vector<std::uint8_t> out;
  append_frame(out, FrameType::kPing, std::string_view("abc"));
  ASSERT_EQ(out.size(), 4u + 1u + 3u);
  std::uint32_t len = 0;
  std::memcpy(&len, out.data(), 4);
  EXPECT_EQ(len, 4u);  // type byte + 3 payload bytes
  EXPECT_EQ(out[4], static_cast<std::uint8_t>(FrameType::kPing));
  EXPECT_EQ(std::memcmp(out.data() + 5, "abc", 3), 0);

  // Frames append; the writer never truncates a batched reply.
  append_frame(out, FrameType::kDone, std::string_view(""));
  EXPECT_EQ(out.size(), 8u + 4u + 1u);
}

TEST(ServeProtocol, RunRequestRoundTrips) {
  ExperimentConfig cfg = small_cfg();
  cfg.storage.num_io_nodes = 5;
  cfg.compile.sched.delta = 17;
  cfg.compile.sched.theta = 3;
  cfg.max_slack = 123;
  cfg.scale.factor = 0.3;

  std::string text;
  format_run_request(cfg, /*audit=*/true, text);

  RunRequest req;
  parse_run_request(text, req);
  EXPECT_TRUE(req.audit);

  // Round-tripping the parsed config must reproduce the same wire text:
  // format∘parse is the identity on the wire representation.
  std::string text2;
  format_run_request(req.config, req.audit, text2);
  EXPECT_EQ(text, text2);

  EXPECT_EQ(req.config.app, "sar");
  EXPECT_EQ(req.config.policy, PolicyKind::kHistory);
  EXPECT_EQ(req.config.storage.num_io_nodes, 5);
  EXPECT_EQ(req.config.compile.sched.delta, 17);
  EXPECT_EQ(req.config.max_slack, 123);
  EXPECT_EQ(req.config.seed, 7u);
  // scale.factor crosses as %.17g — bit-exact for doubles.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(req.config.scale.factor),
            std::bit_cast<std::uint64_t>(0.3));
}

TEST(ServeProtocol, RunRequestParseReusesConfigAndResets) {
  RunRequest req;
  std::string text;
  ExperimentConfig cfg = small_cfg();
  cfg.runtime.buffer_capacity = mib(32);
  format_run_request(cfg, false, text);
  parse_run_request(text, req);
  ASSERT_EQ(req.config.runtime.buffer_capacity, mib(32));

  // A second parse without buffer_mib= must reset to defaults, not inherit
  // the previous request's value (the config object is reused for
  // allocation reasons, never for state).
  parse_run_request("app=sar\n", req);
  EXPECT_EQ(req.config.runtime.buffer_capacity,
            ExperimentConfig{}.runtime.buffer_capacity);
}

TEST(ServeProtocol, UnknownKeyAndBadValueThrowConfigErrorWithField) {
  RunRequest req;
  // shards= and lane_assign= belonged to the removed sharded engine; old
  // clients that still send them get the same structured error.
  for (const char* key : {"bogus_knob", "shards", "lane_assign"}) {
    try {
      parse_run_request("app=sar\n" + std::string(key) + "=1\n", req);
      FAIL() << "unknown key accepted: " << key;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.field(), key);
    }
  }
  try {
    parse_run_request("app=sar\nprocs=notanumber\n", req);
    FAIL() << "bad int accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "procs");
  }
  try {
    parse_run_request("app=sar\npolicy=imaginary\n", req);
    FAIL() << "bad policy accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "policy");
  }
}

TEST(ServeProtocol, GridRequestRoundTrips) {
  ExperimentGrid grid;
  grid.base = small_cfg();
  grid.apps = {"sar", "hf"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kHistory};
  grid.schemes = {false, true};
  grid.sweep = sweep_axis_by_name("delta", {10.0, 20.0, 40.0});
  grid.base_seed = 99;
  grid.derive_seeds = true;

  std::string text;
  format_grid_request(grid, /*audit=*/false, text);

  GridRequest req;
  parse_grid_request(text, req);
  EXPECT_FALSE(req.audit);

  // The parsed grid must expand to the *same cells*: same labels, same
  // derived seeds, same per-cell wire configs.
  const std::vector<GridCell> want = grid.cells();
  const std::vector<GridCell> got = req.grid.cells();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), 2u * 2u * 2u * 3u);
  std::string a, b;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].app, want[i].app);
    EXPECT_EQ(got[i].policy, want[i].policy);
    EXPECT_EQ(got[i].scheme, want[i].scheme);
    EXPECT_EQ(got[i].sweep_name, want[i].sweep_name);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].sweep_value),
              std::bit_cast<std::uint64_t>(want[i].sweep_value));
    EXPECT_EQ(got[i].config.seed, want[i].config.seed);
    format_run_request(want[i].config, false, a);
    format_run_request(got[i].config, false, b);
    EXPECT_EQ(a, b) << "cell " << i << " config diverged over the wire";
  }
}

TEST(ServeProtocol, GridRequestRequiresAxes) {
  GridRequest req;
  try {
    parse_grid_request("app=sar\napps=sar\npolicies=default\n", req);
    FAIL() << "missing schemes= accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "grid");  // "grid needs apps=, policies=, schemes="
  }
  try {
    parse_grid_request(
        "app=sar\napps=sar\npolicies=default\nschemes=1\n"
        "sweep=imaginary:1,2\n",
        req);
    FAIL() << "unknown sweep axis accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.field(), "sweep");
  }
}

TEST(ServeProtocol, ResultCodecIsBitExact) {
  // A real run gives the codec real payload: populated histograms,
  // non-trivial doubles, per-field stats.
  ExperimentWorkspace ws;
  const ExperimentResult& r = ws.run(small_cfg());
  ASSERT_GT(r.events, 0);

  CellHeader cell;
  cell.index = 3;
  cell.has_sweep = true;
  cell.sweep_name = "delta";
  cell.sweep_value = 0.1 + 0.2;  // not exactly 0.3: rounding would show

  std::vector<std::uint8_t> wire;
  serialize_result(cell, r, wire);

  CellHeader cell2;
  ExperimentResult r2;
  deserialize_result(wire, cell2, r2);

  EXPECT_EQ(cell2.index, 3u);
  EXPECT_TRUE(cell2.has_sweep);
  EXPECT_EQ(cell2.sweep_name, "delta");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cell2.sweep_value),
            std::bit_cast<std::uint64_t>(cell.sweep_value));
  EXPECT_EQ(r2.app, r.app);
  EXPECT_EQ(r2.exec_time.count(), r.exec_time.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r2.energy_j.value()),
            std::bit_cast<std::uint64_t>(r.energy_j.value()));
  EXPECT_EQ(r2.events, r.events);

  // The authoritative check: re-serializing the decoded result must
  // reproduce every byte, histograms included.
  std::vector<std::uint8_t> wire2;
  serialize_result(cell2, r2, wire2);
  EXPECT_EQ(wire, wire2);
}

TEST(ServeProtocol, ResultCodecRejectsTruncationAndTrailingGarbage) {
  ExperimentWorkspace ws;
  const ExperimentResult& r = ws.run(small_cfg());
  std::vector<std::uint8_t> wire;
  serialize_result(CellHeader{}, r, wire);

  CellHeader cell;
  ExperimentResult out;
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, wire.size() / 2,
                          wire.size() - 1}) {
    std::vector<std::uint8_t> trunc(wire.begin(),
                                    wire.begin() + static_cast<long>(cut));
    EXPECT_THROW(deserialize_result(trunc, cell, out), ProtocolError)
        << "accepted a result truncated to " << cut << " bytes";
  }
  std::vector<std::uint8_t> padded = wire;
  padded.push_back(0);
  EXPECT_THROW(deserialize_result(padded, cell, out), ProtocolError);
}

TEST(ServeProtocol, ErrorRoundTripsAndFoldsNewlines) {
  ErrorInfo info;
  info.kind = "trace";
  info.field = "bytes";
  info.message = "bad.csv:2: field 'bytes': op size must be > 0\nsecond line";
  std::string text;
  format_error(info, text);
  const ErrorInfo back = parse_error(text);
  EXPECT_EQ(back.kind, "trace");
  EXPECT_EQ(back.field, "bytes");
  // The line-oriented encoding folds embedded newlines to spaces rather
  // than corrupting the key=value framing.
  EXPECT_NE(back.message.find("second line"), std::string::npos);
  EXPECT_EQ(back.message.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace dasched::serve

// Trace-replay ingestion: format parsing, the malformed-trace corpus, and
// the determinism/identity guarantees of the lowering (DESIGN.md §17).
#include "workload/trace_replay.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "driver/experiment.h"
#include "driver/workspace.h"
#include "storage/striping.h"

namespace dasched {
namespace {

constexpr const char* kGoodCsv =
    "ts_us,proc,file,offset,bytes,op\n"
    "# comment\n"
    "0,0,b.dat,0,65536,R\n"
    "0,1,a.dat,0,65536,R\n"
    "10000,0,b.dat,65536,65536,R\n"
    "10000,1,a.dat,65536,65536,W\n"
    "30000,0,a.dat,131072,65536,R\n";

// The same I/O sequence as kGoodCsv, as JSONL (key order shuffled on one
// line to prove order-independence).
constexpr const char* kGoodJsonl =
    "{\"ts_us\":0,\"proc\":0,\"file\":\"b.dat\",\"offset\":0,\"bytes\":65536,"
    "\"op\":\"R\"}\n"
    "{\"proc\":1,\"ts_us\":0,\"file\":\"a.dat\",\"offset\":0,\"bytes\":65536,"
    "\"op\":\"R\"}\n"
    "{\"ts_us\":10000,\"proc\":0,\"file\":\"b.dat\",\"offset\":65536,"
    "\"bytes\":65536,\"op\":\"R\"}\n"
    "{\"ts_us\":10000,\"proc\":1,\"file\":\"a.dat\",\"offset\":65536,"
    "\"bytes\":65536,\"op\":\"W\"}\n"
    "{\"ts_us\":30000,\"proc\":0,\"file\":\"a.dat\",\"offset\":131072,"
    "\"bytes\":65536,\"op\":\"R\"}\n";

constexpr const char* kGoodBlk =
    "0.000000,0,0,65536,R\n"
    "0.010000,0,65536,65536,R\n"
    "0.020000,1,131072,65536,W\n";

TEST(TraceReplayParse, NativeCsv) {
  const ReplayTrace t = parse_replay_trace(kGoodCsv, "t.csv", {});
  EXPECT_EQ(t.records.size(), 5u);
  EXPECT_EQ(t.num_processes, 2);
  ASSERT_EQ(t.files.size(), 2u);
  // Files are name-sorted regardless of first-appearance order.
  EXPECT_EQ(t.files[0].name, "a.dat");
  EXPECT_EQ(t.files[1].name, "b.dat");
  EXPECT_EQ(t.files[0].size, Bytes{131072 + 65536});
}

TEST(TraceReplayParse, JsonlMatchesCsvFingerprint) {
  const ReplayOptions opts;
  const ReplayTrace csv = parse_replay_trace(kGoodCsv, "t.csv", opts);
  ReplayOptions jopts = opts;
  jopts.format = TraceFormat::kNativeJsonl;
  const ReplayTrace jsonl = parse_replay_trace(kGoodJsonl, "t.jsonl", jopts);
  // Identical I/O sequence => identical content fingerprint => identical
  // registered app identity, regardless of the upload encoding.
  EXPECT_EQ(replay_fingerprint(csv, opts), replay_fingerprint(jsonl, opts));
}

TEST(TraceReplayParse, FingerprintDependsOnOptions) {
  const ReplayTrace t = parse_replay_trace(kGoodCsv, "t.csv", {});
  ReplayOptions a;
  ReplayOptions b;
  b.slot_us = 20'000;
  EXPECT_NE(replay_fingerprint(t, a), replay_fingerprint(t, b));
}

TEST(TraceReplayParse, BlkFormat) {
  const ReplayTrace t = parse_replay_trace(kGoodBlk, "t.blk", {});
  EXPECT_EQ(t.records.size(), 3u);
  EXPECT_EQ(t.num_processes, 2);
  ASSERT_EQ(t.files.size(), 1u);  // single implicit file
  EXPECT_EQ(t.records[0].ts_us, 0);
  EXPECT_EQ(t.records[1].ts_us, 10'000);  // 0.01 s
}

TEST(TraceReplayParse, AutoDetectsByContent) {
  // No helpful extension: sniff the first data line.
  const ReplayTrace csv = parse_replay_trace(kGoodCsv, "upload", {});
  EXPECT_EQ(csv.records.size(), 5u);
  const ReplayTrace jsonl = parse_replay_trace(kGoodJsonl, "upload", {});
  EXPECT_EQ(jsonl.records.size(), 5u);
  const ReplayTrace blk = parse_replay_trace(kGoodBlk, "upload", {});
  EXPECT_EQ(blk.records.size(), 3u);
}

TEST(TraceReplayParse, FormatNames) {
  EXPECT_EQ(parse_trace_format("auto"), TraceFormat::kAuto);
  EXPECT_EQ(parse_trace_format("csv"), TraceFormat::kNativeCsv);
  EXPECT_EQ(parse_trace_format("jsonl"), TraceFormat::kNativeJsonl);
  EXPECT_EQ(parse_trace_format("blk"), TraceFormat::kBlk);
  EXPECT_FALSE(parse_trace_format("xml").has_value());
  EXPECT_STREQ(to_string(TraceFormat::kBlk), "blk");
}

// ---- malformed-trace corpus ----------------------------------------------
// Every entry must produce a TraceParseError with precise source/line/field
// provenance — and must never touch workspace or striping state.

struct BadCase {
  const char* name;
  const char* content;
  std::int64_t line;
  const char* field;
};

// Print a case by its name: the default byte dump would show the pointer
// values, which change from build to build and so would the test names
// that CTest discovers from the listing.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class TraceReplayMalformed : public ::testing::TestWithParam<BadCase> {};

TEST_P(TraceReplayMalformed, PreciseDiagnostics) {
  const BadCase& c = GetParam();
  try {
    (void)parse_replay_trace(c.content, "bad.csv", {});
    FAIL() << c.name << ": expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.source(), "bad.csv") << c.name;
    EXPECT_EQ(e.line(), c.line) << c.name;
    EXPECT_EQ(e.field(), c.field) << c.name;
    // what() carries the full provenance for logs.
    EXPECT_NE(std::string(e.what()).find("bad.csv:"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, TraceReplayMalformed,
    ::testing::Values(
        BadCase{"truncated_line", "0,0,a.dat,0,65536,R\n1000,0,a.dat,0\n", 2,
                "line"},
        BadCase{"out_of_order_per_proc",
                "1000,0,a.dat,0,65536,R\n500,0,a.dat,65536,65536,R\n", 2,
                "ts"},
        BadCase{"zero_byte_op", "0,0,a.dat,0,0,R\n", 1, "bytes"},
        BadCase{"negative_bytes", "0,0,a.dat,0,-4096,R\n", 1, "bytes"},
        BadCase{"overflowing_offset",
                "0,0,a.dat,9223372036854775800,65536,R\n", 1, "offset"},
        BadCase{"negative_offset", "0,0,a.dat,-1,65536,R\n", 1, "offset"},
        BadCase{"negative_ts", "-5,0,a.dat,0,65536,R\n", 1, "ts"},
        BadCase{"bad_op", "0,0,a.dat,0,65536,X\n", 1, "op"},
        BadCase{"bad_int", "zero,0,a.dat,0,65536,R\n", 1, "ts_us"},
        BadCase{"huge_proc", "0,123456789,a.dat,0,65536,R\n", 1, "proc"},
        BadCase{"empty_file_name", "0,0,,0,65536,R\n", 1, "file"}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      return info.param.name;
    });

TEST(TraceReplayMalformed, EmptyTrace) {
  try {
    (void)parse_replay_trace("# only comments\n", "empty.csv", {});
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.field(), "trace");
  }
}

TEST(TraceReplayMalformed, JsonlUnknownKey) {
  try {
    (void)parse_replay_trace(
        "{\"ts_us\":0,\"proc\":0,\"file\":\"a\",\"offset\":0,\"bytes\":1,"
        "\"op\":\"R\",\"extra\":1}\n",
        "bad.jsonl", {});
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.field(), "line");
  }
}

TEST(TraceReplayMalformed, JsonlMissingKey) {
  try {
    (void)parse_replay_trace(
        "{\"ts_us\":0,\"proc\":0,\"file\":\"a\",\"offset\":0,\"bytes\":1}\n",
        "bad.jsonl", {});
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.field(), "op");
  }
}

TEST(TraceReplayMalformed, InvalidOptions) {
  ReplayOptions opts;
  opts.slot_us = 0;
  EXPECT_THROW((void)parse_replay_trace(kGoodCsv, "t.csv", opts),
               std::invalid_argument);
  opts = {};
  opts.min_compute_us = 100;
  opts.max_compute_us = 50;
  EXPECT_THROW((void)parse_replay_trace(kGoodCsv, "t.csv", opts),
               std::invalid_argument);
  opts = {};
  opts.jitter_frac = 1.5;
  EXPECT_THROW((void)parse_replay_trace(kGoodCsv, "t.csv", opts),
               std::invalid_argument);
}

// ---- lowering + registration ---------------------------------------------

TEST(TraceReplayLower, DeterministicLowering) {
  const ReplayOptions opts;
  const ReplayTrace t = parse_replay_trace(kGoodCsv, "t.csv", opts);
  StripingMap s1(8, kib(64));
  StripingMap s2(8, kib(64));
  const CompiledProgram p1 = lower_replay(t, s1, opts);
  const CompiledProgram p2 = lower_replay(t, s2, opts);
  EXPECT_EQ(p1.num_processes(), 2);
  EXPECT_EQ(p1.num_slots, p2.num_slots);
  ASSERT_EQ(p1.processes.size(), p2.processes.size());
  for (std::size_t p = 0; p < p1.processes.size(); ++p) {
    const auto& s1p = p1.processes[p].slots;
    const auto& s2p = p2.processes[p].slots;
    ASSERT_EQ(s1p.size(), s2p.size()) << "proc " << p;
    for (std::size_t s = 0; s < s1p.size(); ++s) {
      EXPECT_EQ(s1p[s].compute, s2p[s].compute) << "proc " << p << " slot " << s;
      EXPECT_EQ(s1p[s].ops.size(), s2p[s].ops.size());
    }
  }
}

TEST(TraceReplayLower, RegisterIsContentAddressedAndIdempotent) {
  const ReplayOptions opts;
  const App& a =
      register_replay_trace(parse_replay_trace(kGoodCsv, "t.csv", opts), opts);
  const App& b =
      register_replay_trace(parse_replay_trace(kGoodCsv, "copy.csv", opts),
                            opts);
  EXPECT_EQ(&a, &b);  // same content => same registry entry
  EXPECT_EQ(a.fixed_processes, 2);
  EXPECT_EQ(a.name.rfind("replay:", 0), 0u);
  EXPECT_EQ(&app_by_name(a.name), &a);
}

TEST(TraceReplayLower, ReplayAppRunsAndIsReproducible) {
  const ReplayOptions opts;
  const App& app =
      register_replay_trace(parse_replay_trace(kGoodCsv, "t.csv", opts), opts);
  ExperimentConfig cfg;
  cfg.app = app.name;
  cfg.scale.num_processes = app.fixed_processes;
  const ExperimentResult r1 = run_experiment(cfg);
  const ExperimentResult r2 = run_experiment(cfg);
  EXPECT_GT(r1.events, 0);
  EXPECT_EQ(r1.exec_time, r2.exec_time);
  EXPECT_EQ(r1.energy_j.value(), r2.energy_j.value());
  EXPECT_EQ(r1.events, r2.events);
}

TEST(TraceReplayLower, WorkspaceSurvivesFailedParseThenRuns) {
  // A malformed upload must never poison a warm workspace: parsing happens
  // entirely before any workspace/striping mutation.
  ExperimentWorkspace ws;
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  const ExperimentResult base = run_experiment(cfg, ws);
  EXPECT_THROW((void)parse_replay_trace("0,0,a.dat,0,0,R\n", "bad.csv", {}),
               TraceParseError);
  EXPECT_FALSE(ws.poisoned());
  const ExperimentResult again = run_experiment(cfg, ws);
  EXPECT_EQ(base.exec_time, again.exec_time);
  EXPECT_EQ(base.energy_j.value(), again.energy_j.value());
}

TEST(TraceReplayLower, WrongProcessCountThrows) {
  const ReplayOptions opts;
  const App& app =
      register_replay_trace(parse_replay_trace(kGoodCsv, "t.csv", opts), opts);
  ExperimentConfig cfg;
  cfg.app = app.name;
  cfg.scale.num_processes = app.fixed_processes + 3;
  EXPECT_THROW((void)run_experiment(cfg), std::invalid_argument);
}

TEST(TraceReplayLower, RegisterAppRejectsBuiltinShadowing) {
  App bogus;
  bogus.name = "sar";
  EXPECT_THROW((void)register_app(std::move(bogus)), std::invalid_argument);
}

}  // namespace
}  // namespace dasched

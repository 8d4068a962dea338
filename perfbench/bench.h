// Shared pieces of the layered benchmark (README.md in this directory).
//
// The benchmark drives the dasched libraries from outside: it only calls
// public functions of src/ modules and times those calls on the host's
// steady clock.  Every workload fills one `Report`; main.cc prints it.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/workspace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Tiny configurations and short loops, for the benchmark's own tests.
  bool smoke = false;
  /// Runs one path with another seed so the digest check must trip.
  bool inject_mismatch = false;
  /// Root of the source checkout (examples/traces lives under it).
  std::string root = ".";
  /// The dasched_serve binary the daemon workload starts.
  std::string serve_binary;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPUs this process may run on (what nproc(1) prints).
[[nodiscard]] int nproc();

/// Median of `v` (mean of the two middle values for an even count).
[[nodiscard]] double median(std::vector<double> v);

/// Tail latency: the highest quantile (at most 0.99) that still has at
/// least ten samples above it, never below the median.  `q_used` receives
/// the quantile taken.
[[nodiscard]] double tail(std::vector<double> v, double* q_used);

/// Peak resident set (VmHWM) of a process, in MB; `pid` 0 means this one.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// The bit-exact wire encoding of one result (serve/protocol.h), used as
/// the digest every correctness comparison is made on.
[[nodiscard]] std::vector<std::uint8_t> result_bytes(
    const dasched::ExperimentResult& r, std::uint32_t index = 0);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation measured and checked.
class Report {
 public:
  void end_to_end(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  /// One operation of the timed work (a run, a grid cell, a request).
  void attempted(std::int64_t n = 1) { attempted_ += n; }
  /// One failed operation or failed correctness check; `why` is printed.
  void fail(const std::string& why);
  /// Compares `got` with `want`; a difference is one failure.
  void expect_same(const std::vector<std::uint8_t>& want,
                   const std::vector<std::uint8_t>& got, const std::string& what);
  /// A human-readable line printed before the result line.
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] std::int64_t attempted_count() const { return attempted_; }
  [[nodiscard]] std::int64_t failed_count() const { return failed_; }
  [[nodiscard]] double failed_frac() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  [[nodiscard]] const std::vector<Metric>& end_to_end() const { return e2e_; }
  [[nodiscard]] const std::vector<Metric>& layers() const { return layers_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Spans the traced run records around each public call it makes.  They
/// stay in memory and are printed when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;  // relative to the log's creation
    double dur_s = 0.0;
    std::vector<std::pair<std::string, std::int64_t>> counts;
  };

  /// Opens a span under the innermost open one; returns its id.
  int open(const std::string& name);
  void close(int id);
  void count(int id, const std::string& key, std::int64_t value);

  /// Total duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// One line per span with its duration, self time and counts.
  [[nodiscard]] std::vector<std::string> lines() const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, const std::string& name) : log_(log), id_(log.open(name)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  void count(const std::string& key, std::int64_t v) { log_.count(id_, key, v); }

 private:
  SpanLog& log_;
  int id_;
};

/// Rebuilds one classic-engine experiment from the public calls the
/// workspace makes (App::build, analyze_slacks, AccessScheduler::schedule,
/// SchedulingTable, Simulator + StorageSystem + Cluster, finalize_into),
/// with a span around each.  The result must be byte-identical to
/// ExperimentWorkspace::run on the same config.
[[nodiscard]] dasched::ExperimentResult traced_experiment(
    const dasched::ExperimentConfig& cfg, SpanLog& log);

/// Per-layer metrics every workload reports from its traced experiment:
/// workload.*, compiler.*, core.*, sim.*, io.* counts, storage.*, power.*.
void report_traced_layers(Report& report, const SpanLog& log,
                          const dasched::ExperimentResult& r);

/// serve.codec_us: median microseconds of one request's codec work —
/// format_run_request + parse_run_request of `cfg`, serialize_result +
/// deserialize_result of `r` — checking the result decodes to the same
/// bytes.  With a log, one more trip is recorded as spans.
[[nodiscard]] double codec_round_trip_us(const dasched::ExperimentConfig& cfg,
                                         const dasched::ExperimentResult& r,
                                         Report& report, SpanLog* log);

/// driver.prepare_s (median of `prepare_s`) and the counters of `ws`:
/// driver.compile_hit_ratio (base: runs completed), driver.workload_builds
/// and driver.engine_rebuilds.
void report_driver_counters(Report& report, const dasched::ExperimentWorkspace& ws,
                            const std::vector<double>& prepare_s);

/// Reports 0 for every metric of a layer that is not on the workload's
/// path: "engine" (engine.*) or "serve" (serve.overhead_ms, upload_s,
/// errors).
void zero_layers(Report& report, std::initializer_list<std::string> layers);

/// trace.overhead_frac of `cfg`: the median over `reps` pairs of one
/// traced rebuild (the first one recorded in `log`) and one untraced
/// run_experiment call of traced / untraced time − 1.  Both results must
/// match `want` (wire encoding with cell `index`).  Returns the traced
/// result.
dasched::ExperimentResult traced_overhead(const dasched::ExperimentConfig& cfg,
                                          const std::vector<std::uint8_t>& want,
                                          std::uint32_t index, int reps,
                                          Report& report, SpanLog& log);

/// A note listing every sample of `name`, so the spread inside one run
/// can be read off the output.
void note_samples(Report& report, const std::string& name,
                  const std::vector<double>& samples);

// The three workloads.  Each fills `report`; a workload that cannot run
// throws.
void run_sar(const Options& opt, Report& report);
void run_grid_workload(const Options& opt, Report& report);
void run_daemon(const Options& opt, Report& report);

}  // namespace perfbench

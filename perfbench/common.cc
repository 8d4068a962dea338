#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <sstream>

#include "bench.h"
#include "serve/protocol.h"

namespace perfbench {

using namespace dasched;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v, double* q_used) {
  const double n = static_cast<double>(v.size());
  const double q = std::min(0.99, 1.0 - 10.0 / std::max(n, 1.0));
  if (q <= 0.5) {
    if (q_used != nullptr) *q_used = 0.5;
    return median(std::move(v));
  }
  std::sort(v.begin(), v.end());
  // Nearest rank: at least ten samples lie above the returned one.
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (q_used != nullptr) *q_used = q;
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("cannot read VmHWM from " + path);
}

std::vector<std::uint8_t> result_bytes(const ExperimentResult& r,
                                       std::uint32_t index) {
  serve::CellHeader cell;
  cell.index = index;
  std::vector<std::uint8_t> out;
  serve::serialize_result(cell, r, out);
  return out;
}

// --- Report ----------------------------------------------------------------

void Report::end_to_end(const std::string& name, double value,
                        const std::string& unit) {
  e2e_.push_back(Metric{name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back(Metric{name, value, unit});
}

void Report::fail(const std::string& why) {
  ++failed_;
  notes_.push_back("FAIL " + why);
}

void Report::expect_same(const std::vector<std::uint8_t>& want,
                         const std::vector<std::uint8_t>& got,
                         const std::string& what) {
  if (want != got) fail("digest mismatch: " + what);
}

// --- SpanLog ---------------------------------------------------------------

int SpanLog::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = seconds_since(origin_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.dur_s = seconds_since(origin_) - s.start_s;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::count(int id, const std::string& key, std::int64_t value) {
  spans_[static_cast<std::size_t>(id)].counts.emplace_back(key, value);
}

double SpanLog::total(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.dur_s;
  }
  return t;
}

std::vector<std::string> SpanLog::lines() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.dur_s;
  }
  std::vector<std::string> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::ostringstream line;
    line << "span " << i << " parent=" << s.parent << " " << s.name
         << " start_s=" << s.start_s << " dur_s=" << s.dur_s
         << " self_s=" << (s.dur_s - child_time[i]);
    for (const auto& [k, v] : s.counts) line << " " << k << "=" << v;
    out.push_back(line.str());
  }
  return out;
}

// --- codec ------------------------------------------------------------------

double codec_round_trip_us(const ExperimentConfig& cfg,
                           const ExperimentResult& r, Report& report,
                           SpanLog* log) {
  // One daemon request's codec work: the request text both ways and the
  // result frame both ways.  Timed in batches so each sample is well above
  // the clock's resolution.
  constexpr int kBatch = 64;
  constexpr int kSamples = 21;
  std::string request;
  serve::RunRequest parsed;
  std::vector<std::uint8_t> bytes;
  serve::CellHeader cell;
  ExperimentResult decoded;
  const std::vector<std::uint8_t> want = result_bytes(r);
  std::vector<double> per_trip_us;
  for (int s = 0; s < kSamples; ++s) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      request.clear();
      serve::format_run_request(cfg, false, request);
      serve::parse_run_request(request, parsed);
      bytes.clear();
      serve::serialize_result(serve::CellHeader{}, r, bytes);
      serve::deserialize_result(bytes, cell, decoded);
    }
    per_trip_us.push_back(seconds_since(t0) * 1e6 / kBatch);
  }
  report.expect_same(want, result_bytes(decoded),
                     "serialize_result/deserialize_result round trip");
  if (log != nullptr) {
    // The spans of one representative trip, for the span listing.
    Scoped trip(*log, "serve.codec");
    {
      Scoped s(*log, "serve.parse_run_request");
      request.clear();
      serve::format_run_request(cfg, false, request);
      serve::parse_run_request(request, parsed);
      s.count("request_bytes", static_cast<std::int64_t>(request.size()));
    }
    {
      Scoped s(*log, "serve.serialize_result");
      bytes.clear();
      serve::serialize_result(serve::CellHeader{}, r, bytes);
      s.count("result_bytes", static_cast<std::int64_t>(bytes.size()));
    }
    {
      Scoped s(*log, "serve.deserialize_result");
      serve::deserialize_result(bytes, cell, decoded);
    }
  }
  return median(per_trip_us);
}

// --- shared per-layer blocks ------------------------------------------------

void report_driver_counters(Report& report, const ExperimentWorkspace& ws,
                            const std::vector<double>& prepare_s) {
  const double completed = static_cast<double>(ws.runs_completed());
  report.layer("driver.prepare_s", median(prepare_s), "s");
  report.layer("driver.compile_hit_ratio",
               (completed - static_cast<double>(ws.compile_misses())) / completed,
               "ratio");
  report.layer("driver.workload_builds", static_cast<double>(ws.workload_builds()),
               "count");
  report.layer("driver.engine_rebuilds", static_cast<double>(ws.engine_rebuilds()),
               "count");
}

void zero_layers(Report& report, std::initializer_list<std::string> layers) {
  for (const std::string& layer : layers) {
    if (layer == "engine") {
      report.layer("engine.cell_s_p50", 0.0, "s");
      report.layer("engine.cell_s_max", 0.0, "s");
      report.layer("engine.worker_busy_frac", 0.0, "ratio");
    } else if (layer == "serve") {
      report.layer("serve.overhead_ms", 0.0, "ms");
      report.layer("serve.upload_s", 0.0, "s");
      report.layer("serve.errors", 0.0, "count");
    } else {
      throw std::logic_error("zero_layers: unknown layer " + layer);
    }
  }
}

ExperimentResult traced_overhead(const ExperimentConfig& cfg,
                                 const std::vector<std::uint8_t>& want,
                                 std::uint32_t index, int reps, Report& report,
                                 SpanLog& log) {
  // Each pair is compared on its own, so drift of the host's speed across
  // the pairs cancels out of the ratio.
  std::vector<double> traced_s;
  std::vector<double> plain_s;
  std::vector<double> overhead;
  ExperimentResult traced;
  for (int i = 0; i < reps; ++i) {
    SpanLog scratch;
    auto t0 = Clock::now();
    traced = traced_experiment(cfg, i == 0 ? log : scratch);
    traced_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const ExperimentResult plain = run_experiment(cfg);
    plain_s.push_back(seconds_since(t0));
    overhead.push_back(traced_s.back() / plain_s.back() - 1.0);
    report.attempted(2);
    report.expect_same(want, result_bytes(traced, index), "traced vs workspace run");
    report.expect_same(want, result_bytes(plain, index), "fresh workspace vs workspace run");
  }
  note_samples(report, "traced_s", traced_s);
  note_samples(report, "plain_s", plain_s);
  report.layer("trace.overhead_frac", median(overhead), "ratio");
  return traced;
}

void note_samples(Report& report, const std::string& name,
                  const std::vector<double>& samples) {
  std::ostringstream n;
  n << name << " samples:";
  for (double v : samples) n << " " << v;
  report.note(n.str());
}

}  // namespace perfbench

// Shared plumbing of the throughput harnesses (grid_throughput,
// serve_throughput): a median over repetitions and the common envelope of
// their BENCH-style JSON reports.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace dasched::bench {

/// Median of a sample vector (odd: middle; even: mean of the two middles).
/// The A/B throughput harnesses report medians, not means — a single noisy
/// repetition on a busy CI host must not move the headline number.
inline double median_seconds(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Shared envelope of the BENCH_*.json throughput reports (grid_throughput,
/// serve_throughput): every file carries the same identification fields —
/// name, workload-knob object, host_cores, nproc, reps — followed by one row
/// object per measured setting, so tooling can diff any of them with the
/// same reader.
class ThroughputJsonWriter {
 public:
  /// `workload_fields` is the inner key/value list of the "workload" object
  /// (already JSON-formatted, without braces); `reps` is appended to it.
  ThroughputJsonWriter(const char* name, const std::string& workload_fields,
                       int reps, const char* rows_key) {
    std::printf("{\n");
    std::printf("  \"name\": \"%s\",\n", name);
    const std::string inner =
        workload_fields.empty() ? std::string() : workload_fields + ", ";
    std::printf("  \"workload\": {%s\"reps\": %d},\n", inner.c_str(), reps);
    std::printf("  \"host_cores\": %u,\n", std::thread::hardware_concurrency());
    std::printf("  \"nproc\": %ld,\n", sysconf(_SC_NPROCESSORS_ONLN));
    std::printf("  \"%s\": [\n", rows_key);
  }

  /// One row object; `fields` is its inner key/value list (no braces).
  void row(const std::string& fields, bool last) {
    std::printf("    {%s}%s\n", fields.c_str(), last ? "" : ",");
  }

  void finish() { std::printf("  ]\n}\n"); }
};

}  // namespace dasched::bench

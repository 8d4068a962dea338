// dasched_perfbench — the layered benchmark's driver (README.md here).
//
//   dasched_perfbench --workload sar-512x64|paper-grid|daemon-mixed
//                     [--seed N] [--seconds S] [--trace 0|1]
//                     [--root DIR] [--serve-binary PATH]
//                     [--smoke] [--inject-mismatch]
//
// Prints what it measured as `metric` lines, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones of the separate traced run.  Exits 1 when a
// correctness check failed and 2 on a usage or run error.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "util/parse.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dasched_perfbench: %s\n"
               "usage: dasched_perfbench --workload "
               "sar-512x64|paper-grid|daemon-mixed [--seed N] [--seconds S]\n"
               "       [--trace 0|1] [--root DIR] [--serve-binary PATH] "
               "[--smoke] [--inject-mismatch]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      const auto v = dasched::parse_i64(value());
      if (!v || *v < 0) usage("--seed needs an integer >= 0");
      opt.seed = static_cast<std::uint64_t>(*v);
    } else if (arg == "--seconds") {
      const auto v = dasched::parse_f64(value());
      if (!v || !(*v > 0.0)) usage("--seconds needs a number > 0");
      opt.seconds = *v;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace needs 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--root") {
      opt.root = value();
    } else if (arg == "--serve-binary") {
      opt.serve_binary = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--inject-mismatch") {
      opt.inject_mismatch = true;
    } else {
      usage("unknown option '" + arg + "'");
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %.17g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse_args(argc, argv);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "hardware_concurrency=%u build_type=%s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, nproc(),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              opt.smoke ? " smoke" : "");

  Report report;
  try {
    if (opt.workload == "sar-512x64") {
      run_sar(opt, report);
    } else if (opt.workload == "paper-grid") {
      run_grid_workload(opt, report);
    } else if (opt.workload == "daemon-mixed") {
      run_daemon(opt, report);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "dasched_perfbench: %s\n", e.what());
    return 2;
  }
  if (opt.trace) report.layer("failed_frac", report.failed_frac(), "ratio");

  for (const std::string& line : report.notes()) std::printf("%s\n", line.c_str());
  print_metrics("end_to_end", report.end_to_end());
  print_metrics("per_layer", report.layers());

  const std::vector<Metric>& out = opt.trace ? report.layers() : report.end_to_end();
  for (const Metric& m : out) {
    if (!std::isfinite(m.value)) report.fail("metric " + m.name + " is not finite");
  }
  const bool correct = report.failed_count() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted_count()),
              static_cast<long long>(report.failed_count()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                out[i].name.c_str(), v, out[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

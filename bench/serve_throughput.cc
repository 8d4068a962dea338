// Daemon request-throughput harness.
//
// Starts an in-process ServeServer on an ephemeral loopback port and drives
// it with 1, 4 and 8 concurrent tenants, each issuing a batch of identical
// small-cell run requests over its own warm connection.  The first two
// requests per tenant are warm-up (workspace build + pool growth + compile);
// the timed batch then measures the daemon steady state — frame parse,
// zero-allocation warm run, result serialization, socket round-trip.
// Reports the median wall-clock and aggregate requests/second per tenant
// count as JSON on stdout, in the shared ThroughputJsonWriter envelope so
// tooling can diff it like the BENCH_*.json reports.
//
// Results stay bit-identical across tenant counts (each tenant owns its
// workspace; tests/serve/serve_e2e_test.cc enforces it), so the only thing
// varying here is wall-clock.
//
// Knobs (strictly parsed): DASCHED_BENCH_REPS (default 3),
// DASCHED_BENCH_SCALE (default 0.1), DASCHED_BENCH_PROCS (default 4),
// DASCHED_BENCH_REQS (requests per tenant per rep, default 16).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "engine/env_knobs.h"
#include "serve/client.h"
#include "serve/server.h"

using namespace dasched;
using serve::ServeClient;
using serve::ServeOptions;
using serve::ServeServer;

namespace {

ExperimentConfig small_cell(double scale, int procs) {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.factor = scale;
  cfg.scale.num_processes = procs;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  return cfg;
}

/// One repetition: `tenants` warm connections fire `reqs` requests each;
/// returns the wall-clock of the timed batch (warm-up excluded).
double run_once(const std::string& address, const ExperimentConfig& cfg,
                int tenants, int reqs) {
  std::vector<ServeClient> clients;
  clients.reserve(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    clients.push_back(ServeClient::connect(address));
  }
  // Warm-up outside the timer: build + steady-state re-touch per tenant.
  {
    std::vector<std::thread> warm;
    warm.reserve(clients.size());
    for (ServeClient& c : clients) {
      warm.emplace_back([&c, &cfg] {
        ServeClient::Reply reply;
        c.run(cfg, false, reply);
        c.run(cfg, false, reply);
      });
    }
    for (std::thread& t : warm) t.join();
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (ServeClient& c : clients) {
    threads.emplace_back([&c, &cfg, reqs] {
      ServeClient::Reply reply;  // reused: the client path stays warm too
      for (int i = 0; i < reqs; ++i) c.run(cfg, false, reply);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const int reps = env_int("DASCHED_BENCH_REPS", 3);
  const double scale = env_double("DASCHED_BENCH_SCALE", 0.1);
  const int procs = env_int("DASCHED_BENCH_PROCS", 4);
  const int reqs = env_int("DASCHED_BENCH_REQS", 16);
  const ExperimentConfig cfg = small_cell(scale, procs);

  ServeOptions opts;
  opts.address = "tcp:0";
  opts.max_tenants = 16;
  ServeServer server(opts);
  server.start();

  char workload[128];
  std::snprintf(workload, sizeof(workload),
                "\"scale\": %g, \"procs\": %d, \"reqs_per_tenant\": %d", scale,
                procs, reqs);
  bench::ThroughputJsonWriter json("serve", workload, reps, "tenants");

  const std::vector<int> tenant_counts = {1, 4, 8};
  for (std::size_t i = 0; i < tenant_counts.size(); ++i) {
    const int tenants = tenant_counts[i];
    std::vector<double> seconds;
    for (int rep = 0; rep < reps; ++rep) {
      seconds.push_back(run_once(server.address(), cfg, tenants, reqs));
    }
    const double med = bench::median_seconds(seconds);
    const double total = static_cast<double>(tenants) * reqs;
    std::fprintf(stderr, "[tenants=%d] median %.3fs, %.1f req/s\n", tenants,
                 med, total / med);
    char fields[128];
    std::snprintf(fields, sizeof(fields),
                  "\"tenants\": %d, \"median_seconds\": %.4f, "
                  "\"requests\": %d, \"req_per_sec\": %.2f",
                  tenants, med, tenants * reqs, total / med);
    json.row(fields, i + 1 == tenant_counts.size());
  }
  json.finish();

  server.request_shutdown();
  server.wait();
  return 0;
}

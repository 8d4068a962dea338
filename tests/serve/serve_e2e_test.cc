// End-to-end daemon tests over a real loopback-TCP listener: the full
// bit-identity gate (in-process vs single-tenant vs 4 concurrent tenants),
// grid streaming, structured error replies, poisoned-workspace recovery on
// a live connection, the tenant cap, and graceful shutdown.
//
// Results are compared through the wire codec itself: serializing both the
// in-process and the daemon-obtained result and comparing the byte vectors
// checks every field (histograms included) at the bit level in one line.
// This test runs under TSan in CI — the concurrent-tenant case is the
// multi-threaded surface of the daemon.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "driver/experiment.h"
#include "driver/workspace.h"
#include "engine/experiment_grid.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/trace_replay.h"

namespace dasched::serve {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.app = "sar";
  cfg.scale.num_processes = 4;
  cfg.scale.factor = 0.1;
  cfg.policy = PolicyKind::kHistory;
  cfg.use_scheme = true;
  cfg.seed = 11;
  return cfg;
}

/// The wire encoding of a result with a blank header — the bit-identity
/// comparison key.
std::vector<std::uint8_t> wire_bytes(const ExperimentResult& r) {
  std::vector<std::uint8_t> out;
  serialize_result(CellHeader{}, r, out);
  return out;
}

/// A started server on an ephemeral loopback port + its address.
struct TestServer {
  explicit TestServer(int max_tenants = 8) {
    ServeOptions opts;
    opts.address = "tcp:0";
    opts.max_tenants = max_tenants;
    opts.request_timeout_ms = 60'000;
    server = std::make_unique<ServeServer>(opts);
    server->start();
  }
  std::unique_ptr<ServeServer> server;
};

TEST(ServeE2E, SingleTenantMatchesInProcessBitExactly) {
  const ExperimentConfig cfg = small_cfg();
  ExperimentWorkspace ws;
  const std::vector<std::uint8_t> want = wire_bytes(ws.run(cfg));

  TestServer ts;
  ServeClient client = ServeClient::connect(ts.server->address());
  client.ping();

  ServeClient::Reply reply;
  client.run(cfg, /*audit=*/false, reply);
  EXPECT_EQ(wire_bytes(reply.result), want);
  EXPECT_TRUE(reply.telemetry_json.empty());

  // Second request on the warm workspace: still bit-identical.
  client.run(cfg, false, reply);
  EXPECT_EQ(wire_bytes(reply.result), want);
}

TEST(ServeE2E, RunWithAuditFlagIsAudited) {
  // audit=1 on a kRun must audit the run, as it does for a kGrid, and must
  // not move a result bit.
  ExperimentConfig cfg = small_cfg();
  cfg.audit = false;
  ExperimentWorkspace ws;
  const ExperimentResult& plain = ws.run(cfg);

  TestServer ts;
  ServeClient client = ServeClient::connect(ts.server->address());
  ServeClient::Reply reply;
  client.run(cfg, /*audit=*/true, reply);
  EXPECT_TRUE(reply.result.audited);
  EXPECT_EQ(reply.result.audit_violations, 0);
  EXPECT_EQ(reply.result.exec_time.count(), plain.exec_time.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reply.result.energy_j.value()),
            std::bit_cast<std::uint64_t>(plain.energy_j.value()));
  EXPECT_EQ(reply.result.events, plain.events);
}

TEST(ServeE2E, FourConcurrentTenantsAreBitIdentical) {
  const ExperimentConfig cfg = small_cfg();
  ExperimentWorkspace ws;
  const std::vector<std::uint8_t> want = wire_bytes(ws.run(cfg));

  TestServer ts;
  constexpr int kTenants = 4;
  constexpr int kRequestsPerTenant = 3;
  std::vector<std::vector<std::uint8_t>> got(kTenants);
  std::vector<std::string> errors(kTenants);
  {
    std::vector<std::jthread> threads;
    threads.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        try {
          ServeClient client = ServeClient::connect(ts.server->address());
          ServeClient::Reply reply;
          for (int i = 0; i < kRequestsPerTenant; ++i) {
            client.run(cfg, false, reply);
            const std::vector<std::uint8_t> bytes = wire_bytes(reply.result);
            if (i == 0) {
              got[t] = bytes;
            } else if (bytes != got[t]) {
              errors[t] = "tenant drifted between its own requests";
            }
          }
        } catch (const std::exception& e) {
          errors[t] = e.what();
        }
      });
    }
  }
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(errors[t], "") << "tenant " << t;
    EXPECT_EQ(got[t], want) << "tenant " << t << " diverged from in-process";
  }
  EXPECT_EQ(ts.server->connections_accepted(),
            static_cast<std::uint64_t>(kTenants));
  // Drain first: the per-frame counter increments after each reply, so only
  // a quiesced server has a deterministic count (1 hello + runs per tenant).
  ts.server->request_shutdown();
  ts.server->wait();
  EXPECT_EQ(ts.server->requests_served(),
            static_cast<std::uint64_t>(kTenants * (1 + kRequestsPerTenant)));
}

TEST(ServeE2E, ReplayUploadThenRunMatchesInProcess) {
  static constexpr std::string_view kTrace =
      "ts_us,proc,file,offset,bytes,op\n"
      "0,0,a.dat,0,262144,R\n"
      "0,1,b.dat,0,262144,R\n"
      "20000,0,a.dat,262144,262144,R\n"
      "20500,1,b.dat,262144,262144,R\n"
      "40000,0,a.dat,524288,524288,R\n"
      "40500,1,b.dat,524288,524288,R\n";
  ReplayOptions opts;
  opts.slot_us = 10'000;

  // In-process reference.
  const App& app =
      register_replay_trace(parse_replay_trace(kTrace, "mem.csv", opts), opts);
  ExperimentConfig cfg = small_cfg();
  cfg.app = app.name;
  cfg.scale.num_processes = app.fixed_processes;
  ExperimentWorkspace ws;
  const std::vector<std::uint8_t> want = wire_bytes(ws.run(cfg));

  TestServer ts;
  ServeClient client = ServeClient::connect(ts.server->address());
  const ServeClient::UploadReply up =
      client.upload_trace(kTrace, "mem.csv", opts);
  // Content-addressed: the daemon derives the same app name.
  EXPECT_EQ(up.app, app.name);
  EXPECT_EQ(up.procs, 2);
  EXPECT_EQ(up.files, 2);
  EXPECT_EQ(up.records, 6);

  ExperimentConfig remote = small_cfg();
  remote.app = up.app;
  remote.scale.num_processes = 0;  // 0 = use the replay app's own count
  ServeClient::Reply reply;
  client.run(remote, false, reply);
  EXPECT_EQ(wire_bytes(reply.result), want);
}

TEST(ServeE2E, GridStreamsCellsInDeterministicOrder) {
  ExperimentGrid grid;
  grid.base = small_cfg();
  grid.apps = {"sar"};
  grid.policies = {PolicyKind::kNone, PolicyKind::kHistory};
  grid.schemes = {false, true};
  grid.base_seed = 5;

  // In-process reference, one workspace reused across cells like the daemon.
  std::vector<std::vector<std::uint8_t>> want;
  {
    ExperimentWorkspace ws;
    for (const GridCell& cell : grid.cells()) {
      want.push_back(wire_bytes(ws.run(cell.config)));
    }
  }
  ASSERT_EQ(want.size(), 4u);

  TestServer ts;
  ServeClient client = ServeClient::connect(ts.server->address());
  std::vector<std::uint32_t> indices;
  std::vector<std::vector<std::uint8_t>> got;
  const std::size_t n =
      client.run_grid(grid, /*audit=*/false, [&](const ServeClient::Reply& r) {
        indices.push_back(r.cell.index);
        got.push_back(wire_bytes(r.result));
      });
  ASSERT_EQ(n, 4u);
  ASSERT_EQ(got.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(indices[i], i) << "cells must stream in cells() order";
    EXPECT_EQ(got[i], want[i]) << "cell " << i;
  }
}

TEST(ServeE2E, BadConfigAnswersStructuredErrorAndTenantSurvives) {
  TestServer ts;
  ServeClient client = ServeClient::connect(ts.server->address());

  ExperimentConfig bad = small_cfg();
  bad.storage.num_io_nodes = 0;  // rejected by topology validation
  try {
    (void)client.run(bad);
    FAIL() << "invalid topology accepted";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.info().kind, "config");
    EXPECT_EQ(e.info().field, "storage.num_io_nodes");
    EXPECT_FALSE(e.info().message.empty());
  }

  // The same connection still serves good requests afterwards.
  ExperimentWorkspace ws;
  const std::vector<std::uint8_t> want = wire_bytes(ws.run(small_cfg()));
  EXPECT_EQ(wire_bytes(client.run(small_cfg()).result), want);
}

TEST(ServeE2E, PoisonedWorkspaceRecoversOnSameConnection) {
  TestServer ts;
  ServeClient client = ServeClient::connect(ts.server->address());
  const ExperimentConfig cfg = small_cfg();

  // Warm the tenant, then poison its workspace: telemetry artifacts into an
  // unwritable directory throw *mid-run*, after the engine started mutating
  // state (driver/workspace.cc sets the poison marker for exactly this).
  ServeClient::Reply reply;
  client.run(cfg, false, reply);
  const std::vector<std::uint8_t> want = wire_bytes(reply.result);

  ExperimentConfig poison = cfg;
  poison.telemetry.level = TraceLevel::kState;
  // Under /dev/null so create_directories fails (ENOTDIR) even for root.
  poison.telemetry.dir = "/dev/null/not-a-directory";
  try {
    (void)client.run(poison);
    FAIL() << "unwritable telemetry dir accepted";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.info().kind, "runtime");
  }

  // Same tenant, same connection: the next run rebuilds from the poison
  // marker and is still bit-identical to the pre-poison result.
  client.run(cfg, false, reply);
  EXPECT_EQ(wire_bytes(reply.result), want);
}

TEST(ServeE2E, TelemetryStreamsOutOfBand) {
  TestServer ts;
  ServeClient client = ServeClient::connect(ts.server->address());
  ExperimentConfig cfg = small_cfg();
  cfg.telemetry.level = TraceLevel::kState;  // summary only, no dir
  const ServeClient::Reply reply = client.run(cfg);
  EXPECT_FALSE(reply.telemetry_json.empty());
  EXPECT_NE(reply.telemetry_json.find("\"energy_total_j\""), std::string::npos)
      << reply.telemetry_json.substr(0, 200);
}

TEST(ServeE2E, TenantCapRejectsWithBusyError) {
  TestServer ts(/*max_tenants=*/1);
  ServeClient first = ServeClient::connect(ts.server->address());
  first.ping();
  try {
    ServeClient second = ServeClient::connect(ts.server->address());
    second.ping();
    FAIL() << "second tenant admitted past max_tenants=1";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.info().kind, "busy");
  } catch (const std::runtime_error&) {
    // Closing the socket right after the busy frame can also surface as a
    // transport error depending on timing; both are a rejection.
  }
  EXPECT_GE(ts.server->connections_rejected(), 1u);
  first.ping();  // the admitted tenant is unaffected
}

TEST(ServeE2E, ClientShutdownDrainsServer) {
  TestServer ts;
  {
    ServeClient client = ServeClient::connect(ts.server->address());
    (void)client.run(small_cfg());
    client.shutdown_server();
  }
  // A client-initiated kShutdown must fully drain wait() without any
  // server-side request_shutdown() call.
  ts.server->wait();
  EXPECT_EQ(ts.server->requests_served(), 3u);  // hello + run + shutdown

}

TEST(ServeE2E, ServerSideShutdownUnblocksIdleConnections) {
  TestServer ts;
  ServeClient client = ServeClient::connect(ts.server->address());
  client.ping();
  ts.server->request_shutdown();
  ts.server->wait();  // must not hang on the idle connection
}

}  // namespace
}  // namespace dasched::serve

// daemon-mixed: a closed loop of tenant connections to a dasched_serve
// started in its own process.  Each tenant waits for every reply before it
// sends the next request, cycling a fixed mix: mostly warm small cells
// (scheme on, and a few scheme off), one cell per cycle with a rotating δ
// that misses the tenant's compile LRU, and one replay of
// examples/traces/sample_mixed.csv uploaded at set-up.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "driver/workspace.h"
#include "serve/client.h"
#include "workload/trace_replay.h"

extern char** environ;

namespace perfbench {

using namespace dasched;
using serve::ServeClient;

namespace {

/// A dasched_serve child on an ephemeral loopback port.  The destructor
/// stops it (SIGTERM, then SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& binary) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::array<std::string, 5> args = {binary, "--socket", "tcp:0", "--tenants", "8"};
    std::array<char*, 6> argv{};
    for (std::size_t i = 0; i < args.size(); ++i) argv[i] = args[i].data();
    const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      pid_ = 0;
      throw std::runtime_error("cannot start " + binary);
    }
    // The daemon prints its resolved address once it is accepting.
    char c = 0;
    while (read(fds[0], &c, 1) == 1 && c != '\n') address_ += c;
    close(fds[0]);
    if (address_.empty()) {
      stop();
      throw std::runtime_error(binary + " exited without an address");
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] const std::string& address() const { return address_; }
  [[nodiscard]] int pid() const { return pid_; }

  /// Reaps the daemon after a client asked it to shut down.
  void wait_exit() {
    if (pid_ <= 0) return;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = 0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("dasched_serve did not exit cleanly");
    }
  }

 private:
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 100; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = 0;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = 0;
  }

  pid_t pid_ = 0;
  std::string address_;
};

enum class Kind { kWarmOn, kWarmOff, kDelta, kReplay };

struct Step {
  Kind kind;
  /// A compile-cache hit on the workload the tenant's workspace already
  /// holds.  Only these requests are timed into run_s and baseline_run_s.
  bool warm;
};

/// One tenant cycle of 16 requests: 12 scheme-on cells, 2 scheme-off
/// cells, one rotating-δ cell and one replay.  No daemon traffic has been
/// recorded, so this mix is an assumption, kept fixed until there is some:
///  - The replay is the one request that switches the tenant's workspace
///    to another workload.  That makes every cached compile stale (the
///    workspace bumps its workload epoch), so the first scheme-on and
///    scheme-off cells after it rebuild the sar workload and compile
///    again.  With the δ cell, which misses on its own key, 4 of 16
///    requests are cold: more than 1 %, so latency_p99_ms falls among
///    cold requests and a cold-compile change shows there.
///  - The other 12 are warm hits: more than half, so latency_p50_ms falls
///    among warm requests and a codec or round-trip change shows there.
///  - 2 scheme-off cells per cycle, one of them warm, give baseline_run_s
///    and io.prefetch_overhead_s their reference.
constexpr std::array<Step, 16> kCycle = {{
    {Kind::kReplay, false}, {Kind::kWarmOn, false}, {Kind::kWarmOff, false},
    {Kind::kDelta, false},  {Kind::kWarmOn, true},  {Kind::kWarmOn, true},
    {Kind::kWarmOn, true},  {Kind::kWarmOn, true},  {Kind::kWarmOn, true},
    {Kind::kWarmOn, true},  {Kind::kWarmOff, true}, {Kind::kWarmOn, true},
    {Kind::kWarmOn, true},  {Kind::kWarmOn, true},  {Kind::kWarmOn, true},
    {Kind::kWarmOn, true}}};

/// δ values of the rotating cells; none is the warm cell's δ = 20, and
/// there are more of them than the workspace's four compile-cache slots.
constexpr std::array<int, 8> kDeltas = {5, 8, 11, 14, 17, 23, 26, 29};

struct Mix {
  ExperimentConfig warm_on;
  ExperimentConfig warm_off;
  ExperimentConfig replay;
  std::array<ExperimentConfig, kDeltas.size()> delta;

  [[nodiscard]] const ExperimentConfig& config(int tenant, std::size_t cycle,
                                               Kind kind) const {
    switch (kind) {
      case Kind::kWarmOn: return warm_on;
      case Kind::kWarmOff: return warm_off;
      case Kind::kReplay: return replay;
      case Kind::kDelta:
        break;
    }
    return delta[(static_cast<std::size_t>(tenant) + cycle) % kDeltas.size()];
  }
};

struct TenantLog {
  /// The next cycle the tenant runs; cycles continue across segments.
  std::size_t cycle = 0;
  std::vector<double> latency_ms;
  /// Latency by position in kCycle.
  std::array<std::vector<double>, kCycle.size()> step_ms;
  std::vector<double> on_s;
  /// The loop segment of each on_s sample.
  std::vector<int> on_segment;
  std::vector<double> off_s;
  /// Replies, and their simulated events, that completed before their
  /// segment's end (the overrun past it is not counted in the rates).
  std::int64_t timed_requests = 0;
  double timed_events = 0.0;
  std::int64_t requests = 0;
  std::int64_t errors = 0;
  std::vector<std::string> failures;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

}  // namespace

void run_daemon(const Options& opt, Report& report) {
  if (opt.serve_binary.empty()) throw std::runtime_error("no --serve-binary");
  // Two tenants: each keeps one daemon thread busy while it waits, so two
  // leave half of a 4-vCPU host free, and other load on the host does not
  // land in every request's latency.
  const int tenants = std::min(2, nproc());
  const std::string trace_name = "sample_mixed.csv";
  const std::string trace = read_file(opt.root + "/examples/traces/" + trace_name);
  ReplayOptions ropts;
  ropts.seed = opt.seed;

  // Set-up: daemon start + hello + trace upload.  Sampled in rounds, one
  // before each segment of the loop (below), so the samples span the whole
  // run.  A round's daemons are asked to shut down as soon as they are
  // measured and reaped together at the round's end (a daemon takes up to
  // its 200 ms accept timeout to exit); the first round's last daemon
  // serves the loop instead, and its connection becomes tenant 0's.
  const int setups_per_round = opt.smoke ? 3 : 25;
  std::vector<double> setup_s;
  std::vector<double> upload_s;
  ServeClient::UploadReply upload;
  std::unique_ptr<ServerProcess> server;
  std::optional<ServeClient> control;
  const auto set_up_round = [&](bool keep_last) {
    std::vector<std::unique_ptr<ServerProcess>> stopping;
    for (int k = 0; k < setups_per_round; ++k) {
      if (control.has_value()) {
        control->shutdown_server();
        control.reset();
        stopping.push_back(std::move(server));
      }
      const auto t0 = Clock::now();
      server = std::make_unique<ServerProcess>(opt.serve_binary);
      control.emplace(ServeClient::connect(server->address(), 50, 20));
      const auto u0 = Clock::now();
      upload = control->upload_trace(trace, trace_name, ropts);
      upload_s.push_back(seconds_since(u0));
      setup_s.push_back(seconds_since(t0));
    }
    if (!keep_last) {
      control->shutdown_server();
      control.reset();
      stopping.push_back(std::move(server));
    }
    for (const auto& p : stopping) p->wait_exit();
  };
  set_up_round(true);

  // The mix, and its in-process reference results.
  Mix mix;
  mix.warm_on.app = "sar";
  mix.warm_on.scale.num_processes = 4;
  mix.warm_on.scale.factor = opt.smoke ? 0.05 : 0.1;
  mix.warm_on.policy = PolicyKind::kHistory;
  mix.warm_on.use_scheme = true;
  mix.warm_on.seed = opt.seed;
  mix.warm_off = mix.warm_on;
  mix.warm_off.use_scheme = false;
  for (std::size_t i = 0; i < kDeltas.size(); ++i) {
    mix.delta[i] = mix.warm_on;
    mix.delta[i].compile.sched.delta = kDeltas[i];
  }
  const App& replay_app = register_replay_trace(
      parse_replay_trace(trace, trace_name, ropts), ropts);
  if (replay_app.name != upload.app) {
    report.fail("upload registered " + upload.app + ", in-process " + replay_app.name);
  }
  mix.replay = mix.warm_on;
  mix.replay.app = upload.app;
  mix.replay.scale.num_processes = upload.procs;

  ExperimentWorkspace ref_ws;
  const auto ref = [&ref_ws](const ExperimentConfig& cfg) {
    return result_bytes(ref_ws.run(cfg));
  };
  const std::vector<std::uint8_t> want_on = ref(mix.warm_on);
  const ExperimentResult ref_on = ref_ws.run(mix.warm_on);
  const ExperimentResult ref_off = ref_ws.run(mix.warm_off);
  const std::vector<std::uint8_t> want_off = result_bytes(ref_off);
  const std::vector<std::uint8_t> want_replay = ref(mix.replay);
  std::array<std::vector<std::uint8_t>, kDeltas.size()> want_delta;
  for (std::size_t i = 0; i < kDeltas.size(); ++i) want_delta[i] = ref(mix.delta[i]);
  const auto want_for = [&](const ExperimentConfig& cfg) -> const std::vector<std::uint8_t>& {
    if (&cfg == &mix.warm_on) return want_on;
    if (&cfg == &mix.warm_off) return want_off;
    if (&cfg == &mix.replay) return want_replay;
    return want_delta[static_cast<std::size_t>(&cfg - mix.delta.data())];
  };

  // The closed loop: one thread and one connection per tenant, run in
  // segments of about 5 s with a set-up round between them.  A segment's
  // deadline is checked between cycles, so tenants overrun it by at most
  // one cycle, and the overrun is left out of the rates.
  std::vector<ServeClient> clients;
  clients.push_back(std::move(*control));
  control.reset();
  std::unique_ptr<ServerProcess> loop_server = std::move(server);
  for (int t = 1; t < tenants; ++t) {
    clients.push_back(ServeClient::connect(loop_server->address()));
  }
  const int segments = std::max(1, static_cast<int>(std::floor(opt.seconds / 5.0)));
  const double segment_s = opt.seconds / segments;
  std::vector<TenantLog> logs(static_cast<std::size_t>(tenants));
  for (int seg = 0; seg < segments; ++seg) {
    if (seg > 0) set_up_round(false);
    const auto seg0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < tenants; ++t) {
      threads.emplace_back([&, t, seg] {
        ServeClient& client = clients[static_cast<std::size_t>(t)];
        TenantLog& log = logs[static_cast<std::size_t>(t)];
        ServeClient::Reply reply;
        for (bool first = true; first || seconds_since(seg0) < segment_s; first = false) {
          const std::size_t cycle = log.cycle++;
          for (std::size_t pos = 0; pos < kCycle.size(); ++pos) {
            const Step step = kCycle[pos];
            const ExperimentConfig& cfg = mix.config(t, cycle, step.kind);
            ExperimentConfig sent = cfg;
            // The injected mismatch: tenant 0's first request is sent with
            // another seed.
            if (opt.inject_mismatch && t == 0 && cycle == 0 && pos == 0) {
              sent.seed = cfg.seed + 1;
            }
            const auto t0 = Clock::now();
            try {
              client.run(sent, false, reply);
            } catch (const std::exception& e) {
              ++log.errors;
              log.failures.push_back(std::string("request error: ") + e.what());
              continue;
            }
            const double s = seconds_since(t0);
            const double at = seconds_since(seg0);
            ++log.requests;
            log.latency_ms.push_back(s * 1e3);
            log.step_ms[pos].push_back(s * 1e3);
            if (step.warm && step.kind == Kind::kWarmOn) {
              log.on_s.push_back(s);
              log.on_segment.push_back(seg);
            }
            if (step.warm && step.kind == Kind::kWarmOff) log.off_s.push_back(s);
            if (at < segment_s) {
              ++log.timed_requests;
              log.timed_events += static_cast<double>(reply.result.events);
            }
            if (result_bytes(reply.result) != want_for(cfg)) {
              log.failures.push_back("digest mismatch: daemon reply vs workspace run (tenant " +
                                     std::to_string(t) + ")");
            }
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  server = std::move(loop_server);

  // One audited request, the daemon's peak RSS, then a clean shutdown.  The
  // audit goes through a one-cell kGrid job: the daemon's kRun path does
  // not act on the request's audit flag (README.md, "Findings").
  {
    ExperimentGrid one;
    one.base = mix.warm_on;
    one.apps = {mix.warm_on.app};
    one.policies = {mix.warm_on.policy};
    one.schemes = {true};
    one.base_seed = mix.warm_on.seed;
    one.derive_seeds = false;
    std::size_t cells = 0;
    clients[0].run_grid(one, true, [&](const ServeClient::Reply& reply) {
      ++cells;
      ExperimentResult r = reply.result;
      if (!r.audited || r.audit_violations != 0) {
        report.fail("audited daemon run was not audited clean");
      }
      r.audited = false;
      r.audit_violations = 0;
      report.expect_same(want_on, result_bytes(r), "audited daemon run");
    });
    report.attempted();
    if (cells != 1) report.fail("audited daemon grid returned no cell");
  }
  const double server_rss_mb = peak_rss_mb(server->pid());
  clients[0].shutdown_server();
  clients.clear();
  server->wait_exit();

  // Rates are means over the whole measured time.
  TenantLog all;
  for (const TenantLog& log : logs) {
    all.latency_ms.insert(all.latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    all.on_s.insert(all.on_s.end(), log.on_s.begin(), log.on_s.end());
    all.off_s.insert(all.off_s.end(), log.off_s.begin(), log.off_s.end());
    for (std::size_t pos = 0; pos < kCycle.size(); ++pos) {
      all.step_ms[pos].insert(all.step_ms[pos].end(), log.step_ms[pos].begin(),
                              log.step_ms[pos].end());
    }
    all.timed_requests += log.timed_requests;
    all.timed_events += log.timed_events;
    all.requests += log.requests;
    all.errors += log.errors;
    for (const std::string& f : log.failures) report.fail(f);
  }
  report.attempted(all.requests + all.errors);

  double q = 0.0;
  const double p_tail = tail(all.latency_ms, &q);
  report.end_to_end("setup_s", median(setup_s), "s");
  report.end_to_end("run_s", median(all.on_s), "s");
  report.end_to_end("baseline_run_s", median(all.off_s), "s");
  const double measured_s = segments * segment_s;
  const double req_rate = static_cast<double>(all.timed_requests) / measured_s;
  report.end_to_end("events_per_s", all.timed_events / measured_s, "1/s");
  report.end_to_end("cells_per_s", req_rate, "1/s");
  report.end_to_end("req_per_s", req_rate, "1/s");
  report.end_to_end("latency_p50_ms", median(all.latency_ms), "ms");
  report.end_to_end("latency_p99_ms", p_tail, "ms");
  report.end_to_end("peak_rss_mb", server_rss_mb, "MB");
  report.end_to_end("sim_energy_ratio", ref_on.energy_j / ref_off.energy_j, "ratio");
  report.end_to_end("sim_exec_ratio",
                    static_cast<double>(ref_on.exec_time.count()) /
                        static_cast<double>(ref_off.exec_time.count()),
                    "ratio");
  {
    std::ostringstream n;
    n << "tenants=" << tenants << " requests=" << all.requests
      << " errors=" << all.errors << " tail quantile=" << q
      << " (latency_p99_ms) replay app=" << upload.app << " procs=" << upload.procs
      << " segments=" << segments;
    report.note(n.str());
    std::ostringstream steps;
    steps << "median latency_ms by cycle position:";
    for (std::size_t pos = 0; pos < kCycle.size(); ++pos) {
      steps << " " << median(all.step_ms[pos]) << (kCycle[pos].warm ? "" : "*");
    }
    steps << " (* cold)";
    report.note(steps.str());
    note_samples(report, "setup_s", setup_s);
    // The host's vCPUs change speed independently (README.md,
    // "Steadiness"); per tenant and segment the warm latency shows it.
    for (std::size_t t = 0; t < logs.size(); ++t) {
      std::vector<std::vector<double>> by_segment(static_cast<std::size_t>(segments));
      for (std::size_t i = 0; i < logs[t].on_s.size(); ++i) {
        by_segment[static_cast<std::size_t>(logs[t].on_segment[i])].push_back(logs[t].on_s[i] * 1e3);
      }
      std::vector<double> medians;
      for (const std::vector<double>& v : by_segment) medians.push_back(median(v));
      note_samples(report, "tenant " + std::to_string(t) + " warm on ms by segment", medians);
    }
  }

  if (!opt.trace) return;

  SpanLog log;
  // The daemon's cost over the same cell run in-process on a warm workspace.
  std::vector<double> inproc_ms;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    const ExperimentResult& r = ref_ws.run(mix.warm_on);
    inproc_ms.push_back(seconds_since(t0) * 1e3);
    report.expect_same(want_on, result_bytes(r), "in-process warm cell");
  }
  note_samples(report, "in-process warm cell ms", inproc_ms);
  report.layer("serve.overhead_ms", median(all.on_s) * 1e3 - median(inproc_ms), "ms");
  report.layer("serve.upload_s", median(upload_s), "s");
  report.layer("serve.errors", static_cast<double>(all.errors), "count");

  // Tenant 0's request sequence (two cycles) replayed through one
  // in-process workspace; its counters stand for the tenant's.
  ExperimentWorkspace ws;
  std::vector<double> prepare_s;
  for (std::size_t cycle = 0; cycle < 2; ++cycle) {
    for (const Step step : kCycle) {
      const ExperimentConfig& cfg = mix.config(0, cycle, step.kind);
      {
        Scoped s(log, "driver.prepare");
        const auto t0 = Clock::now();
        ws.prepare(cfg);
        prepare_s.push_back(seconds_since(t0));
      }
      Scoped s(log, "driver.run");
      report.expect_same(want_for(cfg), result_bytes(ws.run(cfg)), "tenant replica");
    }
  }
  report_driver_counters(report, ws, prepare_s);

  // Traced vs untraced rebuilds of the replay cell; both must match the
  // workspace run the daemon's replies were checked against.
  SpanLog replay_log;
  const ExperimentResult traced =
      traced_overhead(mix.replay, want_replay, 0, 21, report, replay_log);
  report_traced_layers(report, replay_log, traced);
  report.layer("io.prefetch_overhead_s", median(all.on_s) - median(all.off_s), "s");
  zero_layers(report, {"engine"});
  report.layer("serve.codec_us",
               codec_round_trip_us(mix.warm_on, ref_on, report, &replay_log), "us");
  for (const std::string& line : log.lines()) report.note(line);
  for (const std::string& line : replay_log.lines()) report.note(line);
}

}  // namespace perfbench

#include "engine/result_sink.h"

#include <fstream>
#include <iostream>
#include <ostream>
#include <stdexcept>

#include "telemetry/analytics.h"

namespace dasched {

namespace {

/// Minimal JSON string escaping (the emitted strings are app/axis names).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Display names use hyphens; column names want identifiers.
std::string column_name(const char* display) {
  std::string out = display;
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

}  // namespace

void write_csv_header(std::ostream& os) {
  os << "app,policy,scheme,sweep,sweep_value,seed,procs,scale,nodes,delta,"
        "theta,max_slack,exec_s,energy_j,requests,disk_requests,spin_downs,"
        "spin_ups,rpm_changes,cache_hit_rate,prefetches,buffer_hits,"
        "in_flight_hits,direct_reads,scheduled,mean_advance_slots,events,"
        "audited,audit_violations\n";
}

void write_csv_row(std::ostream& os, const GridCellResult& row) {
  const GridCell& c = row.cell;
  const ExperimentResult& r = row.result;
  os << c.app << ',' << to_string(c.policy) << ',' << (c.scheme ? 1 : 0)
     << ',' << (c.has_sweep ? c.sweep_name : "") << ','
     << (c.has_sweep ? c.sweep_value : 0.0) << ',' << c.config.seed << ','
     << c.config.scale.num_processes << ',' << c.config.scale.factor << ','
     << c.config.storage.num_io_nodes << ',' << c.config.compile.sched.delta
     << ',' << c.config.compile.sched.theta << ',' << c.config.max_slack
     << ',' << to_sec(r.exec_time) << ',' << r.energy_j << ','
     << r.storage.requests << ',' << r.storage.disk_requests << ','
     << r.storage.spin_downs << ',' << r.storage.spin_ups << ','
     << r.storage.rpm_changes << ',' << r.storage.cache_hit_rate << ','
     << r.runtime.prefetches << ',' << r.runtime.buffer_hits << ','
     << r.runtime.in_flight_hits << ',' << r.runtime.direct_reads << ','
     << r.sched.scheduled << ',' << r.sched.mean_advance_slots << ','
     << r.events << ',' << (r.audited ? 1 : 0) << ',' << r.audit_violations
     << '\n';
}

void write_csv(std::ostream& os, const GridResultSet& results) {
  write_csv_header(os);
  for (const GridCellResult& row : results.rows()) write_csv_row(os, row);
}

void write_jsonl_row(std::ostream& os, const GridCellResult& row) {
  const GridCell& c = row.cell;
  const ExperimentResult& r = row.result;
  os << "{\"app\":\"" << json_escape(c.app) << "\",\"policy\":\""
     << to_string(c.policy) << "\",\"scheme\":" << (c.scheme ? "true" : "false");
  if (c.has_sweep) {
    os << ",\"sweep\":\"" << json_escape(c.sweep_name)
       << "\",\"sweep_value\":" << c.sweep_value;
  }
  os << ",\"seed\":" << c.config.seed
     << ",\"procs\":" << c.config.scale.num_processes
     << ",\"scale\":" << c.config.scale.factor
     << ",\"nodes\":" << c.config.storage.num_io_nodes
     << ",\"delta\":" << c.config.compile.sched.delta
     << ",\"theta\":" << c.config.compile.sched.theta
     << ",\"max_slack\":" << c.config.max_slack
     << ",\"exec_s\":" << to_sec(r.exec_time)
     << ",\"energy_j\":" << r.energy_j
     << ",\"requests\":" << r.storage.requests
     << ",\"disk_requests\":" << r.storage.disk_requests
     << ",\"spin_downs\":" << r.storage.spin_downs
     << ",\"spin_ups\":" << r.storage.spin_ups
     << ",\"rpm_changes\":" << r.storage.rpm_changes
     << ",\"cache_hit_rate\":" << r.storage.cache_hit_rate
     << ",\"prefetches\":" << r.runtime.prefetches
     << ",\"buffer_hits\":" << r.runtime.buffer_hits
     << ",\"in_flight_hits\":" << r.runtime.in_flight_hits
     << ",\"direct_reads\":" << r.runtime.direct_reads
     << ",\"scheduled\":" << r.sched.scheduled
     << ",\"mean_advance_slots\":" << r.sched.mean_advance_slots
     << ",\"events\":" << r.events
     << ",\"audited\":" << (r.audited ? "true" : "false")
     << ",\"audit_violations\":" << r.audit_violations << "}\n";
}

void write_jsonl(std::ostream& os, const GridResultSet& results) {
  for (const GridCellResult& row : results.rows()) write_jsonl_row(os, row);
}

namespace {

void write_encoding(const GridResultSet& results, const std::string& path,
                    void (*writer)(std::ostream&, const GridResultSet&)) {
  if (path.empty()) return;
  if (path == "-") {
    writer(std::cout, results);
    return;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open result file '" + path + "'");
  writer(out, results);
}

}  // namespace

void write_result_files(const GridResultSet& results,
                        const std::string& csv_path,
                        const std::string& jsonl_path) {
  write_encoding(results, csv_path, &write_csv);
  write_encoding(results, jsonl_path, &write_jsonl);
}

void write_telemetry_csv(std::ostream& os, const GridResultSet& results) {
  os << "app,policy,scheme,sweep,sweep_value,trace_level,energy_total_j";
  for (int st = 0; st < kNumDiskStates; ++st) {
    os << ",energy_" << column_name(to_string(static_cast<DiskState>(st)))
       << "_j";
  }
  for (int st = 0; st < kNumDiskStates; ++st) {
    os << ",residency_" << column_name(to_string(static_cast<DiskState>(st)))
       << "_us";
  }
  os << ",idle_periods,idle_mean_us,idle_p50_us,idle_p95_us,idle_max_us,"
        "idle_tw_mean_us,pred_observations,pred_mean_abs_error_us,"
        "pred_mean_signed_error_us";
  for (int d = 0; d < kNumPolicyDecisions; ++d) {
    os << ",actions_"
       << column_name(to_string(static_cast<PolicyDecision>(d)));
  }
  os << ",cache_hits,cache_misses,trace_events\n";

  for (const GridCellResult& row : results.rows()) {
    if (row.result.telemetry == nullptr) continue;
    const TelemetrySummary& t = *row.result.telemetry;
    const GridCell& c = row.cell;
    os << c.app << ',' << to_string(c.policy) << ',' << (c.scheme ? 1 : 0)
       << ',' << (c.has_sweep ? c.sweep_name : "") << ','
       << (c.has_sweep ? c.sweep_value : 0.0) << ',' << to_string(t.meta.level)
       << ',' << t.energy_total_j;
    for (int st = 0; st < kNumDiskStates; ++st) {
      os << ',' << t.energy_by_state_j[static_cast<std::size_t>(st)];
    }
    for (int st = 0; st < kNumDiskStates; ++st) {
      os << ',' << t.residency[static_cast<std::size_t>(st)];
    }
    os << ',' << t.idle.total << ',' << t.idle.mean_us() << ','
       << t.idle.percentile_us(0.50) << ',' << t.idle.percentile_us(0.95)
       << ',' << t.idle.max_us << ',' << t.idle.time_weighted_mean_us() << ','
       << t.prediction.observations << ',' << t.prediction.mean_abs_error_us()
       << ',' << t.prediction.mean_signed_error_us();
    for (int d = 0; d < kNumPolicyDecisions; ++d) {
      os << ',' << t.policy_actions[static_cast<std::size_t>(d)];
    }
    os << ',' << t.cache_hits << ',' << t.cache_misses << ',' << t.trace_events
       << '\n';
  }
}

void write_telemetry_jsonl(std::ostream& os, const GridResultSet& results) {
  for (const GridCellResult& row : results.rows()) {
    if (row.result.telemetry == nullptr) continue;
    const TelemetrySummary& t = *row.result.telemetry;
    const GridCell& c = row.cell;
    os << "{\"app\":\"" << json_escape(c.app) << "\",\"policy\":\""
       << to_string(c.policy)
       << "\",\"scheme\":" << (c.scheme ? "true" : "false");
    if (c.has_sweep) {
      os << ",\"sweep\":\"" << json_escape(c.sweep_name)
         << "\",\"sweep_value\":" << c.sweep_value;
    }
    os << ",\"trace_level\":\"" << to_string(t.meta.level)
       << "\",\"energy_total_j\":" << t.energy_total_j
       << ",\"energy_by_state_j\":{";
    for (int st = 0; st < kNumDiskStates; ++st) {
      os << (st == 0 ? "" : ",") << '"'
         << to_string(static_cast<DiskState>(st))
         << "\":" << t.energy_by_state_j[static_cast<std::size_t>(st)];
    }
    os << "},\"residency_us\":{";
    for (int st = 0; st < kNumDiskStates; ++st) {
      os << (st == 0 ? "" : ",") << '"'
         << to_string(static_cast<DiskState>(st))
         << "\":" << t.residency[static_cast<std::size_t>(st)];
    }
    os << "},\"idle\":{\"periods\":" << t.idle.total
       << ",\"mean_us\":" << t.idle.mean_us()
       << ",\"p50_us\":" << t.idle.percentile_us(0.50)
       << ",\"p95_us\":" << t.idle.percentile_us(0.95)
       << ",\"max_us\":" << t.idle.max_us
       << ",\"time_weighted_mean_us\":" << t.idle.time_weighted_mean_us()
       << "},\"prediction\":{\"observations\":" << t.prediction.observations
       << ",\"mean_abs_error_us\":" << t.prediction.mean_abs_error_us()
       << ",\"mean_signed_error_us\":" << t.prediction.mean_signed_error_us()
       << "},\"policy_actions\":{";
    for (int d = 0; d < kNumPolicyDecisions; ++d) {
      os << (d == 0 ? "" : ",") << '"'
         << to_string(static_cast<PolicyDecision>(d))
         << "\":" << t.policy_actions[static_cast<std::size_t>(d)];
    }
    os << "},\"cache_hits\":" << t.cache_hits
       << ",\"cache_misses\":" << t.cache_misses
       << ",\"trace_events\":" << t.trace_events << "}\n";
  }
}

void write_telemetry_files(const GridResultSet& results,
                           const std::string& csv_path,
                           const std::string& jsonl_path) {
  write_encoding(results, csv_path, &write_telemetry_csv);
  write_encoding(results, jsonl_path, &write_telemetry_jsonl);
}

}  // namespace dasched

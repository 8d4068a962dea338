// Strict environment-knob parsing.
//
// Scale/thread knobs steer every bench and grid run, so a typo like
// `DASCHED_BENCH_PROCS=abc` must stop the process with a clear message
// instead of silently becoming 0 (atoi) and producing a nonsense run.
#pragma once

#include <optional>
#include <string>

#include "telemetry/events.h"

namespace dasched {

/// Parses the entire string as a floating-point number; nullopt on any
/// trailing garbage, empty input, or range error.
[[nodiscard]] std::optional<double> parse_double(const std::string& s);

/// Parses the entire string as a (base-10) integer; nullopt on garbage.
[[nodiscard]] std::optional<long long> parse_int(const std::string& s);

/// Environment lookups with a fallback.  A set-but-malformed value is fatal:
/// prints `<name>: invalid value '<v>'` to stderr and exits with status 2.
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] int env_int(const char* name, int fallback);

/// Raw environment lookup; `fallback` when unset (any set value is valid).
[[nodiscard]] std::string env_string(const char* name, const char* fallback);

/// Workspace reuse from DASCHED_WORKSPACE: "on" (the default — grid workers
/// reuse a warm per-worker ExperimentWorkspace across cells), "off" (legacy
/// fresh-per-cell construction; the A/B baseline for bench/grid_throughput).
/// Any other set value is fatal, matching the other knobs.  Results are
/// bit-identical either way (DESIGN.md §16); this knob trades only speed.
[[nodiscard]] bool workspace_from_env(bool fallback);

/// Telemetry capture from the environment: DASCHED_TRACE names the output
/// directory and enables tracing; DASCHED_TRACE_LEVEL selects
/// {state,request,full} (default "state", "off" disables).  A malformed
/// level is fatal, matching the other knobs.
[[nodiscard]] TelemetryConfig telemetry_from_env();

}  // namespace dasched

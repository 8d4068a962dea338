#include "engine/env_knobs.h"

#include <cstdlib>

#include "util/parse.h"

namespace dasched {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : parse_double_or_die(name, v);
}

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : parse_int_or_die(name, v);
}

std::string env_string(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : v;
}

bool workspace_from_env(bool fallback) {
  const char* v = std::getenv("DASCHED_WORKSPACE");
  if (v == nullptr) return fallback;
  const std::string s = v;
  if (s == "on") return true;
  if (s == "off") return false;
  die_invalid_value("DASCHED_WORKSPACE", v, "on|off");
}

TelemetryConfig telemetry_from_env() {
  TelemetryConfig cfg;
  cfg.dir = env_string("DASCHED_TRACE", "");
  if (cfg.dir.empty()) return cfg;  // level stays kOff: capture disabled
  const std::string level = env_string("DASCHED_TRACE_LEVEL", "state");
  const auto parsed = parse_trace_level(level);
  if (!parsed) {
    die_invalid_value("DASCHED_TRACE_LEVEL", level.c_str(),
                      "off|state|request|full");
  }
  cfg.level = *parsed;
  if (cfg.level == TraceLevel::kOff) cfg.dir.clear();
  return cfg;
}

}  // namespace dasched

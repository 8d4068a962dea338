// Strict, allocation-free string parsing.
//
// Every user-facing number in the tree — CLI flags, environment knobs,
// trace-file fields, daemon request values — must parse the *entire* token
// or be rejected; a typo that atoi would silently turn into 0 produces a
// nonsense run instead of an error.  These helpers are the one
// implementation: `std::from_chars` over string_views, so they are usable
// from the libraries below engine/ (sim/, workload/) and from the daemon's
// steady-state request path, where a temporary std::string per field would
// be a heap allocation.
//
// engine/env_knobs keeps its std::string front end (and the historic
// strtod/strtoll semantics) for the knob helpers; the fatal-error print
// shared by every strict knob and CLI flag lives here.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

namespace dasched {

/// Parses the entire view as a base-10 integer; nullopt on empty input,
/// trailing garbage, or overflow.  Never allocates.
[[nodiscard]] inline std::optional<std::int64_t> parse_i64(std::string_view s) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// Parses the entire view as a floating-point number; nullopt on garbage.
/// Never allocates.
[[nodiscard]] inline std::optional<double> parse_f64(std::string_view s) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// The shared fatal path of every strict knob: print
/// `<name>: invalid value '<v>' (expected <kind>)` and stop with status 2.
[[noreturn]] inline void die_invalid_value(const char* name, const char* value,
                                           const char* kind) {
  std::fprintf(stderr, "%s: invalid value '%s' (expected %s)\n", name, value,
               kind);
  std::exit(2);
}

}  // namespace dasched

// Strict, allocation-free string parsing.
//
// Every user-facing number in the tree — CLI flags, environment knobs,
// trace-file fields, daemon request values — must parse the *entire* token
// or be rejected; a typo that atoi would silently turn into 0 produces a
// nonsense run instead of an error.  These helpers are the one
// implementation: `std::from_chars` over string_views, so they are usable
// from the libraries below engine/ (sim/, workload/) and from the daemon's
// steady-state request path, where a temporary std::string per field would
// be a heap allocation.  `from_chars` accepts no leading whitespace and no
// '+' sign, and a value outside the target type's range is an error, never
// a silently narrowed number.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace dasched {

/// Parses the entire view as a base-10 integer of type T; nullopt on empty
/// input, trailing garbage, or a value outside T's range.  Never allocates.
template <std::integral T>
[[nodiscard]] std::optional<T> parse_integer(std::string_view s) {
  T v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

[[nodiscard]] inline std::optional<std::int64_t> parse_i64(std::string_view s) {
  return parse_integer<std::int64_t>(s);
}

/// Parses the entire view as a floating-point number; nullopt on garbage or
/// overflow.  Never allocates.
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

/// The strict front end of every integer CLI flag and environment knob: the
/// whole of `value` as a T no smaller than `lo`, or die_invalid_value.
template <std::integral T = int>
[[nodiscard]] T parse_int_or_die(const char* name, const char* value,
                                 T lo = std::numeric_limits<T>::min()) {
  const auto v = parse_integer<T>(value);
  if (v && *v >= lo) return *v;
  const std::string kind =
      "an integer in [" + std::to_string(lo) + ", " +
      std::to_string(std::numeric_limits<T>::max()) + "]";
  die_invalid_value(name, value, kind.c_str());
}

/// The same for a finite floating-point number.
[[nodiscard]] inline double parse_double_or_die(const char* name,
                                                const char* value) {
  const auto v = parse_f64(value);
  if (!v || !std::isfinite(*v)) {
    die_invalid_value(name, value, "a finite number");
  }
  return *v;
}

}  // namespace dasched

// Plain-text table rendering for report output (dasched_run's single-run
// report and grid table).
#pragma once

#include <string>
#include <vector>

namespace dasched {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; missing trailing cells render empty, extra cells are
  /// kept and widen the table.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double v, int precision = 2);
  /// Formats a fraction (0.123) as a percentage string ("12.3%").
  static std::string pct(double fraction, int precision = 1);

  [[nodiscard]] std::string to_string() const;

  /// Prints to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dasched

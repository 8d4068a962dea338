// Structured result emission for grid runs (`dasched_run --grid`, the
// daemon client).
//
// One schema, two encodings: a CSV table (spreadsheet-friendly) and JSON
// lines (one object per grid cell — the `BENCH_*.json` trajectory format).
#pragma once

#include <iosfwd>
#include <string>

#include "engine/grid_runner.h"

namespace dasched {

/// CSV column header matching `write_csv_row`.
void write_csv_header(std::ostream& os);
void write_csv_row(std::ostream& os, const GridCellResult& row);
/// Header plus one row per cell.
void write_csv(std::ostream& os, const GridResultSet& results);

/// One JSON object per line per cell (JSONL).  Keys mirror the CSV columns.
void write_jsonl_row(std::ostream& os, const GridCellResult& row);
void write_jsonl(std::ostream& os, const GridResultSet& results);

/// Writes the encodings to files ("" skips one, "-" means stdout).
/// Throws std::runtime_error if a path cannot be opened.
void write_result_files(const GridResultSet& results,
                        const std::string& csv_path,
                        const std::string& jsonl_path);

// ---- Telemetry aggregates -------------------------------------------------
//
// Separate files with their own schema: the grid CSV/JSONL above is a frozen
// trajectory format, so per-cell telemetry (energy by state, residency,
// idle-period quantiles, prediction accuracy, policy-action counts) gets its
// own table.  Cells that ran without telemetry are skipped.

void write_telemetry_csv(std::ostream& os, const GridResultSet& results);
void write_telemetry_jsonl(std::ostream& os, const GridResultSet& results);

/// Same path conventions as `write_result_files` ("" skips, "-" = stdout).
void write_telemetry_files(const GridResultSet& results,
                           const std::string& csv_path,
                           const std::string& jsonl_path);

}  // namespace dasched

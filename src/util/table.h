// Plain-text table emission for the benchmark harness. Every figure
// and table in EXPERIMENTS.md is printed through this, so the output format
// is uniform across bench binaries.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace util {

/// Column-aligned text table. Rows are added as string cells; numeric
/// convenience overloads format with fixed precision.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Render with column alignment to `os`.
  void print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `prec` digits after the decimal point.
std::string fmt(double v, int prec = 2);

/// Format a ratio cell: like fmt(), but +infinity renders as "-" (the
/// commit_abort_ratio sentinel for "no aborts" — see stats::TxCounters).
std::string fmt_ratio(double v, int prec = 2);

/// Format an integer with thousands separators ("12,345,678").
std::string fmt_count(uint64_t v);

/// Human-readable byte size ("32 MB", "1.5 GB").
std::string fmt_bytes(uint64_t bytes);

}  // namespace util

#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace util {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("TextTable row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); i++) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); i++) widths[i] = std::max(widths[i], row[i].size());
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); i++) {
      os << row[i];
      if (i + 1 < row.size()) {
        for (size_t p = row[i].size(); p < widths[i] + 2; p++) os << ' ';
      }
    }
    os << '\n';
  };
  emit(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  for (size_t i = 0; i + 2 < total; i++) os << '-';
  os << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string fmt_ratio(double v, int prec) {
  if (std::isinf(v)) return "-";
  return fmt(v, prec);
}

std::string fmt_count(uint64_t v) {
  std::string raw = std::to_string(v);
  std::string out;
  int cnt = 0;
  for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
    if (cnt && cnt % 3 == 0) out.push_back(',');
    out.push_back(*it);
    cnt++;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string fmt_bytes(uint64_t bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    u++;
  }
  char buf[64];
  if (v == static_cast<uint64_t>(v)) {
    std::snprintf(buf, sizeof(buf), "%llu %s", static_cast<unsigned long long>(v), units[u]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  }
  return buf;
}

}  // namespace util

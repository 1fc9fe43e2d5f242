#include "util/csv.h"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <system_error>

#include "util/check.h"

namespace p2p::util {

bool EnsureDir(const std::string& dir) {
  if (dir.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  return std::filesystem::is_directory(dir, ec);
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  P2P_CHECK(!header_.empty());
}

Table& Table::AddRow(std::vector<Cell> row) {
  P2P_CHECK_MSG(row.size() == header_.size(),
                "row width " << row.size() << " != header width "
                             << header_.size());
  rows_.push_back(std::move(row));
  return *this;
}

std::string Table::Format(const Cell& c, int precision) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  std::ostringstream os;
  if (const auto* d = std::get_if<double>(&c)) {
    os << std::fixed << std::setprecision(precision) << *d;
  } else {
    os << std::get<long long>(c);
  }
  return os.str();
}

std::string Table::ToText(int precision) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i)
    widths[i] = header_[i].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      r.push_back(Format(row[i], precision));
      widths[i] = std::max(widths[i], r.back().size());
    }
    cells.push_back(std::move(r));
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& r) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      os << std::setw(static_cast<int>(widths[i])) << r[i];
      os << (i + 1 == r.size() ? "\n" : "  ");
    }
  };
  emit_row(header_);
  for (const auto& r : cells) emit_row(r);
  return os.str();
}

}  // namespace p2p::util

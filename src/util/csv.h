// Aligned text tables (the experiments print the series the paper plots
// as these; their reports carry the numbers) and the directory helper of
// the CSV timeseries and event logs.
#pragma once

#include <string>
#include <variant>
#include <vector>

namespace p2p::util {

// Create `dir` (and any missing parents) if it does not exist. Returns
// false when creation fails or the path exists but is not a directory —
// callers writing CSVs there fail up front with a clear error instead of
// one fopen failure per file.
bool EnsureDir(const std::string& dir);

class Table {
 public:
  using Cell = std::variant<std::string, double, long long>;

  explicit Table(std::vector<std::string> header);

  Table& AddRow(std::vector<Cell> row);

  std::size_t row_count() const { return rows_.size(); }
  const std::vector<std::string>& header() const { return header_; }

  // Aligned, human-readable rendering (doubles with `precision` digits).
  std::string ToText(int precision = 3) const;

 private:
  static std::string Format(const Cell& c, int precision);

  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace p2p::util

#include "io/ascii_art.h"

#include <algorithm>
#include <vector>

namespace trajpattern {
namespace {

constexpr char kRamp[] = " .:-=+*#%@";
constexpr int kRampLevels = 10;

std::string Frame(const Grid& grid, const std::vector<char>& cells) {
  std::string out;
  out.reserve(static_cast<size_t>((grid.nx() + 3) * (grid.ny() + 2)));
  out.append("+").append(static_cast<size_t>(grid.nx()), '-').append("+\n");
  for (int row = grid.ny() - 1; row >= 0; --row) {  // top row first
    out.push_back('|');
    for (int col = 0; col < grid.nx(); ++col) {
      out.push_back(cells[static_cast<size_t>(grid.At(col, row))]);
    }
    out.append("|\n");
  }
  out.append("+").append(static_cast<size_t>(grid.nx()), '-').append("+\n");
  return out;
}

}  // namespace

std::string RenderDensity(const TrajectoryDataset& data, const Grid& grid) {
  std::vector<int> counts(static_cast<size_t>(grid.num_cells()), 0);
  int max_count = 0;
  for (const auto& t : data) {
    for (const auto& p : t) {
      int& c = counts[static_cast<size_t>(grid.CellOf(p.mean))];
      ++c;
      max_count = std::max(max_count, c);
    }
  }
  std::vector<char> cells(counts.size(), ' ');
  if (max_count > 0) {
    for (size_t i = 0; i < counts.size(); ++i) {
      const int level =
          counts[i] == 0
              ? 0
              : 1 + (counts[i] - 1) * (kRampLevels - 1) / max_count;
      cells[i] = kRamp[std::min(level, kRampLevels - 1)];
    }
  }
  return Frame(grid, cells);
}

}  // namespace trajpattern

#include "html/table_extractor.h"

#include "util/strings.h"

namespace pae::html {

namespace {
/// Collects the text of one cell, collapsing internal newlines to spaces.
std::string CellText(const HtmlNode& cell) {
  std::string raw = ExtractText(cell);
  std::string collapsed;
  collapsed.reserve(raw.size());
  bool last_space = false;
  for (char c : raw) {
    if (c == '\n' || c == '\t' || c == ' ') {
      if (!last_space && !collapsed.empty()) collapsed.push_back(' ');
      last_space = true;
    } else {
      collapsed.push_back(c);
      last_space = false;
    }
  }
  return std::string(StripAsciiWhitespace(collapsed));
}
}  // namespace

TableGrid ExtractGrid(const HtmlNode& table) {
  TableGrid grid;
  for (const HtmlNode* tr : FindAll(table, "tr")) {
    std::vector<std::string> row;
    for (const auto& child : tr->children) {
      if (child->IsElement("td") || child->IsElement("th")) {
        row.push_back(CellText(*child));
      }
    }
    if (!row.empty()) grid.push_back(std::move(row));
  }
  return grid;
}

bool GridToDictionary(const TableGrid& grid, DictionaryTable* out) {
  out->entries.clear();
  if (grid.empty()) return false;

  // Case 1: n rows × 2 columns — key in column 0.
  bool two_cols = grid.size() >= 2;
  for (const auto& row : grid) {
    if (row.size() != 2) {
      two_cols = false;
      break;
    }
  }
  if (two_cols) {
    out->entries.reserve(grid.size());
    for (const auto& row : grid) {
      if (row[0].empty() || row[1].empty()) continue;
      out->entries.emplace_back(row[0], row[1]);
    }
    return !out->entries.empty();
  }

  // Case 2: 2 rows × n columns — key in row 0.
  if (grid.size() == 2 && grid[0].size() == grid[1].size() &&
      grid[0].size() >= 2) {
    out->entries.reserve(grid[0].size());
    for (size_t c = 0; c < grid[0].size(); ++c) {
      if (grid[0][c].empty() || grid[1][c].empty()) continue;
      out->entries.emplace_back(grid[0][c], grid[1][c]);
    }
    return !out->entries.empty();
  }
  return false;
}

std::vector<DictionaryTable> ExtractDictionaryTables(const HtmlNode& root) {
  std::vector<DictionaryTable> out;
  for (const HtmlNode* table : FindAll(root, "table")) {
    TableGrid grid = ExtractGrid(*table);
    DictionaryTable dict;
    if (GridToDictionary(grid, &dict)) out.push_back(std::move(dict));
  }
  return out;
}

}  // namespace pae::html

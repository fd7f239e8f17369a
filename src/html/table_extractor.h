#ifndef PAE_HTML_TABLE_EXTRACTOR_H_
#define PAE_HTML_TABLE_EXTRACTOR_H_

#include <string>
#include <vector>

#include "html/parser.h"

namespace pae::html {

/// A spec table in "dictionary" form: one attribute-name / attribute-value
/// pair per entry, in document order.
struct DictionaryTable {
  std::vector<std::pair<std::string, std::string>> entries;
};

/// Cell grid of one <table> (rows of trimmed cell texts).
using TableGrid = std::vector<std::vector<std::string>>;

/// Builds the cell grid of a single <table> element.
TableGrid ExtractGrid(const HtmlNode& table);

/// Detects whether `grid` has dictionary structure — exactly 2 columns ×
/// n rows (key in column 0) or exactly 2 rows × n columns (key in row 0),
/// following the seed-extraction convention of §V-A — and converts it.
/// Returns false if the grid is not in dictionary form.
bool GridToDictionary(const TableGrid& grid, DictionaryTable* out);

/// Finds every dictionary-form table in the document.
std::vector<DictionaryTable> ExtractDictionaryTables(const HtmlNode& root);

}  // namespace pae::html

#endif  // PAE_HTML_TABLE_EXTRACTOR_H_

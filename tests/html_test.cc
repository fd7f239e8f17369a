#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "html/parser.h"
#include "html/table_extractor.h"

namespace pae::html {
namespace {

TEST(EntityTest, BasicNamedEntities) {
  EXPECT_EQ(DecodeEntities("a &amp; b &lt;x&gt; &quot;q&quot; &nbsp;"),
            "a & b <x> \"q\"  ");
}

TEST(EntityTest, NumericReferences) {
  EXPECT_EQ(DecodeEntities("&#65;&#x42;"), "AB");
  EXPECT_EQ(DecodeEntities("&#x91CF;"), "量");
}

TEST(EntityTest, UnknownEntityKeptVerbatim) {
  EXPECT_EQ(DecodeEntities("&bogus; &"), "&bogus; &");
}

TEST(ParserTest, SimpleTree) {
  auto root = ParseHtml("<html><body><p>hello</p></body></html>");
  ASSERT_EQ(root->children.size(), 1u);
  const HtmlNode* html = root->children[0].get();
  EXPECT_TRUE(html->IsElement("html"));
  const HtmlNode* body = html->children[0].get();
  ASSERT_TRUE(body->IsElement("body"));
  const HtmlNode* p = body->children[0].get();
  ASSERT_TRUE(p->IsElement("p"));
  ASSERT_EQ(p->children.size(), 1u);
  EXPECT_EQ(p->children[0]->text, "hello");
}

TEST(ParserTest, UppercaseTagsNormalized) {
  auto root = ParseHtml("<DIV>x</DIV>");
  EXPECT_TRUE(root->children[0]->IsElement("div"));
}

TEST(ParserTest, VoidElementsDontNest) {
  auto root = ParseHtml("<p>a<br>b</p>");
  const HtmlNode* p = root->children[0].get();
  // text 'a', <br>, text 'b' are siblings under <p>.
  ASSERT_EQ(p->children.size(), 3u);
  EXPECT_TRUE(p->children[1]->IsElement("br"));
}

TEST(ParserTest, UnmatchedCloseTagIgnored) {
  auto root = ParseHtml("<div>a</span>b</div>");
  const HtmlNode* div = root->children[0].get();
  ASSERT_EQ(div->children.size(), 2u);
  EXPECT_EQ(div->children[0]->text, "a");
  EXPECT_EQ(div->children[1]->text, "b");
}

TEST(ParserTest, UnclosedElementsClosedAtEof) {
  auto root = ParseHtml("<div><p>text");
  const HtmlNode* div = root->children[0].get();
  ASSERT_TRUE(div->IsElement("div"));
  ASSERT_EQ(div->children.size(), 1u);
  EXPECT_TRUE(div->children[0]->IsElement("p"));
}

TEST(ParserTest, CommentsAndDoctypeSkipped) {
  auto root = ParseHtml("<!DOCTYPE html><!-- note --><p>x</p>");
  ASSERT_EQ(root->children.size(), 1u);
  EXPECT_TRUE(root->children[0]->IsElement("p"));
}

TEST(ParserTest, ScriptBodyDropped) {
  auto root = ParseHtml("<p>a</p><script>var x = '<p>evil</p>';</script>"
                        "<p>b</p>");
  std::string text = ExtractText(*root);
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("b"), std::string::npos);
  EXPECT_EQ(text.find("evil"), std::string::npos);
}

TEST(ParserTest, SelfClosingTag) {
  auto root = ParseHtml("<div><img/>x</div>");
  const HtmlNode* div = root->children[0].get();
  ASSERT_EQ(div->children.size(), 2u);
  EXPECT_EQ(div->children[1]->text, "x");
}

TEST(ParserTest, AttributesDiscardedButTagParsed) {
  auto root = ParseHtml("<div class=\"a b\" id='z'>x</div>");
  EXPECT_TRUE(root->children[0]->IsElement("div"));
}

TEST(ParserTest, EntitiesDecodedInText) {
  auto root = ParseHtml("<p>5 &lt; 7 &amp; 9</p>");
  EXPECT_EQ(root->children[0]->children[0]->text, "5 < 7 & 9");
}

TEST(ExtractTextTest, BlockBoundariesBecomeNewlines) {
  auto root = ParseHtml("<p>one</p><p>two</p>");
  std::string text = ExtractText(*root);
  EXPECT_NE(text.find("one\n"), std::string::npos);
  EXPECT_NE(text.find("two"), std::string::npos);
}

TEST(ExtractTextTest, InlineElementsDoNotBreak) {
  auto root = ParseHtml("<p>a<b>b</b>c</p>");
  std::string text = ExtractText(*root);
  EXPECT_NE(text.find("abc"), std::string::npos);
}

TEST(FindAllTest, DocumentOrder) {
  auto root = ParseHtml("<div><p>1</p><span><p>2</p></span></div><p>3</p>");
  auto ps = FindAll(*root, "p");
  ASSERT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps[0]->children[0]->text, "1");
  EXPECT_EQ(ps[2]->children[0]->text, "3");
}

// ---------------- tables ----------------

constexpr const char* kRowTable =
    "<table>"
    "<tr><th>重量</th><td>5kg</td></tr>"
    "<tr><th>カラー</th><td>ブラック</td></tr>"
    "</table>";

constexpr const char* kColTable =
    "<table>"
    "<tr><th>重量</th><th>カラー</th><th>サイズ</th></tr>"
    "<tr><td>5kg</td><td>ブラック</td><td>M</td></tr>"
    "</table>";

TEST(TableTest, ExtractGrid) {
  auto root = ParseHtml(kRowTable);
  auto tables = FindAll(*root, "table");
  ASSERT_EQ(tables.size(), 1u);
  TableGrid grid = ExtractGrid(*tables[0]);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0], (std::vector<std::string>{"重量", "5kg"}));
}

TEST(TableTest, TwoColumnDictionary) {
  auto root = ParseHtml(kRowTable);
  auto dicts = ExtractDictionaryTables(*root);
  ASSERT_EQ(dicts.size(), 1u);
  ASSERT_EQ(dicts[0].entries.size(), 2u);
  EXPECT_EQ(dicts[0].entries[0].first, "重量");
  EXPECT_EQ(dicts[0].entries[0].second, "5kg");
  EXPECT_EQ(dicts[0].entries[1].first, "カラー");
}

TEST(TableTest, TwoRowDictionary) {
  auto root = ParseHtml(kColTable);
  auto dicts = ExtractDictionaryTables(*root);
  ASSERT_EQ(dicts.size(), 1u);
  ASSERT_EQ(dicts[0].entries.size(), 3u);
  EXPECT_EQ(dicts[0].entries[2].first, "サイズ");
  EXPECT_EQ(dicts[0].entries[2].second, "M");
}

TEST(TableTest, NonDictionaryTableRejected) {
  auto root = ParseHtml(
      "<table>"
      "<tr><td>a</td><td>b</td><td>c</td></tr>"
      "<tr><td>1</td><td>2</td><td>3</td></tr>"
      "<tr><td>4</td><td>5</td><td>6</td></tr>"
      "</table>");
  EXPECT_TRUE(ExtractDictionaryTables(*root).empty());
}

TEST(TableTest, SingleRowRejected) {
  auto root =
      ParseHtml("<table><tr><td>a</td><td>b</td></tr></table>");
  EXPECT_TRUE(ExtractDictionaryTables(*root).empty());
}

TEST(TableTest, EmptyCellsSkipped) {
  auto root = ParseHtml(
      "<table>"
      "<tr><th>重量</th><td></td></tr>"
      "<tr><th>カラー</th><td>白</td></tr>"
      "</table>");
  auto dicts = ExtractDictionaryTables(*root);
  ASSERT_EQ(dicts.size(), 1u);
  ASSERT_EQ(dicts[0].entries.size(), 1u);
  EXPECT_EQ(dicts[0].entries[0].first, "カラー");
}

TEST(TableTest, MarkupInsideCellsStripped) {
  auto root = ParseHtml(
      "<table>"
      "<tr><th><b>重量</b></th><td><span>5kg</span></td></tr>"
      "<tr><th>色</th><td>白</td></tr>"
      "</table>");
  auto dicts = ExtractDictionaryTables(*root);
  ASSERT_EQ(dicts.size(), 1u);
  EXPECT_EQ(dicts[0].entries[0].first, "重量");
  EXPECT_EQ(dicts[0].entries[0].second, "5kg");
}

TEST(TableTest, MultipleTablesAllFound) {
  std::string page = std::string(kRowTable) + kColTable;
  auto root = ParseHtml(page);
  EXPECT_EQ(ExtractDictionaryTables(*root).size(), 2u);
}

TEST(GridToDictionaryTest, AmbiguousTwoByTwoReadAsRows) {
  // 2×2 grids are interpreted as two key/value rows (documented
  // behaviour; the generator only emits 2-row layout for ≥3 columns).
  TableGrid grid = {{"A", "B"}, {"C", "D"}};
  DictionaryTable dict;
  ASSERT_TRUE(GridToDictionary(grid, &dict));
  ASSERT_EQ(dict.entries.size(), 2u);
  EXPECT_EQ(dict.entries[0].first, "A");
  EXPECT_EQ(dict.entries[0].second, "B");
}

// ---------------- golden tag soup ----------------

/// Dictionary tables as "{key=value; ...}" per table, in page order.
std::string SerializeTables(const std::vector<DictionaryTable>& tables) {
  std::string out;
  for (const DictionaryTable& table : tables) {
    out += "{";
    for (size_t i = 0; i < table.entries.size(); ++i) {
      if (i > 0) out += "; ";
      out += table.entries[i].first + "=" + table.entries[i].second;
    }
    out += "}";
  }
  return out;
}

struct GoldenPage {
  std::string html;
  std::string text;    // ExtractText
  std::string tables;  // SerializeTables(ExtractDictionaryTables)
};

// Recorded outputs of the tolerant parser on malformed markup. Seed
// tables and tagged sentences are built from exactly these recovery
// rules, so a change to any line here changes extracted triples.
TEST(HtmlGoldenTest, HandcraftedEdgeCases) {
  const std::vector<GoldenPage> cases = {
      // Plain structure and block breaks.
      {"",
       "",
       ""},
      {"just text, no markup",
       "just text, no markup",
       ""},
      {"<p>one</p><p>two</p>",
       "one\ntwo\n",
       ""},
      {"<div>a<span>b</span>c</div>",
       "abc\n",
       ""},
      {"a<br>b<br/>c<hr>d",
       "a\nb\ncd",
       ""},
      // Well-formed n×2 and 2×n dictionary tables.
      {"<table><tr><td>Brand</td><td>Acme</td></tr>"
       "<tr><td>Zoom</td><td>10x</td></tr></table>",
       "Brand\nAcme\nZoom\n10x\n",
       "{Brand=Acme; Zoom=10x}"},
      {"<table><tr><th>Brand</th><th>Zoom</th></tr>"
       "<tr><td>Acme</td><td>10x</td></tr></table>",
       "Brand\nZoom\nAcme\n10x\n",
       "{Brand=Zoom; Acme=10x}"},
      // Nested table inside a cell: only the inner/outer grids ParseHtml
      // sees may become dictionaries.
      {"<table><tr><td>k</td><td><table><tr><td>a</td><td>b</td></tr>"
       "<tr><td>c</td><td>d</td></tr></table></td></tr>"
       "<tr><td>x</td><td>y</td></tr></table>",
       "k\na\nb\nc\nd\nx\ny\n",
       "{k=a b c d; a=b; c=d; x=y}{a=b; c=d}"},
      // Unclosed cells / rows / table: everything closes at end of input.
      {"<table><tr><td>Brand<td>Acme<tr><td>Zoom<td>10x",
       "Brand\nAcme\nZoom\n10x\n",
       ""},
      {"<table><tr><td>a</td><td>b",
       "a\nb\n",
       ""},
      // Cells with markup, entities, and whitespace runs to collapse.
      {"<table><tr><td> a&amp;b \n c </td><td><b>v</b>1</td></tr>"
       "<tr><td>k2</td><td>v2</td></tr></table>",
       " a&b \n c \nv1\nk2\nv2\n",
       "{a&b c=v1; k2=v2}"},
      // Empty cells are dropped by GridToDictionary.
      {"<table><tr><td></td><td>v</td></tr><tr><td>k</td><td>w</td></tr>"
       "</table>",
       "v\nk\nw\n",
       "{k=w}"},
      // Non-dictionary shapes: 1 row, ragged rows, 3 columns.
      {"<table><tr><td>only</td><td>row</td></tr></table>",
       "only\nrow\n",
       ""},
      {"<table><tr><td>a</td></tr><tr><td>b</td><td>c</td></tr></table>",
       "a\nb\nc\n",
       ""},
      {"<table><tr><td>a</td><td>b</td><td>c</td></tr>"
       "<tr><td>d</td><td>e</td><td>f</td></tr></table>",
       "a\nb\nc\nd\ne\nf\n",
       "{a=d; b=e; c=f}"},
      // script/style bodies are dropped, even with fake tags inside.
      {"before<script>var x = '<td>not a cell</td>';</script>after",
       "beforeafter",
       ""},
      {"a<style>p { content: \"</table>\" }</style>b",
       "ab",
       ""},
      {"<script>unterminated",
       "",
       ""},
      // Comments, doctype, processing cruft.
      {"<!doctype html><!-- c --><p>x<!-- <td>fake</td> --></p>",
       "x\n",
       ""},
      {"<!-- unterminated comment <p>gone",
       "",
       ""},
      // Void and self-closing elements never take children.
      {"<img src=\"a.png\">text<input value=\"v\"><meta charset=\"utf-8\">",
       "text",
       ""},
      {"<div/>tail",
       "tail",
       ""},
      // Unmatched close tags are ignored; stray brackets survive.
      {"</div>text</table></td>more",
       "textmore",
       ""},
      {"a < b and c > d",
       "a  d",
       ""},
      {"tail<",
       "tail<",
       ""},
      {"tail<t",
       "tail<t",
       ""},
      {"<>empty tag<>",
       "empty tag",
       ""},
      // Entities in visible text, including numeric and unknown ones.
      {"&lt;tag&gt; &amp; &quot;q&quot; &#65;&#x42; &unknown; &#xZZ;",
       "<tag> & \"q\" AB &unknown; ",
       ""},
      // Attributes with '>' inside quotes.
      {"<div title=\"a > b\">inside</div>",
       " b\">inside\n",
       ""},
      // Deep unbalanced nesting.
      {"<div><p><span><b>deep</div>after",
       "deep\nafter",
       ""},
      // Multi-byte UTF-8 page text around structure.
      {"<p>光学ズーム 10倍。</p><table><tr><td>画素</td><td>2,000万</td></tr>"
       "<tr><td>ズーム</td><td>10倍</td></tr></table>",
       "光学ズーム 10倍。\n画素\n2,000万\nズーム\n10倍\n",
       "{画素=2,000万; ズーム=10倍}"},
  };
  for (const GoldenPage& golden : cases) {
    SCOPED_TRACE(golden.html);
    const std::unique_ptr<HtmlNode> dom = ParseHtml(golden.html);
    EXPECT_EQ(ExtractText(*dom), golden.text);
    EXPECT_EQ(SerializeTables(ExtractDictionaryTables(*dom)), golden.tables);
  }
}

}  // namespace
}  // namespace pae::html

#ifndef PAE_HTML_PARSER_H_
#define PAE_HTML_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pae::html {

/// One node of the lightweight DOM produced by ParseHtml. Attribute
/// values beyond the tag name are not needed by the pipeline and are
/// discarded during parsing.
struct HtmlNode {
  enum class Type { kElement, kText };

  Type type = Type::kElement;
  std::string tag;   // lowercase tag name; "#root" for the synthetic root
  std::string text;  // text content for kText nodes, entities decoded
  std::vector<std::unique_ptr<HtmlNode>> children;

  bool IsElement(std::string_view name) const {
    return type == Type::kElement && tag == name;
  }
};

/// Parses HTML into a DOM tree rooted at a synthetic "#root" element.
/// The parser is tolerant: unmatched close tags are ignored, unclosed
/// elements are closed at end of input, comments/doctype are skipped,
/// and script/style bodies are treated as raw text and dropped.
std::unique_ptr<HtmlNode> ParseHtml(std::string_view html);

/// Decodes the basic named entities (&amp; &lt; &gt; &quot; &apos;
/// &nbsp;) and numeric character references.
std::string DecodeEntities(std::string_view s);

/// Extracts the visible text of `node` (recursively), inserting '\n' at
/// block-element boundaries (p, div, br, li, tr, table, h1–h6, section)
/// and ' ' at cell boundaries, so downstream sentence splitting sees
/// natural breaks.
std::string ExtractText(const HtmlNode& node);

/// Returns all descendant elements (including `node` itself) with the
/// given lowercase tag name, in document order.
std::vector<const HtmlNode*> FindAll(const HtmlNode& node,
                                     std::string_view tag);

}  // namespace pae::html

#endif  // PAE_HTML_PARSER_H_

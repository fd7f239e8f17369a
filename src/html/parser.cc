#include "html/parser.h"

#include <cctype>
#include <cstdlib>

#include "text/utf8.h"
#include "util/strings.h"

namespace pae::html {

namespace {

std::string ToLowerAscii(std::string_view s) { return pae::AsciiToLower(s); }

// Both predicates sit on the per-tag hot paths of ParseHtml and
// ExtractText, so they branch on length instead of hashing.

/// True for HTML void elements (br, img, ...) which never take children.
bool IsVoidTag(std::string_view tag) {
  switch (tag.size()) {
    case 2:
      return tag == "br" || tag == "hr";
    case 3:
      return tag == "img" || tag == "col" || tag == "wbr";
    case 4:
      return tag == "meta" || tag == "link" || tag == "area" ||
             tag == "base";
    case 5:
      return tag == "input" || tag == "embed" || tag == "track";
    case 6:
      return tag == "source";
    default:
      return false;
  }
}

/// True for tags ExtractText treats as block-level ('\n' inserted at
/// their boundaries).
bool IsBlockTag(std::string_view tag) {
  switch (tag.size()) {
    case 1:
      return tag[0] == 'p';
    case 2: {
      const char a = tag[0];
      const char b = tag[1];
      if (a == 'h') return b >= '1' && b <= '6';
      if (a == 'b') return b == 'r';
      if (a == 'l') return b == 'i';
      if (a == 'u' || a == 'o') return b == 'l';
      if (a == 't') return b == 'r' || b == 'd' || b == 'h';
      if (a == 'd') return b == 't' || b == 'd' || b == 'l';
      return false;
    }
    case 3:
      return tag == "div";
    case 4:
      return tag == "body";
    case 5:
      return tag == "table" || tag == "title";
    case 7:
      return tag == "section" || tag == "article";
    default:
      return false;
  }
}

}  // namespace

std::string DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      ++i;
      continue;
    }
    size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 12) {
      out.push_back('&');
      ++i;
      continue;
    }
    std::string_view name = s.substr(i + 1, semi - i - 1);
    if (name == "amp") {
      out.push_back('&');
    } else if (name == "lt") {
      out.push_back('<');
    } else if (name == "gt") {
      out.push_back('>');
    } else if (name == "quot") {
      out.push_back('"');
    } else if (name == "apos") {
      out.push_back('\'');
    } else if (name == "nbsp") {
      out.push_back(' ');
    } else if (!name.empty() && name[0] == '#') {
      char32_t cp = 0;
      bool ok = false;
      if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
        cp = static_cast<char32_t>(
            std::strtoul(std::string(name.substr(2)).c_str(), nullptr, 16));
        ok = true;
      } else if (name.size() > 1) {
        cp = static_cast<char32_t>(
            std::strtoul(std::string(name.substr(1)).c_str(), nullptr, 10));
        ok = true;
      }
      if (ok && cp > 0) {
        pae::text::AppendUtf8(cp, &out);
      }
    } else {
      // Unknown entity: keep it verbatim.
      out.append(s.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
  return out;
}

std::unique_ptr<HtmlNode> ParseHtml(std::string_view html) {
  auto root = std::make_unique<HtmlNode>();
  root->type = HtmlNode::Type::kElement;
  root->tag = "#root";

  std::vector<HtmlNode*> stack = {root.get()};
  size_t i = 0;
  const size_t n = html.size();

  auto append_text = [&](std::string_view raw) {
    std::string decoded = DecodeEntities(raw);
    if (decoded.empty()) return;
    auto node = std::make_unique<HtmlNode>();
    node->type = HtmlNode::Type::kText;
    node->text = std::move(decoded);
    stack.back()->children.push_back(std::move(node));
  };

  while (i < n) {
    if (html[i] != '<') {
      size_t lt = html.find('<', i);
      if (lt == std::string_view::npos) lt = n;
      append_text(html.substr(i, lt - i));
      i = lt;
      continue;
    }
    // Comment?
    if (html.compare(i, 4, "<!--") == 0) {
      size_t end = html.find("-->", i + 4);
      i = (end == std::string_view::npos) ? n : end + 3;
      continue;
    }
    // Doctype or other declaration?
    if (i + 1 < n && (html[i + 1] == '!' || html[i + 1] == '?')) {
      size_t end = html.find('>', i + 1);
      i = (end == std::string_view::npos) ? n : end + 1;
      continue;
    }
    size_t gt = html.find('>', i + 1);
    if (gt == std::string_view::npos) {
      append_text(html.substr(i));
      break;
    }
    std::string_view inner = html.substr(i + 1, gt - i - 1);
    bool closing = !inner.empty() && inner[0] == '/';
    if (closing) inner.remove_prefix(1);
    bool self_closing = !inner.empty() && inner.back() == '/';
    if (self_closing) inner.remove_suffix(1);

    // Tag name: leading run of alphanumerics.
    size_t name_end = 0;
    while (name_end < inner.size() &&
           (std::isalnum(static_cast<unsigned char>(inner[name_end])) != 0)) {
      ++name_end;
    }
    std::string tag = ToLowerAscii(inner.substr(0, name_end));
    i = gt + 1;
    if (tag.empty()) continue;  // Malformed tag: skip it.

    if (closing) {
      // Pop to the matching open element, if present on the stack.
      for (size_t d = stack.size(); d > 1; --d) {
        if (stack[d - 1]->tag == tag) {
          stack.resize(d - 1);
          break;
        }
      }
      continue;
    }

    auto node = std::make_unique<HtmlNode>();
    node->type = HtmlNode::Type::kElement;
    node->tag = tag;
    HtmlNode* raw = node.get();
    stack.back()->children.push_back(std::move(node));

    if (tag == "script" || tag == "style") {
      // Raw-text element: skip to the close tag, drop the body.
      std::string close = "</" + tag;
      size_t pos = i;
      while (pos < n) {
        size_t found = html.find(close, pos);
        if (found == std::string_view::npos) {
          i = n;
          break;
        }
        size_t end = html.find('>', found);
        i = (end == std::string_view::npos) ? n : end + 1;
        break;
      }
      continue;
    }

    if (!self_closing && !IsVoidTag(tag)) {
      stack.push_back(raw);
    }
  }
  return root;
}

namespace {
void ExtractTextRec(const HtmlNode& node, std::string* out) {
  if (node.type == HtmlNode::Type::kText) {
    out->append(node.text);
    return;
  }
  const bool block = IsBlockTag(node.tag);
  if (block && !out->empty() && out->back() != '\n') out->push_back('\n');
  for (const auto& child : node.children) ExtractTextRec(*child, out);
  if (block && !out->empty() && out->back() != '\n') out->push_back('\n');
}

void FindAllRec(const HtmlNode& node, std::string_view tag,
                std::vector<const HtmlNode*>* out) {
  if (node.type == HtmlNode::Type::kElement && node.tag == tag) {
    out->push_back(&node);
  }
  for (const auto& child : node.children) FindAllRec(*child, tag, out);
}
}  // namespace

std::string ExtractText(const HtmlNode& node) {
  std::string out;
  ExtractTextRec(node, &out);
  return out;
}

std::vector<const HtmlNode*> FindAll(const HtmlNode& node,
                                     std::string_view tag) {
  std::vector<const HtmlNode*> out;
  FindAllRec(node, tag, &out);
  return out;
}

}  // namespace pae::html

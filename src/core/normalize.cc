#include "core/normalize.h"

#include "text/char_class.h"
#include "text/utf8.h"

namespace pae::core {

std::string NormalizeValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  size_t pos = 0;
  while (pos < value.size()) {
    char32_t cp = text::NextCodepoint(value, &pos);
    if (text::ClassifyChar(cp) == text::CharClass::kSpace) continue;
    if (cp >= U'A' && cp <= U'Z') cp = cp - U'A' + U'a';
    text::AppendUtf8(cp, &out);
  }
  return out;
}

std::string PairKey(std::string_view attribute, std::string_view value) {
  std::string key(attribute);
  key.push_back('\t');
  key.append(value);
  return key;
}

}  // namespace pae::core

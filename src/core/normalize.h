#ifndef PAE_CORE_NORMALIZE_H_
#define PAE_CORE_NORMALIZE_H_

#include <string>
#include <string_view>

namespace pae::core {

/// Canonical value form used when comparing extracted values against the
/// truth sample: all whitespace (ASCII and ideographic) removed, ASCII
/// letters lowercased. Detokenization differences ("2,5 kg" vs "2,5kg")
/// must not affect the verdict.
std::string NormalizeValue(std::string_view value);

/// Key used in pair/triple lookup maps: `attr` and `value` joined with a
/// '\t' (values are normalized by the caller).
std::string PairKey(std::string_view attribute, std::string_view value);

}  // namespace pae::core

#endif  // PAE_CORE_NORMALIZE_H_

#include "common/parse.h"

#include <cctype>
#include <charconv>

#include "common/number.h"
#include "common/require.h"

namespace bbrmodel {

std::optional<std::uint64_t> try_parse_u64(std::string_view text) {
  // from_chars takes digits only: no sign, no blanks, no wrap of "-1".
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc() || ptr != last) return std::nullopt;
  return v;
}

std::uint64_t parse_u64(std::string_view text, const std::string& what) {
  const auto v = try_parse_u64(text);
  BBRM_REQUIRE_MSG(v.has_value(),
                   "bad " + what + ": '" + std::string(text) + "'");
  return *v;
}

std::optional<std::string_view> next_line(std::string_view& rest) {
  if (rest.empty()) return std::nullopt;
  const auto eol = rest.find('\n');
  const std::string_view line = rest.substr(0, eol);
  rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
  return line;
}

std::optional<double> try_parse_double(std::string_view text) {
  // decode_number follows strtod, which skips leading blanks and stops at
  // a NUL; full-string semantics must reject both.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      text.find('\0') != std::string_view::npos) {
    return std::nullopt;
  }
  return decode_number(text);
}

}  // namespace bbrmodel

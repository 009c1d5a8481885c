#include "common/number.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace bbrmodel {

namespace {

/// Room for any "%.17g" double ("-2.2250738585072014e-308" is 24 bytes).
constexpr std::size_t kNumberChars = 32;

void append_general(std::string& out, double v, int precision) {
  char buf[kNumberChars];
  const auto result = std::to_chars(buf, buf + sizeof buf, v,
                                    std::chars_format::general, precision);
  out.append(buf, result.ptr);
}

}  // namespace

void append_exact_number(std::string& out, double v) {
  // Non-finite values get stable spellings (printf would write "-nan").
  if (std::isnan(v)) {
    out += "nan";
  } else if (std::isinf(v)) {
    out += v > 0 ? "inf" : "-inf";
  } else {
    append_general(out, v, 17);
  }
}

void append_exact_numbers(std::string& out,
                          const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ' ';
    append_exact_number(out, values[i]);
  }
}

std::string exact_number(double v) {
  std::string out;
  append_exact_number(out, v);
  return out;
}

void append_short_number(std::string& out, double v) {
  append_general(out, v, 10);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::string out;
  append_short_number(out, v);
  return out;
}

std::string csv_number(double v) {
  // Same rendering as JSON numbers, so the CSV and JSON serializations of
  // one result can never drift apart; CSV leaves non-finite cells empty.
  if (!std::isfinite(v)) return "";
  std::string out;
  append_short_number(out, v);
  return out;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, result.ptr);
}

std::optional<double> decode_number(std::string_view token) {
  // from_chars and strtod are both correctly rounded, so a finite value
  // from_chars reads off the whole token is strtod's value bit for bit.
  double v = 0.0;
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, v);
  if (ec == std::errc() && ptr == last && std::isfinite(v)) return v;
  // The rest of strtod's grammar (a leading '+' or blank, hex, inf/nan
  // and their NaN payloads, out-of-range values) keeps strtod's verdict.
  const std::string text(token);
  char* end = nullptr;
  const double slow = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return slow;
}

std::optional<std::vector<double>> decode_numbers(std::string_view text) {
  const auto blank = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  };
  std::vector<double> values;
  std::size_t pos = 0;
  while (true) {
    while (pos < text.size() && blank(text[pos])) ++pos;
    if (pos == text.size()) return values;
    std::size_t end = pos;
    while (end < text.size() && !blank(text[end])) ++end;
    const auto v = decode_number(text.substr(pos, end - pos));
    if (!v) return std::nullopt;
    values.push_back(*v);
    pos = end;
  }
}

}  // namespace bbrmodel

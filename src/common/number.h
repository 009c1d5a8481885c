// The one text codec for numbers.
//
// Every double that reaches a canonical byte form (spec codec, plan
// files, cache cells, result logs) or a result stream (CSV, JSON) is
// rendered here, and every such token is decoded here. Two renderings
// exist and their bytes are fixed by the formats that hash them:
//
//   exact  — printf "%.17g": the shortest fixed precision that round-trips
//            every finite double, so cached metrics and spec keys are
//            bit-exact. Non-finite values spell "nan", "inf", "-inf".
//   short  — printf "%.10g": result CSV/JSON cells, which trade the last
//            digits for readable output.
//
// Both go through std::to_chars with an explicit precision, which the
// standard defines to produce exactly the printf bytes, without printf's
// format parsing or locale lookup. decode_number gives strtod's verdict
// on a whole token, bit for bit: std::from_chars decides the common
// tokens and strtod only sees the ones from_chars does not consume whole.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bbrmodel {

/// Append the lossless "%.17g" rendering of `v` ("nan", "inf", "-inf" for
/// non-finite values): decode_number of the result recovers the exact bit
/// pattern of every finite double. Used wherever serialized bytes feed a
/// hash or must round-trip exactly.
void append_exact_number(std::string& out, double v);
std::string exact_number(double v);

/// Append `values` as exact numbers separated by single spaces.
void append_exact_numbers(std::string& out,
                          const std::vector<double>& values);

/// Append the "%.10g" rendering of `v`, non-finite values included
/// ("nan", "-nan", "inf", "-inf", as printf spells them).
void append_short_number(std::string& out, double v);

/// Deterministic short JSON number ("%.10g", non-finite values map to
/// null). CSV and JSON format result doubles through the same rendering,
/// so identical results serialize to identical bytes.
std::string json_number(double v);

/// Deterministic, locale-independent numeric CSV cell ("%.10g"; non-finite
/// values become empty cells). Mixed string/number rows format their
/// numbers through this so identical results serialize to identical bytes
/// regardless of thread count or platform locale.
std::string csv_number(double v);
/// csv_number, appended to `out` without the temporary.
void append_csv_number(std::string& out, double v);

/// Append `v` in base 10 (std::to_string's bytes, without the temporary).
void append_u64(std::string& out, std::uint64_t v);

/// Decode a whole token with strtod's grammar (signs, exponents, hex,
/// inf/nan, leading blanks). nullopt when nothing converts or bytes are
/// left over. As with strtod on a C string, an embedded NUL ends the token.
std::optional<double> decode_number(std::string_view token);

/// Decode whitespace-separated tokens (any run of blanks separates, as
/// for `istream >> token`). nullopt when any token does not decode.
std::optional<std::vector<double>> decode_numbers(std::string_view text);

}  // namespace bbrmodel

// One spelling of full-string integer and float parsing, and of line
// splitting.
//
// Task indices, plan fields, manifest sizes, and merge row keys all parse
// non-negative integers out of trusted-ish text. The edge handling (empty
// input, trailing bytes, overflow, leading '-') is easy to get subtly
// inconsistent when reimplemented per call site — these helpers are the
// single spelling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bbrmodel {

/// Parse a full string as a base-10 unsigned 64-bit integer. nullopt on
/// empty input, any non-digit byte (including a leading '-' or sign),
/// trailing characters, or overflow.
std::optional<std::uint64_t> try_parse_u64(std::string_view text);

/// Throwing variant: PreconditionError naming `what` on any failure.
std::uint64_t parse_u64(std::string_view text, const std::string& what);

/// Split the next line off the front of `rest`, getline style: the '\n'
/// is dropped and the last line may lack one. nullopt once `rest` is
/// empty. The line views the same bytes as `rest`.
std::optional<std::string_view> next_line(std::string_view& rest);

/// Parse a full string as a floating-point number (strtod grammar —
/// signs, exponents, inf/nan — but the whole string must convert).
/// nullopt on empty input, leading whitespace, or trailing characters.
std::optional<double> try_parse_double(std::string_view text);

}  // namespace bbrmodel

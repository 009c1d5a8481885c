// Stable byte hashing for content-addressed stores.
//
// The sweep engine's CellCache addresses finished experiment cells by a
// hash of their canonical spec bytes (scenario/spec_codec). Cache files
// must mean the same thing across processes, machines, and rebuilds, so
// the hash is a fixed published function (FNV-1a 64) rather than
// std::hash, whose value is implementation-defined and may change between
// libstdc++ versions.
#pragma once

#include <cstdint>
#include <string>

namespace bbrmodel {

/// FNV-1a 64-bit offset basis (the hash of the empty string).
constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ULL;

/// Hash `size` raw bytes with FNV-1a 64. Pass a previous result as `seed`
/// to chain incremental updates. (Distinctly named — an fnv1a64 overload
/// would let a string literal silently bind (const void*, seed-as-size).)
std::uint64_t fnv1a64_bytes(const void* data, std::size_t size,
                            std::uint64_t seed = kFnv1a64Offset);

/// FNV-1a 64 of a string's bytes.
std::uint64_t fnv1a64(const std::string& bytes,
                      std::uint64_t seed = kFnv1a64Offset);

/// Fixed-width lowercase hex of a 64-bit value ("00ff00ff00ff00ff").
std::string hex64(std::uint64_t v);

}  // namespace bbrmodel

#include "common/hash.h"

#include <cstdio>

namespace bbrmodel {

std::uint64_t fnv1a64_bytes(const void* data, std::size_t size,
                            std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& bytes, std::uint64_t seed) {
  return fnv1a64_bytes(bytes.data(), bytes.size(), seed);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace bbrmodel

// 64-bit FNV-1a of a byte string: the digest the byte-identity pins
// (FlowMapTest.CoversPinnedToParent, McRetimeTest.RetryOutputsPinnedToParent)
// record.
#pragma once

#include <cstdint>
#include <string_view>

namespace mcrt::testing {

inline std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace mcrt::testing

// Hashing utilities: a strong 64-bit mixer and pair/tuple combining, used by
// the multiset collapse's shard routing and the flow-table keys.
#pragma once

#include <cstdint>
#include <functional>

namespace csb {

/// Stafford's Mix13 finalizer — a bijective 64-bit mixer.
inline constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-sensitive combination of two 64-bit hashes.
inline constexpr std::uint64_t hash_combine(std::uint64_t a,
                                            std::uint64_t b) noexcept {
  return mix64(a + 0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2));
}

/// Hash for (u, v) endpoint pairs, e.g. edge identity in the collapse.
inline constexpr std::uint64_t hash_pair(std::uint64_t u,
                                         std::uint64_t v) noexcept {
  return hash_combine(mix64(u), mix64(v));
}

}  // namespace csb

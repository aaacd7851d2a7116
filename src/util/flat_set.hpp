// FlatSet64: open-addressing set of 64-bit keys for the multiset collapse's
// per-shard dedup (SimplifyPlan::dedup_shard, the collapse:dedup stage).
//
// One contiguous power-of-two slot array probed linearly from the mix64
// hash — no per-node allocations, no bucket pointers, cache-line friendly.
// Keys are the caller's exact identities (packed or hashed endpoint pairs),
// so equality is on the raw key; mix64 only picks the home slot. The load
// factor is capped at 3/4. Key 0 is the empty-slot sentinel and is handled
// out-of-band, so the full u64 domain is storable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.hpp"

namespace csb {

class FlatSet64 {
 public:
  FlatSet64() = default;

  /// Pre-sizes so `expected` inserts proceed without rehashing.
  explicit FlatSet64(std::size_t expected) { reserve(expected); }

  void reserve(std::size_t expected) {
    const std::size_t target = capacity_for(expected);
    if (target > slots_.size()) rehash(target);
  }

  /// Inserts `key`; returns true when it was not present yet.
  bool insert(std::uint64_t key) {
    if (key == kEmptySlot) {
      if (has_zero_) return false;
      has_zero_ = true;
      return true;
    }
    if ((stored_ + 1) * 4 > slots_.size() * 3) {
      rehash(std::max<std::size_t>(kMinCapacity, slots_.size() * 2));
    }
    std::size_t at = mix64(key) & mask_;
    while (slots_[at] != kEmptySlot) {
      if (slots_[at] == key) return false;
      at = (at + 1) & mask_;
    }
    slots_[at] = key;
    ++stored_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    if (key == kEmptySlot) return has_zero_;
    if (slots_.empty()) return false;
    std::size_t at = mix64(key) & mask_;
    while (slots_[at] != kEmptySlot) {
      if (slots_[at] == key) return true;
      at = (at + 1) & mask_;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return stored_ + (has_zero_ ? 1 : 0);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    stored_ = 0;
    has_zero_ = false;
  }

 private:
  static constexpr std::uint64_t kEmptySlot = 0;
  static constexpr std::size_t kMinCapacity = 16;

  /// Smallest power-of-two capacity that keeps `expected` keys <= 3/4 full.
  static std::size_t capacity_for(std::size_t expected) {
    std::size_t capacity = kMinCapacity;
    while (capacity * 3 < expected * 4) capacity <<= 1;
    return capacity;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(new_capacity, kEmptySlot);
    mask_ = new_capacity - 1;
    for (const std::uint64_t key : old) {
      if (key == kEmptySlot) continue;
      std::size_t at = mix64(key) & mask_;
      while (slots_[at] != kEmptySlot) at = (at + 1) & mask_;
      slots_[at] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t stored_ = 0;  ///< keys in slots_ (excludes the out-of-band 0)
  bool has_zero_ = false;
};

}  // namespace csb

// Open-addressing hash table from 64-bit keys to inline values: the flat
// replacement for node-based maps on the per-operation path (the storage
// version store, the consistency checker, the Space-Saving index).
//
// Linear probing over a power-of-two slot array kept at most 7/8 full.
// Erase shifts the rest of the probe run back into the hole (no
// tombstones), so probe runs stay short under constant insert/erase churn.
// Each slot holds its key and value inline, so a lookup touches one cache
// line, and a table sized once with reserve() never allocates again.
//
// The key ~0 marks an empty slot, so its entry lives in one inline side
// slot instead; every key is storable. Pointers returned by
// find()/try_emplace() stay valid until the next insert or erase. for_each
// visits entries in slot order, then the side slot. Slot order depends on
// the hash and on the insertion history: callers that derive a schedule
// from it must sort.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qopt {

/// Fibonacci hashing: the multiply spreads even sequential keys over the
/// high bits, which pick the home slot.
constexpr std::uint64_t flat_hash(std::uint64_t key) noexcept {
  return key * 0x9E3779B97F4A7C15ULL;
}

template <typename V>
class FlatTable {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  std::size_t size() const noexcept {
    return has_empty_key_ ? size_ + 1 : size_;
  }
  bool empty() const noexcept { return size() == 0; }
  /// Slot count: a power of two, or 0 before the first insert or reserve.
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Grows the slot array, once, so that `n` entries fit under the maximum
  /// load. Never shrinks.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (max_load(cap) < n) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

  V* find(std::uint64_t key) noexcept {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  const V* find(std::uint64_t key) const noexcept {
    if (key == kEmptyKey) return has_empty_key_ ? &empty_key_value_ : nullptr;
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == kEmptyKey) return nullptr;
    }
  }
  bool contains(std::uint64_t key) const noexcept {
    return find(key) != nullptr;
  }

  /// Inserts `value` under `key` unless the key is present. Returns the
  /// stored value and whether it was inserted.
  std::pair<V*, bool> try_emplace(std::uint64_t key, const V& value) {
    if (key == kEmptyKey) {
      if (has_empty_key_) return {&empty_key_value_, false};
      has_empty_key_ = true;
      empty_key_value_ = value;
      return {&empty_key_value_, true};
    }
    if (size_ >= max_load(slots_.size())) {
      if (V* present = find(key)) return {present, false};
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    std::size_t i = home(key);
    for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i].key = key;
    slots_[i].value = value;
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Stores `value` under `key`, replacing any previous value.
  void insert_or_assign(std::uint64_t key, const V& value) {
    auto [stored, inserted] = try_emplace(key, value);
    if (!inserted) *stored = value;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) noexcept {
    if (key == kEmptyKey) {
      if (!has_empty_key_) return false;
      has_empty_key_ = false;
      empty_key_value_ = V{};
      return true;
    }
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
      if (slots_[hole].key == kEmptyKey) return false;
    }
    // Backward shift: an entry later in the run moves into the hole unless
    // its home lies cyclically after the hole, where find() would no longer
    // reach it from.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      const std::size_t probe_distance = (j - home(slots_[j].key)) & mask_;
      if (probe_distance >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Empties the table and keeps its slot array.
  void clear() noexcept {
    has_empty_key_ = false;
    empty_key_value_ = V{};
    if (size_ == 0) return;
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

  /// Calls fn(key, value) once per entry, in slot order, then key ~0.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
    if (has_empty_key_) fn(kEmptyKey, empty_key_value_);
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };

  static constexpr std::size_t max_load(std::size_t cap) noexcept {
    return cap - cap / 8;
  }

  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(flat_hash(key) >> shift_);
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old(cap);
    old.swap(slots_);
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    for (Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;  // entries in slots_; key ~0 is counted apart
  bool has_empty_key_ = false;
  V empty_key_value_{};
};

}  // namespace qopt

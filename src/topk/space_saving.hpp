// Space-Saving top-k stream summary (Metwally, Agrawal, El Abbadi,
// "Efficient computation of frequent and top-k elements in data streams",
// ICDT 2005) — the "state of the art stream analysis algorithm [28]" that
// Q-OPT proxies run to identify hotspot objects with low overhead.
//
// The summary keeps at most `capacity` counters. A monitored key's true
// frequency f satisfies: count - error <= f <= count. Total work per update
// is O(1) using the classic doubly-linked "stream summary" bucket structure;
// this implementation uses a min-indexed layout (intrusive heap over a dense
// vector) that achieves O(log capacity) updates with much simpler code —
// more than fast enough at the proxy's request rates, and the bound
// guarantees are identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flat_table.hpp"

namespace qopt::topk {

struct TopKEntry {
  std::uint64_t key = 0;
  std::uint64_t count = 0;  // upper bound on true frequency
  std::uint64_t error = 0;  // over-estimation bound
};

class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity);

  void add(std::uint64_t key, std::uint64_t increment = 1);

  /// The k heaviest monitored keys, by count descending (key ascending as a
  /// deterministic tiebreak). k > capacity() returns all monitored keys.
  std::vector<TopKEntry> top(std::size_t k) const;

  /// Count upper bound for a key (0 if not monitored).
  std::uint64_t estimate(std::uint64_t key) const;

  /// Whether a key is guaranteed frequent, i.e. its lower bound
  /// (count - error) exceeds `threshold`.
  bool guaranteed_above(std::uint64_t key, std::uint64_t threshold) const;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return slots_.size(); }
  std::uint64_t stream_length() const noexcept { return stream_length_; }

  void clear();

  /// Merges another summary into this one (counts and errors add for shared
  /// keys; the result is re-trimmed to capacity). Used by the Autonomic
  /// Manager to combine per-proxy summaries.
  void merge(const SpaceSaving& other);

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t count;
    std::uint64_t error;
    std::size_t heap_pos;  // position in heap_
  };

  // Min-heap over slots_ ordered by count (then key, for determinism).
  bool heap_less(std::size_t a, std::size_t b) const;
  void heap_swap(std::size_t i, std::size_t j);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> heap_;  // heap of slot indices
  // key -> slot. Sized for `capacity` keys up front: at capacity nearly
  // every add of a cold key evicts, one erase plus one insert, neither of
  // which allocates.
  FlatTable<std::size_t> index_;
  std::uint64_t stream_length_ = 0;
};

}  // namespace qopt::topk

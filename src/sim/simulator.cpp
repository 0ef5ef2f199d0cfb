#include "sim/simulator.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace qopt::sim {

namespace {

/// The (time, seq) order on keys and slots: true when `a` runs first.
template <typename A, typename B>
bool precedes(const A& a, const B& b) noexcept {
  return a.time < b.time || (a.time == b.time && a.seq < b.seq);
}

/// A word with only bit `i` set.
constexpr std::uint64_t bit(std::size_t i) noexcept {
  return std::uint64_t{1} << i;
}

/// The index of the lowest set bit of a non-zero word.
std::size_t lowest(std::uint64_t word) noexcept {
  return static_cast<std::size_t>(std::countr_zero(word));
}

/// Far-heap order: std::push_heap/pop_heap build a max-heap, so "less" is
/// "later" and the (time, seq)-least key sits at the front.
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const noexcept {
    return precedes(b, a);
  }
};

}  // namespace

std::uint32_t Simulator::acquire_slot() {
  const std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slab_[slot].next;
    return slot;
  }
  // Geometric growth, reserved explicitly: the slab only grows while the
  // number of pending events reaches a new high-water mark.
  if (slab_.size() == slab_.capacity()) {
    slab_.reserve(std::max<std::size_t>(64, 2 * slab_.size()));
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulator::enqueue(Time t, std::uint32_t slot) {
  Slot& s = slab_[slot];
  s.time = t;
  s.seq = next_seq_++;
#if QOPT_PROFILE_ENABLED
  s.enqueued_at = now_;
  if (profiler_ && profiler_->enabled()) profiler_->note_schedule();
#endif
  link(slot);
}

void Simulator::link(std::uint32_t slot) {
  Slot& s = slab_[slot];
  const Time bucket = s.time >> kBucketBits;
  // One unsigned test sends both the keys past the horizon and those behind
  // the cursor (a negative distance) off the ring.
  if (static_cast<std::uint64_t>(bucket - cursor_) >= kRingBuckets) {
    park(slot);
    return;
  }
  const std::size_t i = static_cast<std::size_t>(bucket) & (kRingBuckets - 1);
  std::uint32_t* next = &ring_[i];
  while (*next != kNoSlot && precedes(slab_[*next], s)) {
    next = &slab_[*next].next;
  }
  s.next = *next;
  *next = slot;
  occupied_[i / 64] |= bit(i % 64);
  ++in_ring_;
}

void Simulator::park(std::uint32_t slot) {
  const Slot& s = slab_[slot];
  const Key key{s.time, s.seq, slot};
  if ((key.time >> kBucketBits) >= cursor_) {
    if (far_.size() == far_.capacity()) {
      far_.reserve(std::max<std::size_t>(64, 2 * far_.size()));
    }
    far_.push_back(key);
    std::push_heap(far_.begin(), far_.end(), Later{});
    return;
  }
  // Sorted with the least key last; the list stays as short as the
  // chooser's window keeps it.
  if (behind_.size() == behind_.capacity()) {
    behind_.reserve(std::max<std::size_t>(16, 2 * behind_.size()));
  }
  behind_.insert(std::lower_bound(behind_.begin(), behind_.end(), key,
                                  Later{}),
                 key);
}

std::size_t Simulator::next_bucket() const noexcept {
  // Ring order from the cursor is time order. The scan wraps at most once,
  // to the buckets the horizon has reached behind the cursor's index.
  const std::size_t start =
      static_cast<std::size_t>(cursor_) & (kRingBuckets - 1);
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) {
    word = (word + 1) % kRingWords;
    bits = occupied_[word];
  }
  return word * 64 + lowest(bits);
}

Time Simulator::next_time() const noexcept {
  if (!behind_.empty()) return behind_.back().time;
  if (in_ring_ != 0) return slab_[ring_[next_bucket()]].time;
  if (!far_.empty()) return far_.front().time;
  return kForever;
}

void Simulator::advance(Time bucket) {
  cursor_ = bucket;
  // Far keys enter the ring as the horizon reaches them.
  while (!far_.empty() &&
         (far_.front().time >> kBucketBits) - cursor_ <
             static_cast<Time>(kRingBuckets)) {
    const std::uint32_t slot = far_.front().slot;
    std::pop_heap(far_.begin(), far_.end(), Later{});
    far_.pop_back();
    link(slot);
  }
}

std::uint32_t Simulator::pop_least(Time until) {
  // Keys behind the cursor precede every ring key, and ring keys precede
  // every far key.
  if (!behind_.empty()) {
    if (behind_.back().time > until) return kNoSlot;
    const std::uint32_t slot = behind_.back().slot;
    behind_.pop_back();
    return slot;
  }
  if (in_ring_ == 0) {
    // Only far keys wait: jump the cursor to the earliest.
    if (far_.empty() || far_.front().time > until) return kNoSlot;
    advance(far_.front().time >> kBucketBits);
  }
  const std::size_t i = next_bucket();
  const std::uint32_t slot = ring_[i];
  const Slot& s = slab_[slot];
  if (s.time > until) return kNoSlot;
  ring_[i] = s.next;
  if (s.next == kNoSlot) occupied_[i / 64] &= ~bit(i % 64);
  --in_ring_;
  advance(s.time >> kBucketBits);
  return slot;
}

void Simulator::set_schedule_chooser(ScheduleChooser chooser,
                                     std::size_t window) {
  chooser_ = std::move(chooser);
  chooser_window_ = window < 2 ? 2 : window;
  staged_.reserve(chooser_window_);
}

void Simulator::clear_schedule_chooser() {
  chooser_ = nullptr;
  chooser_window_ = 0;
  staged_.clear();
}

std::uint32_t Simulator::choose(std::uint32_t first) {
  staged_.clear();
  staged_.reserve(chooser_window_);
  staged_.push_back(first);
  while (staged_.size() < chooser_window_ && !empty()) {
    staged_.push_back(pop_least(kForever));
  }
  std::size_t pick = chooser_(staged_.size());
  if (pick >= staged_.size()) pick = 0;
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    // Unchosen keys keep their original (time, seq), so removing the
    // chooser restores the canonical order for everything still queued.
    if (i == pick) continue;
    link(staged_[i]);
#if QOPT_PROFILE_ENABLED
    if (profiler_ && profiler_->enabled()) profiler_->note_requeue();
#endif
  }
  return staged_[pick];
}

bool Simulator::run_next(Time until) {
  std::uint32_t index = pop_least(until);
  if (index == kNoSlot) return false;
  if (chooser_ && !empty()) index = choose(index);
  Slot& slot = slab_[index];
  // Monotone clock: an event displaced behind a later one runs at the later
  // event's time (delivery was delayed; the clock never rewinds).
  if (slot.time > now_) now_ = slot.time;
  ++processed_;
#if QOPT_PROFILE_ENABLED
  const bool profiled = profiler_ && profiler_->enabled();
  if (profiled) profiler_->begin_event(now_, slot.enqueued_at, pending());
#endif
  // The slot is free once its callable moves out, so the event may reuse it,
  // or grow the slab, while it runs; `slot` is not touched afterwards.
  slot.next = free_head_;
  free_head_ = index;
  slot.task.consume();
#if QOPT_PROFILE_ENABLED
  if (profiled) profiler_->end_event();
#endif
  return true;
}

bool Simulator::step() { return run_next(kForever); }

std::uint64_t Simulator::run(Time until) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && run_next(until)) ++n;
  // Advance the clock to the horizon so repeated bounded runs compose.
  if (until != kForever && until > now_ && next_time() > until) now_ = until;
  return n;
}

}  // namespace qopt::sim

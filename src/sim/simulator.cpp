#include "sim/simulator.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <utility>

namespace qopt::sim {

namespace {

/// Heap order: std::push_heap/pop_heap build a max-heap, so "less" is
/// "later" and the (time, seq)-least key sits at the front.
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

std::uint32_t Simulator::acquire_slot() {
  const std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slab_[slot].next_free;
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
#if QOPT_PROFILE_ENABLED
  slab_[slot].enqueued_at = now_;
  if (profiler_ && profiler_->enabled()) profiler_->note_schedule();
#endif
  if (heap_.size() == heap_.capacity()) {
    heap_.reserve(std::max<std::size_t>(64, 2 * heap_.size()));
  }
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Simulator::Key Simulator::pop_least() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  return key;
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

Simulator::Key Simulator::choose(Key first) {
  staged_.clear();
  staged_.reserve(chooser_window_);
  staged_.push_back(first);
  while (staged_.size() < chooser_window_ && !heap_.empty()) {
    staged_.push_back(pop_least());
  }
  std::size_t pick = chooser_(staged_.size());
  if (pick >= staged_.size()) pick = 0;
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    // Unchosen keys keep their original (time, seq), so removing the
    // chooser restores the canonical order for everything still queued.
    if (i == pick) continue;
    heap_.push_back(staged_[i]);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
#if QOPT_PROFILE_ENABLED
    if (profiler_ && profiler_->enabled()) profiler_->note_requeue();
#endif
  }
  return staged_[pick];
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  Key key = pop_least();
  if (chooser_ && !heap_.empty()) key = choose(key);
  // Monotone clock: an event displaced behind a later one runs at the later
  // event's time (delivery was delayed; the clock never rewinds).
  if (key.time > now_) now_ = key.time;
  ++processed_;
  Slot& slot = slab_[key.slot];
#if QOPT_PROFILE_ENABLED
  const bool profiled = profiler_ && profiler_->enabled();
  if (profiled) profiler_->begin_event(now_, slot.enqueued_at, heap_.size());
#endif
  // The slot is free once its callable moves out, so the event may reuse it,
  // or grow the slab, while it runs; `slot` is not touched afterwards.
  slot.next_free = free_head_;
  free_head_ = key.slot;
  slot.task.consume();
#if QOPT_PROFILE_ENABLED
  if (profiled) profiler_->end_event();
#endif
  return true;
}

std::uint64_t Simulator::run(Time until) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && !heap_.empty() && heap_.front().time <= until) {
    step();
    ++n;
  }
  if (heap_.empty() || heap_.front().time > until) {
    // Advance the clock to the horizon so repeated bounded runs compose.
    if (until != kForever && until > now_) now_ = until;
  }
  return n;
}

}  // namespace qopt::sim

// Deterministic discrete-event simulation kernel.
//
// A single virtual clock and a binary min-heap of 24-byte (time, seq, slot)
// keys over a free-listed slab of event slots, each holding one move-only
// callable stored inline. Events scheduled for the same instant run in
// scheduling order (a monotone sequence number breaks ties), which makes
// every run bit-for-bit reproducible from its seed. Scheduling and running
// an event neither allocates nor hashes once the slab has reached the
// simulation's peak number of pending events.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>  // std::construct_at/destroy_at; brings std::launder
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "util/time.hpp"

namespace qopt::sim {

/// Bytes of inline storage in an event slot. Covers every closure in the
/// tree; the largest, StorageNode's write completion, captures 88 bytes.
inline constexpr std::size_t kEventCapacity = 112;

/// What Simulator::at()/after() accept: a callable invocable as `fn()` that
/// fits an event slot (at most kEventCapacity bytes, fundamental alignment)
/// and moves without throwing, because slots relocate when the slab grows.
/// There is no heap fallback: a larger closure does not compile, so trim
/// its captures.
template <typename F>
concept EventCallable =
    std::invocable<std::decay_t<F>&> &&
    std::constructible_from<std::decay_t<F>, F> &&
    std::is_nothrow_move_constructible_v<std::decay_t<F>> &&
    sizeof(std::decay_t<F>) <= kEventCapacity &&
    alignof(std::decay_t<F>) <= alignof(std::max_align_t);

/// A move-only `void()` callable stored inline in a fixed buffer.
class EventTask {
 public:
  EventTask() noexcept = default;
  EventTask(EventTask&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.buf_, buf_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }
  EventTask& operator=(EventTask&&) = delete;
  ~EventTask() {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  /// Constructs `fn` in the (empty) buffer.
  template <typename F>
  void emplace(F&& fn) {
    static_assert(EventCallable<F>,
                  "an event callable must fit kEventCapacity bytes and "
                  "move without throwing");
    using Fn = std::decay_t<F>;
    std::construct_at(reinterpret_cast<Fn*>(buf_), std::forward<F>(fn));
    ops_ = &kOps<Fn>;
  }

  /// Runs the callable once and leaves the task empty. The callable moves
  /// to the stack before it runs, so this task's storage may be reused, or
  /// relocated by slab growth, while it runs.
  void consume() { std::exchange(ops_, nullptr)->consume(buf_); }

 private:
  struct Ops {
    void (*consume)(void* buf);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename Fn>
  static Fn* stored(void* buf) noexcept {
    return std::launder(static_cast<Fn*>(buf));
  }

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* buf) {
        Fn* held = stored<Fn>(buf);
        Fn fn(std::move(*held));
        std::destroy_at(held);
        fn();
      },
      [](void* from, void* to) noexcept {
        Fn* held = stored<Fn>(from);
        std::construct_at(static_cast<Fn*>(to), std::move(*held));
        std::destroy_at(held);
      },
      [](void* buf) noexcept { std::destroy_at(stored<Fn>(buf)); },
  };

  alignas(std::max_align_t) std::byte buf_[kEventCapacity];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  static constexpr Time kForever = std::numeric_limits<Time>::max();

  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now). `fn` is
  /// moved (or copied, from an lvalue) into an event slot and runs once;
  /// events pending when the simulator is destroyed are destroyed unrun.
  template <typename F>
    requires EventCallable<F>
  void at(Time t, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slab_[slot].task.emplace(std::forward<F>(fn));
    enqueue(t < now_ ? now_ : t, slot);
  }

  /// Schedules `fn` after `d` nanoseconds of virtual time.
  template <typename F>
    requires EventCallable<F>
  void after(Duration d, F&& fn) {
    at(now_ + (d > 0 ? d : 0), std::forward<F>(fn));
  }

  /// Runs events until the queue empties, `until` is passed, or stop() is
  /// called. Returns the number of events processed.
  std::uint64_t run(Time until = kForever);

  /// Processes a single event; returns false if the queue is empty.
  bool step();

  /// Makes the innermost run() return after the current event.
  void stop() noexcept { stopped_ = true; }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Attaches the engine self-profiler (owned by the obs bundle; Cluster
  /// wires it). Null detaches. Every hook call compiles away under
  /// QOPT_PROFILE=OFF, and a bound-but-disabled profiler costs one branch
  /// per event.
  void bind_profiler(obs::EngineProfiler* profiler) noexcept {
#if QOPT_PROFILE_ENABLED
    profiler_ = profiler;
#else
    (void)profiler;
#endif
  }

  // ---------------------------------------------------- schedule override
  //
  // Hook for exhaustive small-scope interleaving exploration (see
  // tests/interleave_gate_test.cpp). When installed, each step() stages the
  // up-to-`window` earliest pending events and asks the chooser which one
  // runs next; the others go back on the queue with their original time and
  // sequence number, so clearing the chooser restores the deterministic
  // (time, seq) order exactly. The virtual clock never moves backwards:
  // running a later event first pins now() until the displaced earlier
  // events catch up. Off (null chooser) in every production run.

  /// Called with the number of staged candidates (>= 2, earliest first);
  /// must return the index of the event to run next.
  // qopt-perf: allow(heap-alloc-hot) test-only hook, assigned once per explored schedule
  using ScheduleChooser = std::function<std::size_t(std::size_t)>;

  void set_schedule_chooser(ScheduleChooser chooser, std::size_t window);
  void clear_schedule_chooser();
  bool schedule_chooser_active() const noexcept {
    return static_cast<bool>(chooser_);
  }

 private:
  /// Heap entry: the event's place in the (time, seq) order and its slot.
  struct Key {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);

  /// Slab entry. `next_free` threads the free list through released slots.
  struct Slot {
    EventTask task;
#if QOPT_PROFILE_ENABLED
    Time enqueued_at = 0;  // virtual instant at() staged it (dwell telemetry)
#endif
    std::uint32_t next_free = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Takes a free slab slot, growing the slab when none is free.
  std::uint32_t acquire_slot();
  /// Pushes the key for the (filled) `slot` at instant `t`.
  void enqueue(Time t, std::uint32_t slot);
  /// Pops the (time, seq)-least key.
  Key pop_least();
  /// Stages the window behind `first`, runs the chooser, and requeues the
  /// keys it did not pick.
  Key choose(Key first);

  std::vector<Key> heap_;   // binary min-heap on (time, seq)
  std::vector<Slot> slab_;  // grows only at a new pending-event high mark
  std::uint32_t free_head_ = kNoSlot;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  // qopt-perf: allow(heap-alloc-hot) null on production runs; step() sees a bool test
  ScheduleChooser chooser_;
  std::size_t chooser_window_ = 0;
  std::vector<Key> staged_;  // scratch reused across chooser steps
#if QOPT_PROFILE_ENABLED
  obs::EngineProfiler* profiler_ = nullptr;
#endif
};

}  // namespace qopt::sim

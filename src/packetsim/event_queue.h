// Discrete-event simulation core.
//
// A time-ordered queue of closures with FIFO tie-breaking for equal
// timestamps (deterministic replay — the whole packet simulator is seeded
// and reproducible, see DESIGN.md §4).
//
// Events are arena-allocated: each scheduled closure lives in a pooled
// fixed-size node (inline storage, no std::function), nodes come from
// chunked slabs threaded onto a free list, and executing an event returns
// its node to the list. After the pool warms up, scheduling and running
// events performs zero malloc/free — the event loop is the packet
// simulator's hottest path, and per-event allocation dominated its profile.
// Closures larger than the inline storage (none today) are boxed on the
// heap transparently; move-only captures are fine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/require.h"

namespace bbrmodel::packetsim {

/// Event-driven simulation clock and scheduler.
class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();

  /// Current simulation time (seconds).
  double now() const { return now_; }

  /// Schedule `action` at absolute time `t` (must not be in the past).
  template <typename F>
  void schedule_at(double t, F&& action) {
    BBRM_REQUIRE_MSG(t >= now_ - 1e-12, "cannot schedule into the past");
    Node* node = make_node(std::forward<F>(action));
    queue_.push(Entry{std::max(t, now_), next_seq_++, node});
  }

  /// Schedule `action` after `delay` seconds.
  template <typename F>
  void schedule_in(double delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Take the tie-break sequence number the next schedule_at would use,
  /// without scheduling anything. A timer that is re-armed far more often
  /// than it fires reserves one per arm and schedules only the arm that
  /// matters, through schedule_at_seq: every other event keeps the
  /// sequence number it would have had.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `action` at (t, seq), `seq` taken from reserve_seq(): it
  /// runs exactly where an event scheduled at `t` when `seq` was reserved
  /// would have run.
  template <typename F>
  void schedule_at_seq(double t, std::uint64_t seq, F&& action) {
    BBRM_REQUIRE_MSG(t >= now_ - 1e-12, "cannot schedule into the past");
    BBRM_REQUIRE_MSG(seq < next_seq_, "sequence not taken by reserve_seq");
    Node* node = make_node(std::forward<F>(action));
    queue_.push(Entry{std::max(t, now_), seq, node});
  }

  /// Run events until the queue is empty or the clock passes `t_end`.
  /// Events scheduled exactly at t_end are executed.
  void run_until(double t_end);

  /// Number of events executed so far.
  std::uint64_t executed() const { return executed_; }

  bool empty() const { return queue_.empty(); }

 private:
  /// Inline closure capacity. Sized for the simulator's largest capture
  /// (this + a Packet echo and change); bigger closures fall back to a
  /// heap box, so this is a performance knob, not a correctness limit.
  static constexpr std::size_t kInlineEventBytes = 96;
  static constexpr std::size_t kChunkNodes = 128;

  struct Node {
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;  ///< null for trivial captures
    Node* next_free = nullptr;
    alignas(alignof(std::max_align_t)) unsigned char storage[kInlineEventBytes];
  };

  struct Entry {
    double time;
    std::uint64_t seq;  // insertion order for stable ties
    Node* node;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Node* acquire();
  void release(Node* node);

  template <typename F>
  Node* make_node(F&& action) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineEventBytes) {
      Node* node = acquire();
      ::new (static_cast<void*>(node->storage)) Fn(std::forward<F>(action));
      node->invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        node->destroy = nullptr;
      } else {
        node->destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
      }
      return node;
    } else {
      // Oversized capture: box it; the boxing closure itself is tiny.
      return make_node(
          [boxed = std::unique_ptr<Fn>(new Fn(std::forward<F>(action)))] {
            (*boxed)();
          });
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_ = nullptr;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace bbrmodel::packetsim

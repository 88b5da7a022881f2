// The pending-event set of the discrete-event engine.
//
// Ordering.  Events fire in (time, sequence-number) order: the sequence
// number makes same-timestamp events FIFO and therefore deterministic, which
// the reproducibility of every experiment in this repository relies on.
//
// Storage.  The heap holds only 24-B keys (time, sequence, slot index); the
// callables live in a slot store of fixed-size chunks that never moves a
// live slot, so the simulator invokes a callback where it lies, and that
// callback may schedule and cancel events (its own id included) while it
// runs.  Free slots are recycled LIFO.  A callable is a Callback: captures of
// up to 24 B sit in the slot, larger ones in a recycled per-thread block
// (sim/callback.hpp), so a warm queue schedules without allocating.
//
// Cancellation.  A slot records the sequence number of the event it holds,
// 0 once that event fired or was cancelled.  An EventId carries both, so
// cancel() is a comparison: a stale id, whose slot has since been reused,
// matches nothing.  Cancelling releases the callable at once; the key stays
// in the heap and frees its slot when it surfaces.
//
// Memory.  A pending event costs its 24-B key, its 40-B slot and 4 B of
// free-slot stack, plus a size-class block for a capture over 24 B (128 B for
// a packet-carrying event).  The hybrid websearch benchmark keeps up to ~27K
// events pending, about half of them 128-B OCS deliveries and half 16-B
// pump wake-ups: ~68 B per wake-up, ~200 B per delivery, ~135 B on average.
// That is the budget: a slot must not grow to hold large captures inline,
// since at that depth every added byte per entry costs ~27 KB, doubled while
// a vector grows.  Slot chunks (256 slots) are allocated as the pending set
// first grows and kept until the queue is destroyed, so a queue that stays
// shallow, as on an 8-port switch, costs one 10-KB chunk.
#ifndef XDRS_SIM_EVENT_QUEUE_HPP
#define XDRS_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace xdrs::sim {

/// Opaque identifier of a scheduled event; usable to cancel it.
struct EventId {
  std::uint64_t seq{0};
  std::uint32_t slot{0};
  [[nodiscard]] constexpr bool valid() const noexcept { return seq != 0; }
  constexpr bool operator==(const EventId&) const noexcept = default;
};

/// Min-heap of timestamped callbacks with stable FIFO tie-breaking.
class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Inserts `cb` to fire at absolute time `at`.  O(log n).
  EventId push(Time at, Callback cb);

  /// Removes an event from the live set and releases its callable.  O(1).
  /// Cancelling an unknown, fired or already-cancelled id is a harmless
  /// no-op.  Returns true if the event was still pending.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Timestamp of the earliest live event.  Precondition: !empty().
  [[nodiscard]] Time next_time();

  /// Removes and returns the earliest live event.  Precondition: !empty().
  struct Popped {
    Time at;
    EventId id;
    Callback cb;
  };
  [[nodiscard]] Popped pop();

  /// Removes the earliest live event, sets `now` to its time and invokes it
  /// in place.  Precondition: !empty().
  void run_next(Time& now);

  /// Total events ever pushed (for engine statistics).
  [[nodiscard]] std::uint64_t total_pushed() const noexcept { return next_seq_ - 1; }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint64_t seq{0};  // the pending event's sequence number, else 0
    Callback cb;
  };
  static constexpr std::uint32_t kSlotsPerChunk = 256;
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] Slot& slot_at(std::uint32_t s) noexcept {
    return chunks_[s / kSlotsPerChunk][s % kSlotsPerChunk];
  }
  [[nodiscard]] std::uint32_t acquire_slot();
  /// Pops heap keys of cancelled events, freeing their slots, until a live
  /// one is on top.
  void drop_dead_head();
  /// Removes the heap's root, which must be live, and marks it fired.
  Key take_head();
  void sift_up(Key key);
  void pop_root();

  std::vector<Key> heap_;  // kArity-ary min-heap on (at, seq)
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;  // capacity covers every slot
  std::uint32_t slots_made_{0};
  std::size_t live_{0};
  std::uint64_t next_seq_{1};
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_EVENT_QUEUE_HPP

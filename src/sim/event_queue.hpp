// The pending-event set of the discrete-event engine.
//
// Ordering.  Events fire in (time, sequence-number) order: the sequence
// number makes same-timestamp events FIFO and therefore deterministic, which
// the reproducibility of every experiment in this repository relies on.
// Keys only grow: an event may not be pushed before the last one fired
// (push throws), which the simulator guarantees by never scheduling before
// now().  That makes the set a monotone radix queue (Ahuja, Mehlhorn, Orlin
// and Tarjan, 1990).  A key goes into the bucket numbered by the highest bit
// in which its 128-bit (time, sequence) differs from the last fired key, so
// a push is one count-leading-zeros and one append.  The earliest key is in
// the lowest non-empty bucket, found from a two-word mask; firing it takes
// that bucket's minimum and re-files its other keys into lower buckets,
// relative to the new last key.  A key moves down at most once per bit.
// Each bucket tracks its earliest key as keys are filed, so finding the
// head is a mask lookup.  Peeking (next_time) moves nothing, so an event
// pushed after a peek, but earlier than the peeked head, still fires first.
//
// Storage.  Buckets hold only 16-B keys: the time, and the sequence number
// and slot index packed in one word (so at most 2^24 events pending and 2^40
// pushed; push throws std::length_error beyond).  A bucket is a chain of
// 512-B blocks of 31 keys; blocks are carved from 4-KB slabs of 8, and a
// destroyed queue hands its slabs to the next queue built on its thread, so
// a sweep of short points does not allocate them point after point.  The
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
// matches nothing.  Cancelling releases the callable at once; the key is
// re-filed like any other until it is the earliest key of the bucket the
// head is sought in, and then that bucket drops all its cancelled keys and
// frees their slots.
//
// Memory.  A pending event costs its 16-B key, its 40-B slot and 4 B of
// free-slot stack, plus a size-class block for a capture over 24 B (128 B for
// a packet-carrying event).  On top of the keys, each non-empty bucket holds
// one partly filled block.  Measured with a counting copy of the queue: a
// 32-port hybrid websearch instance of the benchmark peaks at 26,655 pending
// events, about half of them 128-B OCS deliveries and half 16-B pump
// wake-ups, in at most 896 blocks (448 KB of keys, where the 4-ary heap's
// 24-B keys took up to 768 KB); the p128_uniform point peaks at 1,450 in at
// most 64 blocks.  That is the budget: a slot must not grow to hold large
// captures inline, since at that depth every added byte per entry costs
// ~27 KB.  Slot chunks (256 slots) are allocated as the pending set first
// grows and kept until the queue is destroyed, so a queue that stays
// shallow, as on an 8-port switch, costs one 10-KB chunk and a slab or two.
#ifndef XDRS_SIM_EVENT_QUEUE_HPP
#define XDRS_SIM_EVENT_QUEUE_HPP

#include <array>
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

/// Monotone priority queue of timestamped callbacks with stable FIFO
/// tie-breaking.
class EventQueue {
 public:
  using Callback = sim::Callback;

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts `cb` to fire at absolute time `at`.  O(1).  Throws
  /// std::invalid_argument if `at` is negative or earlier than the last
  /// fired (popped or run) event.
  EventId push(Time at, Callback cb);

  /// Removes an event from the live set and releases its callable.  O(1).
  /// Cancelling an unknown, fired or already-cancelled id is a harmless
  /// no-op.  Returns true if the event was still pending.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Timestamp of the earliest live event.  Precondition: !empty().  Events
  /// pushed afterwards may still be earlier.
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
  // (seq, slot) share one word, the sequence number on top, so a key is
  // 16 B and orders as (at, seq).
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);
  struct Key {
    Time at;
    std::uint64_t tag;  // seq << kSlotBits | slot
    [[nodiscard]] std::uint64_t seq() const noexcept { return tag >> kSlotBits; }
    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(tag & (kMaxSlots - 1));
    }
  };
  struct Slot {
    std::uint64_t seq{0};  // the pending event's sequence number, else 0
    Callback cb;
  };
  // A bucket is a chain of fixed-size blocks, appended at its last block,
  // so the key store holds the pending keys plus one partly filled block per
  // non-empty bucket.  Blocks are carved from slabs the queue owns; a
  // destroyed queue hands its slabs to the next queue built on its thread.
  static constexpr std::uint32_t kBlockKeys = 31;  // a 512-B block
  static constexpr std::size_t kSlabBlocks = 8;
  struct Block {
    Block* next;
    std::uint32_t size;
    Key keys[kBlockKeys];
  };
  struct Bucket {
    Block* first{nullptr};
    Block* last{nullptr};
    Key* min{nullptr};  // its earliest key, live or not
  };
  struct BlockPool;
  static constexpr std::uint32_t kSlotsPerChunk = 256;
  static constexpr std::size_t kBuckets = 128;  // one per bit of (time, seq)

  [[nodiscard]] Slot& slot_at(std::uint32_t s) noexcept {
    return chunks_[s / kSlotsPerChunk][s % kSlotsPerChunk];
  }
  [[nodiscard]] bool live(const Key& k) noexcept { return slot_at(k.slot()).seq == k.seq(); }
  [[nodiscard]] std::uint32_t acquire_slot();
  [[nodiscard]] Block* acquire_block();
  void release_block(Block* b) noexcept;
  /// Bucket of `k` relative to the last fired key: the highest bit in which
  /// the two differ.
  [[nodiscard]] std::size_t bucket_of(const Key& k) const noexcept;
  /// Appends `k` to its bucket.
  void file(const Key& k);
  /// Drops every cancelled key of bucket `b`, freeing its slot, and finds
  /// its earliest key again.
  void compact(std::size_t b) noexcept;
  /// The bucket holding the earliest live key; cancelled keys of lower
  /// buckets, or of its own if one was its minimum, free their slots.
  /// Returns kBuckets if no live key is left.
  std::size_t head_bucket();
  /// Removes the earliest live key, which must exist, makes it the last
  /// fired key and marks its event fired.
  Key take_head();
  /// This thread's spare slabs; null once the thread tears them down.
  static BlockPool* block_pool() noexcept;

  std::array<Bucket, kBuckets> buckets_{};
  std::array<std::uint64_t, kBuckets / 64> filled_{};  // bit b: buckets_[b] non-empty
  std::vector<std::unique_ptr<Block[]>> slabs_;
  Block* spare_{nullptr};       // free blocks, chained through next
  Key last_{Time::zero(), 0};   // the last fired key
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;  // capacity covers every slot
  std::uint32_t slots_made_{0};
  std::size_t live_{0};
  std::uint64_t next_seq_{1};
};

}  // namespace xdrs::sim

#endif  // XDRS_SIM_EVENT_QUEUE_HPP

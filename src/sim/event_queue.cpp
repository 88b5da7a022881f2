#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace xdrs::sim {
namespace {

template <class Key>
bool before(const Key& a, const Key& b) noexcept {
  return a.at < b.at || (a.at == b.at && a.seq < b.seq);
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  if (slots_made_ % kSlotsPerChunk == 0) {
    if (slots_made_ > UINT32_MAX - kSlotsPerChunk) throw std::length_error{"EventQueue: slots"};
    chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
    // Releasing a slot must not allocate: it runs after a callback, from a
    // destructor (run_next).
    const std::size_t slots = chunks_.size() * kSlotsPerChunk;
    if (free_slots_.capacity() < slots) {
      free_slots_.reserve(std::max(slots, 2 * free_slots_.capacity()));
    }
  }
  return slots_made_++;
}

EventId EventQueue::push(Time at, Callback cb) {
  const std::uint32_t s = acquire_slot();
  const std::uint64_t seq = next_seq_++;
  Slot& slot = slot_at(s);
  slot.seq = seq;
  slot.cb = std::move(cb);
  sift_up(Key{at, seq, s});
  ++live_;
  return EventId{seq, s};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_made_) return false;
  Slot& slot = slot_at(id.slot);
  if (slot.seq != id.seq) return false;
  slot.seq = 0;
  slot.cb = Callback{};
  --live_;
  return true;
}

void EventQueue::sift_up(Key key) {
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventQueue::pop_root() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

void EventQueue::drop_dead_head() {
  while (!heap_.empty() && slot_at(heap_.front().slot).seq != heap_.front().seq) {
    free_slots_.push_back(heap_.front().slot);
    pop_root();
  }
}

Time EventQueue::next_time() {
  drop_dead_head();
  if (heap_.empty()) throw std::logic_error{"EventQueue::next_time on empty queue"};
  return heap_.front().at;
}

EventQueue::Key EventQueue::take_head() {
  drop_dead_head();
  if (heap_.empty()) throw std::logic_error{"EventQueue::pop on empty queue"};
  const Key head = heap_.front();
  pop_root();
  slot_at(head.slot).seq = 0;
  --live_;
  return head;
}

EventQueue::Popped EventQueue::pop() {
  const Key head = take_head();
  Popped out{head.at, EventId{head.seq, head.slot}, std::move(slot_at(head.slot).cb)};
  free_slots_.push_back(head.slot);
  return out;
}

void EventQueue::run_next(Time& now) {
  const Key head = take_head();
  now = head.at;
  // The slot stays off the free list until the callback returns (or
  // throws), so events it schedules never land in the slot it runs from.
  struct Release {
    EventQueue& q;
    std::uint32_t slot;
    ~Release() {
      q.slot_at(slot).cb = Callback{};
      q.free_slots_.push_back(slot);
    }
  } release{*this, head.slot};
  slot_at(head.slot).cb();
}

}  // namespace xdrs::sim

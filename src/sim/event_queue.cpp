#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace xdrs::sim {
namespace {

template <class Key>
bool before(const Key& a, const Key& b) noexcept {
  return a.at < b.at || (a.at == b.at && a.tag < b.tag);
}

// Set once the thread's pool is destroyed: a queue destroyed later on this
// thread (by a thread_local or static destroyed after it) frees its slabs.
thread_local bool t_pool_gone = false;

}  // namespace

struct EventQueue::BlockPool {
  std::vector<std::unique_ptr<Block[]>> slabs;  // every block of them free
  ~BlockPool() { t_pool_gone = true; }
};

EventQueue::BlockPool* EventQueue::block_pool() noexcept {
  if (t_pool_gone) return nullptr;
  thread_local BlockPool pool;
  return &pool;
}

EventQueue::EventQueue() {
  BlockPool* pool = block_pool();
  if (pool == nullptr) return;
  slabs_ = std::move(pool->slabs);
  pool->slabs.clear();
  for (const auto& slab : slabs_) {
    for (std::size_t i = 0; i < kSlabBlocks; ++i) release_block(&slab[i]);
  }
}

EventQueue::~EventQueue() {
  BlockPool* pool = block_pool();
  if (pool == nullptr) return;
  if (pool->slabs.empty()) {
    pool->slabs = std::move(slabs_);
    return;
  }
  for (auto& slab : slabs_) {
    try {
      pool->slabs.push_back(std::move(slab));
    } catch (const std::bad_alloc&) {
      return;  // the rest are simply freed
    }
  }
}

EventQueue::Block* EventQueue::acquire_block() {
  if (spare_ == nullptr) {
    slabs_.push_back(std::make_unique<Block[]>(kSlabBlocks));
    for (std::size_t i = 0; i < kSlabBlocks; ++i) release_block(&slabs_.back()[i]);
  }
  Block* b = std::exchange(spare_, spare_->next);
  b->next = nullptr;
  b->size = 0;
  return b;
}

void EventQueue::release_block(Block* b) noexcept {
  b->next = spare_;
  spare_ = b;
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  if (slots_made_ % kSlotsPerChunk == 0) {
    if (slots_made_ + kSlotsPerChunk > kMaxSlots) throw std::length_error{"EventQueue: slots"};
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

std::size_t EventQueue::bucket_of(const Key& k) const noexcept {
  const auto time_bits = static_cast<std::uint64_t>(k.at.ps() ^ last_.at.ps());
  if (time_bits != 0) return 127 - static_cast<std::size_t>(std::countl_zero(time_bits));
  return 63 - static_cast<std::size_t>(std::countl_zero(k.tag ^ last_.tag));
}

void EventQueue::file(const Key& k) {
  const std::size_t b = bucket_of(k);
  Bucket& bucket = buckets_[b];
  if (bucket.last == nullptr) {
    bucket.first = bucket.last = acquire_block();
    filled_[b / 64] |= std::uint64_t{1} << (b % 64);
  } else if (bucket.last->size == kBlockKeys) {
    bucket.last = bucket.last->next = acquire_block();
  }
  Key* at = &bucket.last->keys[bucket.last->size++];
  *at = k;
  if (bucket.min == nullptr || before(k, *bucket.min)) bucket.min = at;
}

EventId EventQueue::push(Time at, Callback cb) {
  if (at.is_negative()) {
    throw std::invalid_argument{"EventQueue::push: negative time " + std::to_string(at.ps()) +
                                " ps"};
  }
  if (at < last_.at) {
    throw std::invalid_argument{"EventQueue::push: time " + std::to_string(at.ps()) +
                                " ps is before the last fired event at " +
                                std::to_string(last_.at.ps()) + " ps"};
  }
  if (next_seq_ == kMaxSeq) throw std::length_error{"EventQueue: sequence numbers"};
  const std::uint32_t s = acquire_slot();
  const std::uint64_t seq = next_seq_++;
  Slot& slot = slot_at(s);
  slot.seq = seq;
  slot.cb = std::move(cb);
  file(Key{at, seq << kSlotBits | s});
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

void EventQueue::compact(std::size_t b) noexcept {
  Bucket& bucket = buckets_[b];
  Block* out = bucket.first;
  std::uint32_t n = 0;
  bucket.min = nullptr;
  for (Block* blk = bucket.first; blk != nullptr; blk = blk->next) {
    for (std::uint32_t i = 0; i < blk->size; ++i) {
      const Key k = blk->keys[i];
      if (!live(k)) {
        free_slots_.push_back(k.slot());
        continue;
      }
      if (n == kBlockKeys) {
        out->size = n;
        out = out->next;
        n = 0;
      }
      out->keys[n] = k;
      if (bucket.min == nullptr || before(k, *bucket.min)) bucket.min = &out->keys[n];
      ++n;
    }
  }
  out->size = n;
  Block* rest = std::exchange(out->next, nullptr);
  while (rest != nullptr) release_block(std::exchange(rest, rest->next));
  bucket.last = out;
  if (n == 0) {
    release_block(out);
    bucket = Bucket{};
    filled_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }
}

std::size_t EventQueue::head_bucket() {
  for (std::size_t w = 0; w < filled_.size(); ++w) {
    while (filled_[w] != 0) {
      const std::size_t b = w * 64 + static_cast<std::size_t>(std::countr_zero(filled_[w]));
      if (live(*buckets_[b].min)) return b;
      // Cancellations are rare: drop them all and look again.
      compact(b);
    }
  }
  return kBuckets;
}

EventQueue::Key EventQueue::take_head() {
  const std::size_t b = head_bucket();
  if (b == kBuckets) throw std::logic_error{"EventQueue::pop on empty queue"};
  const Bucket bucket = std::exchange(buckets_[b], Bucket{});
  filled_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  const Key head = *bucket.min;
  last_ = head;
  // Every other key of the head's bucket shares more leading bits with the
  // new last key than the bucket's number, so it moves to a lower bucket.
  for (Block* blk = bucket.first; blk != nullptr;) {
    for (const Key* k = blk->keys; k != blk->keys + blk->size; ++k) {
      if (k != bucket.min) file(*k);
    }
    release_block(std::exchange(blk, blk->next));
  }
  slot_at(head.slot()).seq = 0;
  --live_;
  return head;
}

Time EventQueue::next_time() {
  const std::size_t b = head_bucket();
  if (b == kBuckets) throw std::logic_error{"EventQueue::next_time on empty queue"};
  return buckets_[b].min->at;
}

EventQueue::Popped EventQueue::pop() {
  const Key head = take_head();
  Popped out{head.at, EventId{head.seq(), head.slot()}, std::move(slot_at(head.slot()).cb)};
  free_slots_.push_back(head.slot());
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
  } release{*this, head.slot()};
  slot_at(head.slot()).cb();
}

}  // namespace xdrs::sim

// Tests for the event queue and the discrete-event engine: ordering,
// determinism, cancellation and horizon semantics, and the slot store's
// lifetimes checked against a reference model.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace xdrs::sim {
namespace {

using namespace xdrs::sim::literals;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(3_us, [&] { order.push_back(3); });
  (void)q.push(1_us, [&] { order.push_back(1); });
  (void)q.push(2_us, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)q.push(5_us, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1_us, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{12345}));
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const EventId id = q.push(1_us, [] {});
  (void)q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1_us, [] {});
  (void)q.push(2_us, [] {});
  EXPECT_EQ(q.size(), 2u);
  (void)q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.push(1_us, [] {});
  (void)q.push(7_us, [] {});
  (void)q.cancel(a);
  EXPECT_EQ(q.next_time(), 7_us);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

// next_time() only finds the head; an event pushed after the peek that is
// later than the last fired one but earlier than the peeked head fires first.
TEST(EventQueue, PushAfterPeekEarlierThanTheHeadFiresFirst) {
  EventQueue q;
  Time now;
  std::vector<int> order;
  (void)q.push(1_us, [&] { order.push_back(1); });
  for (int t = 40; t < 80; t += 3) {
    (void)q.push(Time::microseconds(t), [&order, t] { order.push_back(t); });
  }
  q.run_next(now);
  EXPECT_EQ(q.next_time(), 40_us);
  (void)q.push(9_us, [&] { order.push_back(9); });
  (void)q.push(2_us, [&] { order.push_back(2); });
  EXPECT_EQ(q.next_time(), 2_us);
  (void)q.push(5_us, [&] { order.push_back(5); });
  EXPECT_EQ(q.next_time(), 2_us);
  while (!q.empty()) q.run_next(now);
  std::vector<int> expected{1, 2, 5, 9};
  for (int t = 40; t < 80; t += 3) expected.push_back(t);
  EXPECT_EQ(order, expected);
}

// The pattern of topo::FatTree::run: run_until stops short of a pending
// event, then an event is scheduled between the horizon and that event.
TEST(Simulator, ScheduleBetweenHorizonAndPendingEventFiresFirst) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1_us, [&] { order.push_back(1); });
  sim.schedule(10_us, [&] { order.push_back(10); });
  sim.run_until(5_us - Time::picoseconds(1));
  sim.schedule_at(5_us, [&] { order.push_back(5); });
  sim.schedule_at(7_us, [&] { order.push_back(7); });
  sim.run_until(20_us);
  EXPECT_EQ(order, (std::vector<int>{1, 5, 7, 10}));
}

TEST(EventQueue, PushBeforeTheLastFiredEventOrAtANegativeTimeThrows) {
  const auto message_of = [](EventQueue& q, Time at) {
    try {
      (void)q.push(at, [] {});
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"no throw"};
  };
  EventQueue fresh;
  EXPECT_NE(message_of(fresh, Time::picoseconds(-1)).find("negative time -1 ps"),
            std::string::npos);

  EventQueue q;
  Time now;
  (void)q.push(5_us, [] {});
  (void)q.push(8_us, [] {});
  q.run_next(now);
  EXPECT_NE(message_of(q, 5_us - Time::picoseconds(1))
                .find("4999999 ps is before the last fired event at 5000000 ps"),
            std::string::npos);
  EXPECT_NE(message_of(q, Time::picoseconds(-3)).find("negative time"), std::string::npos);
  // A refused push leaves the queue as it was; the last fired time itself
  // is still open.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.total_pushed(), 2u);
  bool fired = false;
  (void)q.push(5_us, [&] { fired = true; });
  q.run_next(now);
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.next_time(), 8_us);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<std::int64_t> stamps;
  sim.schedule(2_us, [&] { stamps.push_back(sim.now().ps()); });
  sim.schedule(1_us, [&] { stamps.push_back(sim.now().ps()); });
  sim.run();
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{(1_us).ps(), (2_us).ps()}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_us, [&] {
    ++fired;
    sim.schedule(1_us, [&] {
      ++fired;
      sim.schedule(1_us, [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 3_us);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_us, [&] { ++fired; });
  sim.schedule(10_us, [&] { ++fired; });
  sim.run_until(5_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5_us);
  sim.run_until(10_us);  // the horizon event itself still executes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.run_until(3_us);
  EXPECT_EQ(sim.now(), 3_us);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(5_us, [&] {
    sim.schedule(1_us - 3_us, [&] { EXPECT_EQ(sim.now(), 5_us); });
  });
  sim.run();
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule(5_us, [&] {
    sim.schedule_at(1_us, [&] {
      fired = true;
      EXPECT_EQ(sim.now(), 5_us);
    });
  });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_us, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2_us, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(1_us, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.stats().events_cancelled, 1u);
}

TEST(Simulator, StatsCountExecutions) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(Time::microseconds(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.stats().events_scheduled, 5u);
  EXPECT_EQ(sim.stats().events_executed, 5u);
}

TEST(Simulator, DeterministicInterleaving) {
  // Two identically-seeded runs must produce identical event interleaving.
  const auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(Time::nanoseconds(100 * (i % 7)), [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Seeded random push / cancel / peek / pop against a std::multimap keyed
// on (time, push order): the pop order, size() and next_time() must agree
// after every operation.  Times come from a small range so that many
// events tie and FIFO order among them is exercised; cancels pick any id
// ever issued, so fired, cancelled and reused-slot ids are all tried.
// Peeks (next_time) are interleaved with the pushes, which often land
// earlier than the peeked head.  Half the pops go through run_next, whose
// callbacks may themselves push and cancel while they run.
TEST(EventQueue, MatchesReferenceModelUnderRandomOps) {
  using RefKey = std::pair<std::int64_t, std::uint64_t>;
  struct Issued {
    EventId id;
    RefKey key;
  };
  EventQueue q;
  std::multimap<RefKey, std::uint64_t> ref;  // -> tag the callback records
  std::vector<Issued> issued;
  std::uint64_t last_fired = 0;
  std::uint64_t next_tag = 1;
  Time now = Time::zero();
  Rng rng{20240611};

  std::function<void(std::int64_t)> push_random;
  const auto cancel_random = [&] {
    if (issued.empty()) return true;
    const Issued& victim = issued[rng.next_below(issued.size())];
    const auto it = ref.find(victim.key);
    const bool pending = it != ref.end();
    if (pending) ref.erase(it);
    return q.cancel(victim.id) == pending;
  };
  bool nested_ok = true;
  push_random = [&](std::int64_t earliest) {
    const std::int64_t at = earliest + rng.uniform_int(0, 500);
    const std::uint64_t tag = next_tag++;
    const bool nested = rng.bernoulli(0.3);
    const EventId id = q.push(Time::picoseconds(at), [&, tag, nested] {
      last_fired = tag;
      if (!nested) return;
      push_random(now.ps());
      if (rng.bernoulli(0.3)) nested_ok = cancel_random() && nested_ok;
    });
    ref.emplace(RefKey{at, tag}, tag);
    issued.push_back(Issued{id, RefKey{at, tag}});
  };

  const auto pop_and_check = [&](int op) {
    ASSERT_EQ(q.next_time(), Time::picoseconds(ref.begin()->first.first)) << "op " << op;
    const auto expected = *ref.begin();
    ref.erase(ref.begin());
    if (rng.bernoulli(0.5)) {
      q.run_next(now);
    } else {
      auto popped = q.pop();
      now = popped.at;
      popped.cb();
    }
    ASSERT_EQ(last_fired, expected.second) << "op " << op;
    ASSERT_EQ(now, Time::picoseconds(expected.first.first)) << "op " << op;
    ASSERT_TRUE(nested_ok) << "op " << op;
  };

  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 45) {
      push_random(now.ps());
    } else if (dice < 55) {
      ASSERT_EQ(q.empty(), ref.empty()) << "op " << op;
      if (!ref.empty()) {
        ASSERT_EQ(q.next_time(), Time::picoseconds(ref.begin()->first.first)) << "op " << op;
      }
    } else if (dice < 70) {
      ASSERT_TRUE(cancel_random()) << "op " << op;
    } else {
      ASSERT_EQ(q.empty(), ref.empty()) << "op " << op;
      if (ref.empty()) continue;
      pop_and_check(op);
    }
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
  }
  for (int op = 0; !ref.empty(); ++op) {
    pop_and_check(op);
    ASSERT_EQ(q.size(), ref.size());
  }
  EXPECT_TRUE(q.empty());
}

// A running callback sees the rest of the queue, not its own fired event,
// and may pop from and push to it.
TEST(EventQueue, RunningCallbackSeesTheRestOfTheQueue) {
  EventQueue q;
  Time now;
  std::vector<int> order;
  (void)q.push(1_us, [&] {
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.next_time(), 2_us);
    q.pop().cb();
    (void)q.push(5_us, [&] { order.push_back(5); });
    order.push_back(1);
  });
  (void)q.push(2_us, [&] { order.push_back(2); });
  (void)q.push(3_us, [&] { order.push_back(3); });
  while (!q.empty()) q.run_next(now);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3, 5}));
  EXPECT_EQ(now, 5_us);
  // Every slot went back to the free list exactly once.
  order.clear();
  for (int t = 6; t <= 9; ++t) {
    (void)q.push(Time::microseconds(t), [&order, t] { order.push_back(t); });
  }
  while (!q.empty()) q.run_next(now);
  EXPECT_EQ(order, (std::vector<int>{6, 7, 8, 9}));
}

TEST(EventQueue, StaleIdOfReusedSlotCancelsNothing) {
  EventQueue q;
  const EventId fired_id = q.push(1_us, [] {});
  (void)q.pop();
  const EventId cancelled_id = q.push(2_us, [] {});
  EXPECT_EQ(cancelled_id.slot, fired_id.slot);  // the fired event's slot came back
  EXPECT_TRUE(q.cancel(cancelled_id));
  int fired = 0;
  (void)q.push(3_us, [&] { ++fired; });  // surfaces the cancelled key, freeing its slot
  q.pop().cb();
  const EventId a = q.push(4_us, [&] { ++fired; });
  const EventId b = q.push(5_us, [&] { ++fired; });
  EXPECT_TRUE(a.slot == cancelled_id.slot || b.slot == cancelled_id.slot);
  EXPECT_FALSE(q.cancel(fired_id));
  EXPECT_FALSE(q.cancel(cancelled_id));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 3);
}

// A running callback grows the slot store by dozens of chunks and cancels
// its own (already fired) id; its captures must stay intact throughout,
// and the events it scheduled run in (time, push order).
TEST(Simulator, CallbackSchedulesManyEventsAndCancelsItself) {
  Simulator sim;
  std::array<std::uint64_t, 16> payload{};
  std::iota(payload.begin(), payload.end(), 1);
  std::vector<int> order;
  EventId self;
  bool self_cancel_result = true;
  std::uint64_t payload_sum = 0;
  self = sim.schedule(1_us, [&sim, &order, &self, &self_cancel_result, &payload_sum, payload] {
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule(Time::nanoseconds(i % 7), [&order, i] { order.push_back(i); });
    }
    self_cancel_result = sim.cancel(self);
    payload_sum = std::accumulate(payload.begin(), payload.end(), std::uint64_t{0});
  });
  sim.run();
  EXPECT_FALSE(self_cancel_result);
  EXPECT_EQ(payload_sum, 136u);
  EXPECT_EQ(sim.stats().events_cancelled, 0u);
  ASSERT_EQ(order.size(), 10'000u);
  std::vector<int> expected;
  for (int r = 0; r < 7; ++r) {
    for (int i = r; i < 10'000; i += 7) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, CapturesAreReleasedWhenFiredOrCancelled) {
  auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 12> padding{};  // forces the block-held path
  Simulator sim;
  const EventId small = sim.schedule(2_us, [token] { ++*token; });
  const EventId large =
      sim.schedule(3_us, [token, padding] { *token += 1 + static_cast<int>(padding[0]); });
  sim.schedule(1_us, [token] { ++*token; });
  sim.schedule(4_us, [token, padding] { *token += 1 + static_cast<int>(padding[0]); });
  EXPECT_EQ(token.use_count(), 5);
  EXPECT_TRUE(sim.cancel(small));
  EXPECT_TRUE(sim.cancel(large));
  EXPECT_EQ(token.use_count(), 3);
  sim.run_until(1_us);
  EXPECT_EQ(token.use_count(), 2);
  sim.run();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 2);
}

TEST(EventQueue, OversizedAndMoveOnlyCaptures) {
  static_assert(!std::is_copy_constructible_v<EventQueue::Callback>);
  EventQueue q;
  std::array<std::uint64_t, 14> mid{};    // 112 B: a recycled block
  std::array<std::uint64_t, 48> huge{};   // 384 B: beyond the largest block class
  std::iota(mid.begin(), mid.end(), 1);
  std::iota(huge.begin(), huge.end(), 1);
  std::uint64_t sum = 0;
  (void)q.push(1_us, [mid, &sum] {
    sum += std::accumulate(mid.begin(), mid.end(), std::uint64_t{0});
  });
  (void)q.push(2_us, [huge, &sum] {
    sum += std::accumulate(huge.begin(), huge.end(), std::uint64_t{0});
  });
  (void)q.push(3_us, [owned = std::make_unique<std::uint64_t>(1000), &sum] { sum += *owned; });
  // Popped callables move back into the queue unchanged.
  for (int i = 0; i < 3; ++i) {
    auto popped = q.pop();
    EventQueue::Callback moved = std::move(popped.cb);
    EXPECT_FALSE(popped.cb);
    (void)q.push(popped.at + 10_us, std::move(moved));
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(sum, 105u + 1176u + 1000u);
}

}  // namespace
}  // namespace xdrs::sim

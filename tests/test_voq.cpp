// Tests for the VOQ bank: exact accounting, admission limits, status
// callbacks and peak tracking (the Figure 1 measurement), and the node pool
// checked against per-VOQ std::deque references.
#include <gtest/gtest.h>

#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "queueing/voq.hpp"
#include "sim/random.hpp"

namespace xdrs::queueing {
namespace {

net::Packet pkt(net::PortId src, net::PortId dst, std::int64_t bytes, std::uint64_t id = 0) {
  net::Packet p;
  p.id = id;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  return p;
}

TEST(VoqBank, ConstructionValidation) {
  EXPECT_THROW(VoqBank(0, 4), std::invalid_argument);
  EXPECT_THROW(VoqBank(4, 0), std::invalid_argument);
}

TEST(VoqBank, EnqueueDequeueFifo) {
  VoqBank b{2, 2};
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 100, 1)));
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 200, 2)));
  auto first = b.dequeue(0, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1u);
  auto second = b.dequeue(0, 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2u);
  EXPECT_FALSE(b.dequeue(0, 1).has_value());
}

TEST(VoqBank, ByteAndPacketAccounting) {
  VoqBank b{2, 3};
  (void)b.enqueue(0, pkt(0, 1, 100));
  (void)b.enqueue(0, pkt(0, 2, 50));
  (void)b.enqueue(1, pkt(1, 0, 25));
  EXPECT_EQ(b.bytes(0, 1), 100);
  EXPECT_EQ(b.bytes(0, 2), 50);
  EXPECT_EQ(b.input_bytes(0), 150);
  EXPECT_EQ(b.input_bytes(1), 25);
  EXPECT_EQ(b.total_bytes(), 175);
  EXPECT_EQ(b.total_packets(), 3);
  (void)b.dequeue(0, 1);
  EXPECT_EQ(b.total_bytes(), 75);
  EXPECT_EQ(b.input_bytes(0), 50);
}

TEST(VoqBank, PeekDoesNotRemove) {
  VoqBank b{1, 2};
  (void)b.enqueue(0, pkt(0, 1, 100, 42));
  const net::Packet* head = b.peek(0, 1);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->id, 42u);
  EXPECT_EQ(b.packets(0, 1), 1u);
  EXPECT_EQ(b.peek(0, 0), nullptr);
}

TEST(VoqBank, PerVoqByteLimitDrops) {
  VoqLimits lim;
  lim.max_bytes_per_voq = 250;
  VoqBank b{1, 2, lim};
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 200)));
  EXPECT_FALSE(b.enqueue(0, pkt(0, 1, 100)));  // would exceed 250
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 50)));
  EXPECT_EQ(b.stats().dropped_packets, 1u);
  EXPECT_EQ(b.stats().dropped_bytes, 100);
}

TEST(VoqBank, PerVoqPacketLimitDrops) {
  VoqLimits lim;
  lim.max_packets_per_voq = 2;
  VoqBank b{1, 2, lim};
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 10)));
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 10)));
  EXPECT_FALSE(b.enqueue(0, pkt(0, 1, 10)));
  // A different VOQ of the same input is unaffected.
  EXPECT_TRUE(b.enqueue(0, pkt(0, 0, 10)));
}

TEST(VoqBank, SharedBufferLimitDrops) {
  VoqLimits lim;
  lim.shared_buffer_bytes = 300;
  VoqBank b{2, 2, lim};
  EXPECT_TRUE(b.enqueue(0, pkt(0, 1, 200)));
  EXPECT_TRUE(b.enqueue(1, pkt(1, 0, 100)));
  EXPECT_FALSE(b.enqueue(0, pkt(0, 0, 1)));  // bank full
  (void)b.dequeue(1, 0);
  EXPECT_TRUE(b.enqueue(0, pkt(0, 0, 1)));
}

TEST(VoqBank, StatusCallbackOnTransitions) {
  VoqBank b{2, 2};
  std::vector<std::tuple<net::PortId, net::PortId, VoqStatus>> events;
  b.set_status_callback([&](net::PortId i, net::PortId j, VoqStatus s) {
    events.emplace_back(i, j, s);
  });
  (void)b.enqueue(0, pkt(0, 1, 10));  // empty -> non-empty
  (void)b.enqueue(0, pkt(0, 1, 10));  // no transition
  (void)b.dequeue(0, 1);              // no transition
  (void)b.dequeue(0, 1);              // non-empty -> empty
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(std::get<2>(events[0]), VoqStatus::kBecameNonEmpty);
  EXPECT_EQ(std::get<2>(events[1]), VoqStatus::kBecameEmpty);
}

TEST(VoqBank, DroppedPacketDoesNotFireCallback) {
  VoqLimits lim;
  lim.max_packets_per_voq = 1;
  VoqBank b{1, 2, lim};
  int calls = 0;
  b.set_status_callback([&](net::PortId, net::PortId, VoqStatus) { ++calls; });
  (void)b.enqueue(0, pkt(0, 1, 10));
  (void)b.enqueue(0, pkt(0, 1, 10));  // dropped
  EXPECT_EQ(calls, 1);
}

TEST(VoqBank, PeakTracking) {
  VoqBank b{2, 2};
  (void)b.enqueue(0, pkt(0, 1, 100));
  (void)b.enqueue(1, pkt(1, 0, 300));
  (void)b.dequeue(1, 0);
  EXPECT_EQ(b.stats().peak_total_bytes, 400);
  EXPECT_EQ(b.peak_input_bytes(0), 100);
  EXPECT_EQ(b.peak_input_bytes(1), 300);
  EXPECT_EQ(b.total_bytes(), 100);
}

TEST(VoqBank, ResetPeaksToCurrentOccupancy) {
  VoqBank b{1, 2};
  (void)b.enqueue(0, pkt(0, 1, 500));
  (void)b.dequeue(0, 1);
  (void)b.enqueue(0, pkt(0, 1, 50));
  b.reset_peaks();
  EXPECT_EQ(b.stats().peak_total_bytes, 50);
  EXPECT_EQ(b.peak_input_bytes(0), 50);
}

TEST(VoqBank, MaxVoqBytes) {
  VoqBank b{2, 2};
  (void)b.enqueue(0, pkt(0, 1, 100));
  (void)b.enqueue(1, pkt(1, 0, 250));
  EXPECT_EQ(b.max_voq_bytes(), 250);
}

TEST(VoqBank, OutOfRangeThrows) {
  VoqBank b{2, 2};
  EXPECT_THROW((void)b.enqueue(2, pkt(2, 0, 10)), std::out_of_range);
  EXPECT_THROW((void)b.enqueue(0, pkt(0, 2, 10)), std::out_of_range);
  EXPECT_THROW((void)b.dequeue(0, 5), std::out_of_range);
  EXPECT_THROW((void)b.bytes(5, 0), std::out_of_range);
  EXPECT_THROW((void)b.input_bytes(9), std::out_of_range);
}

TEST(VoqBank, EnqueueDequeueCounters) {
  VoqBank b{1, 2};
  (void)b.enqueue(0, pkt(0, 1, 10));
  (void)b.enqueue(0, pkt(0, 1, 10));
  (void)b.dequeue(0, 1);
  EXPECT_EQ(b.stats().enqueued_packets, 2u);
  EXPECT_EQ(b.stats().dequeued_packets, 1u);
}

TEST(VoqBank, EnqueueStampsNothingButStoresPacketVerbatim) {
  VoqBank b{1, 2};
  net::Packet p = pkt(0, 1, 64, 7);
  p.flow = 1234;
  (void)b.enqueue(0, p);
  const auto out = b.dequeue(0, 1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->flow, 1234u);
  EXPECT_EQ(out->id, 7u);
  EXPECT_EQ(out->size_bytes, 64);
}

// Property sweep: random enqueue/dequeue interleavings conserve bytes.
class VoqConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VoqConservation, BytesConservedUnderRandomOps) {
  sim::Rng rng{GetParam()};
  VoqBank b{4, 4};
  std::int64_t in = 0, out = 0;
  for (int op = 0; op < 5000; ++op) {
    const auto i = static_cast<net::PortId>(rng.next_below(4));
    const auto j = static_cast<net::PortId>(rng.next_below(4));
    if (rng.bernoulli(0.6)) {
      const std::int64_t sz = rng.uniform_int(64, 1500);
      if (b.enqueue(i, pkt(i, j, sz))) in += sz;
    } else if (const auto p = b.dequeue(i, j)) {
      out += p->size_bytes;
    }
  }
  EXPECT_EQ(b.total_bytes(), in - out);
  std::int64_t residual = 0;
  for (net::PortId i = 0; i < 4; ++i) {
    for (net::PortId j = 0; j < 4; ++j) residual += b.bytes(i, j);
  }
  EXPECT_EQ(residual, in - out);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoqConservation, ::testing::Values(1, 2, 3, 4, 5));

// The pooled bank against one std::deque per VOQ on a 128x128 bank: random
// interleaved enqueue/dequeue over all 16,384 VOQs, with phases that drain
// the whole bank and refill it (so recycled nodes carry new packets), under
// each admission limit.  Every dequeue, peek, count and byte total must
// match the reference.
struct PoolCase {
  const char* name;
  VoqLimits limits;
  friend void PrintTo(const PoolCase& c, std::ostream* os) { *os << c.name; }
};

class VoqPool : public ::testing::TestWithParam<PoolCase> {};

TEST_P(VoqPool, MatchesPerVoqDequeReference) {
  constexpr net::PortId kPorts = 128;
  const VoqLimits lim = GetParam().limits;
  VoqBank b{kPorts, kPorts, lim};
  std::vector<std::deque<net::Packet>> ref(static_cast<std::size_t>(kPorts) * kPorts);
  std::vector<std::int64_t> ref_bytes(ref.size(), 0);
  std::int64_t ref_total = 0;
  std::uint64_t drops = 0;
  std::uint64_t next_id = 1;
  sim::Rng rng{4242};

  const auto check_voq = [&](net::PortId i, net::PortId j) {
    const std::size_t k = static_cast<std::size_t>(i) * kPorts + j;
    ASSERT_EQ(b.packets(i, j), ref[k].size());
    ASSERT_EQ(b.bytes(i, j), ref_bytes[k]);
    ASSERT_EQ(b.empty(i, j), ref[k].empty());
    const net::Packet* head = b.peek(i, j);
    if (ref[k].empty()) {
      ASSERT_EQ(head, nullptr);
    } else {
      ASSERT_NE(head, nullptr);
      ASSERT_EQ(head->id, ref[k].front().id);
      ASSERT_EQ(head->size_bytes, ref[k].front().size_bytes);
    }
  };
  const auto enqueue = [&](net::PortId i, net::PortId j) {
    const std::size_t k = static_cast<std::size_t>(i) * kPorts + j;
    const net::Packet p = pkt(i, j, rng.uniform_int(64, 1500), next_id++);
    const bool admit =
        (lim.max_bytes_per_voq == 0 || ref_bytes[k] + p.size_bytes <= lim.max_bytes_per_voq) &&
        (lim.max_packets_per_voq == 0 ||
         static_cast<std::int64_t>(ref[k].size()) < lim.max_packets_per_voq) &&
        (lim.shared_buffer_bytes == 0 || ref_total + p.size_bytes <= lim.shared_buffer_bytes);
    ASSERT_EQ(b.enqueue(i, p), admit);
    if (admit) {
      ref[k].push_back(p);
      ref_bytes[k] += p.size_bytes;
      ref_total += p.size_bytes;
    } else {
      ++drops;
    }
  };
  const auto dequeue = [&](net::PortId i, net::PortId j) {
    const std::size_t k = static_cast<std::size_t>(i) * kPorts + j;
    const auto got = b.dequeue(i, j);
    ASSERT_EQ(got.has_value(), !ref[k].empty());
    if (!got) return;
    ASSERT_EQ(got->id, ref[k].front().id);
    ASSERT_EQ(got->size_bytes, ref[k].front().size_bytes);
    ASSERT_EQ(got->src, i);
    ASSERT_EQ(got->dst, j);
    ref_bytes[k] -= got->size_bytes;
    ref_total -= got->size_bytes;
    ref[k].pop_front();
  };

  for (int cycle = 0; cycle < 3; ++cycle) {
    // Fill-biased random traffic, then a dequeue-biased stretch.
    for (const double p_enqueue : {0.7, 0.35}) {
      for (int op = 0; op < 60'000; ++op) {
        const auto i = static_cast<net::PortId>(rng.next_below(kPorts));
        const auto j = static_cast<net::PortId>(rng.next_below(kPorts));
        if (rng.bernoulli(p_enqueue)) {
          enqueue(i, j);
        } else {
          dequeue(i, j);
        }
        check_voq(i, j);
        if (HasFatalFailure()) return;
      }
      ASSERT_EQ(b.total_bytes(), ref_total);
    }
    // Drain every VOQ to empty: all nodes go back to the free list.
    for (net::PortId i = 0; i < kPorts; ++i) {
      for (net::PortId j = 0; j < kPorts; ++j) {
        while (!b.empty(i, j)) dequeue(i, j);
        check_voq(i, j);
        if (HasFatalFailure()) return;
      }
    }
    ASSERT_EQ(b.total_bytes(), 0);
    ASSERT_EQ(b.total_packets(), 0);
  }
  EXPECT_EQ(b.stats().dropped_packets, drops);
  if (lim.max_bytes_per_voq != 0 || lim.max_packets_per_voq != 0 ||
      lim.shared_buffer_bytes != 0) {
    EXPECT_GT(drops, 0u) << "the limit was never reached";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Limits, VoqPool,
    ::testing::Values(PoolCase{"Unlimited", {}},
                      PoolCase{"VoqBytes", {.max_bytes_per_voq = 3000}},
                      PoolCase{"VoqPackets", {.max_packets_per_voq = 3}},
                      PoolCase{"SharedBuffer", {.shared_buffer_bytes = 20'000'000}}),
    [](const ::testing::TestParamInfo<PoolCase>& info) { return std::string{info.param.name}; });

}  // namespace
}  // namespace xdrs::queueing

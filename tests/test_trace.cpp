// Tests for the trace recorder used by the transient/pipeline experiments.
#include <gtest/gtest.h>

#include "sim/trace.hpp"

namespace xdrs::sim {
namespace {

using namespace xdrs::sim::literals;

TEST(TraceRecorder, DisabledByDefault) {
  TraceRecorder t;
  EXPECT_FALSE(t.enabled());
  t.record(1_us, TraceCategory::kGrant, 1, 2);
  EXPECT_TRUE(t.events().empty());
}

TEST(TraceRecorder, RecordsWhenEnabled) {
  TraceRecorder t;
  t.enable();
  t.record(1_us, TraceCategory::kEnqueue, 3, 4);
  t.record(2_us, TraceCategory::kDequeue, 3, 4);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].category, TraceCategory::kEnqueue);
  EXPECT_EQ(t.events()[0].a, 3u);
  EXPECT_EQ(t.events()[1].at, 2_us);
}

TEST(TraceRecorder, FilterByCategory) {
  TraceRecorder t;
  t.enable();
  t.record(1_us, TraceCategory::kGrant, 0, 1);
  t.record(2_us, TraceCategory::kDrop, 0, 2);
  t.record(3_us, TraceCategory::kGrant, 0, 3);
  const auto grants = t.filter(TraceCategory::kGrant);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].b, 1u);
  EXPECT_EQ(grants[1].b, 3u);
  EXPECT_EQ(t.count(TraceCategory::kDrop), 1u);
  EXPECT_EQ(t.count(TraceCategory::kDeliver), 0u);
}

TEST(TraceRecorder, ClearEmpties) {
  TraceRecorder t;
  t.enable();
  t.record(1_us, TraceCategory::kGrant);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(TraceRecorder, DisableStopsRecording) {
  TraceRecorder t;
  t.enable();
  t.record(1_us, TraceCategory::kGrant);
  t.disable();
  t.record(2_us, TraceCategory::kGrant);
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(TraceRecorder, UnboundedByDefault) {
  TraceRecorder t;
  t.enable();
  for (int i = 0; i < 1000; ++i) t.record(Time::microseconds(i), TraceCategory::kGrant);
  EXPECT_EQ(t.events().size(), 1000u);
  EXPECT_EQ(t.offered(), 1000u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceRecorder, DropOldestKeepsTheNewestEvents) {
  TraceRecorder t;
  t.set_capacity(8);
  t.enable();
  for (int i = 0; i < 20; ++i) t.record(Time::microseconds(i), TraceCategory::kGrant, i);
  EXPECT_LE(t.events().size(), 8u);
  EXPECT_EQ(t.offered(), 20u);
  EXPECT_EQ(t.dropped(), 20u - t.events().size());
  // Tail is contiguous and ends at the last offered event.
  EXPECT_EQ(t.events().back().a, 19u);
  for (std::size_t k = 1; k < t.events().size(); ++k) {
    EXPECT_EQ(t.events()[k].a, t.events()[k - 1].a + 1);
  }
}

TEST(TraceRecorder, CapacityClampedToTwo) {
  TraceRecorder t;
  t.set_capacity(1);
  EXPECT_EQ(t.capacity(), 2u);
  t.set_capacity(0);  // back to unbounded
  EXPECT_EQ(t.capacity(), 0u);
}

TEST(TraceRecorder, ClearResetsBoundingCounters) {
  TraceRecorder t;
  t.set_capacity(2);
  t.enable();
  for (int i = 0; i < 10; ++i) t.record(Time::microseconds(i), TraceCategory::kGrant);
  t.clear();
  EXPECT_EQ(t.offered(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.events().empty());
}

TEST(TraceCategoryNames, AllDistinctAndNonNull) {
  const TraceCategory cats[] = {
      TraceCategory::kPacketArrival, TraceCategory::kEnqueue,       TraceCategory::kRequest,
      TraceCategory::kDemandUpdate,  TraceCategory::kScheduleStart, TraceCategory::kScheduleDone,
      TraceCategory::kReconfigStart, TraceCategory::kReconfigDone,  TraceCategory::kGrant,
      TraceCategory::kDequeue,       TraceCategory::kDeliver,       TraceCategory::kDrop,
  };
  for (std::size_t i = 0; i < std::size(cats); ++i) {
    ASSERT_NE(to_string(cats[i]), nullptr);
    for (std::size_t j = i + 1; j < std::size(cats); ++j) {
      EXPECT_STRNE(to_string(cats[i]), to_string(cats[j]));
    }
  }
}

}  // namespace
}  // namespace xdrs::sim

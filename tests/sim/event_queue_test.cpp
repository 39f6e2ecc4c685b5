#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace minova::sim {
namespace {

TEST(EventQueue, FiresInDeadlineOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.run_due(100), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(10, [&] { order.push_back(2); });
  q.run_due(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, DoesNotFireFutureEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(100, [&] { ++fired; });
  EXPECT_EQ(q.run_due(99), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.run_due(100), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const auto id = q.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel reports failure
  EXPECT_EQ(q.run_due(100), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] {
    ++fired;
    q.schedule_at(20, [&] { ++fired; });    // due within same run
    q.schedule_at(1000, [&] { ++fired; });  // future
  });
  EXPECT_EQ(q.run_due(100), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextDeadlineSkipsCancelled) {
  EventQueue q;
  const auto a = q.schedule_at(5, [] {});
  q.schedule_at(9, [] {});
  cycles_t d = 0;
  ASSERT_TRUE(q.next_deadline(d));
  EXPECT_EQ(d, 5u);
  q.cancel(a);
  ASSERT_TRUE(q.next_deadline(d));
  EXPECT_EQ(d, 9u);
}

TEST(EventQueue, EmptyQueueHasNoDeadline) {
  EventQueue q;
  cycles_t d = 0;
  EXPECT_FALSE(q.next_deadline(d));
}

TEST(EventQueue, FiredIdCannotCancelEventReusingItsSlot) {
  EventQueue q;
  int fired = 0;
  const auto old_id = q.schedule_at(10, [&] { ++fired; });
  EXPECT_EQ(q.run_due(10), 1u);
  const auto new_id = q.schedule_at(20, [&] { fired += 10; });
  EXPECT_EQ(u32(new_id), u32(old_id));  // same slot, new generation
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_due(20), 1u);
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, CancelReuseCancelAgainReturnsFalse) {
  EventQueue q;
  int fired = 0;
  const auto a = q.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(a));
  const auto b = q.schedule_at(10, [&] { fired += 10; });
  EXPECT_EQ(u32(b), u32(a));
  EXPECT_FALSE(q.cancel(a));  // stale: must not cancel b
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(b));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.run_due(100), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, NextDeadlineAfterRepeatedHeadCancels) {
  EventQueue q;
  std::vector<EventQueue::EventId> ids;
  for (cycles_t t = 10; t <= 50; t += 10)
    ids.push_back(q.schedule_at(t, [] {}));
  cycles_t d = 0;
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    ASSERT_TRUE(q.next_deadline(d));
    EXPECT_EQ(d, cycles_t(10 * (i + 1)));
    EXPECT_TRUE(q.cancel(ids[i]));
    ASSERT_TRUE(q.next_deadline(d));
    EXPECT_EQ(d, cycles_t(10 * (i + 2)));
  }
  // An earlier event lands in a recycled slot and becomes the new head.
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(5); });
  ASSERT_TRUE(q.next_deadline(d));
  EXPECT_EQ(d, 5u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.run_due(100), 2u);
  EXPECT_EQ(order, (std::vector<int>{5}));
  EXPECT_FALSE(q.next_deadline(d));
}

TEST(EventQueue, SizeStaysConsistentThroughLongChurn) {
  struct Pending {
    EventQueue::EventId id;
    cycles_t when;
  };
  EventQueue q;
  util::Xoshiro256 rng(7);
  std::vector<Pending> live;
  std::size_t fired = 0;
  cycles_t now = 0;
  for (u32 i = 0; i < 1'000'000; ++i) {
    if (live.size() < 4 && rng.next_below(2) == 0) {
      const cycles_t when = now + 1 + rng.next_below(8);
      live.push_back({q.schedule_at(when, [&fired] { ++fired; }), when});
    } else if (!live.empty() && rng.next_below(4) == 0) {
      const std::size_t k = rng.next_below(live.size());
      ASSERT_TRUE(q.cancel(live[k].id));
      ASSERT_FALSE(q.cancel(live[k].id));
      live.erase(live.begin() + std::ptrdiff_t(k));
    } else {
      cycles_t d = 0;
      ASSERT_EQ(q.next_deadline(d), !live.empty());
      if (!live.empty()) now = d;
      const std::size_t before = fired;
      const std::size_t n = q.run_due(now);
      ASSERT_EQ(fired - before, n);
      ASSERT_EQ(std::erase_if(live, [&](const Pending& p) {
                  return p.when <= now;
                }),
                n);
    }
    ASSERT_EQ(q.size(), live.size()) << "iteration " << i;
    ASSERT_EQ(q.empty(), live.empty()) << "iteration " << i;
  }
  EXPECT_GT(fired, 100'000u);
}

}  // namespace
}  // namespace minova::sim

// Unit tests for the discrete-event scheduler.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace icc::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 10.0);
}

TEST(Scheduler, TiesRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sched.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1.0, [&] { ++fired; });
  sched.schedule_at(5.0, [&] { ++fired; });
  sched.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 2.0);
  sched.run_until(5.0);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const auto id = sched.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sched.pending(id));
  sched.cancel(id);
  EXPECT_FALSE(sched.pending(id));
  sched.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelUnknownIdIsNoOp) {
  Scheduler sched;
  sched.cancel(12345);  // must not crash or affect state
  sched.schedule_at(1.0, [] {});
  sched.run_all();
  EXPECT_EQ(sched.executed(), 1u);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sched.now());
    if (times.size() < 5) sched.schedule_in(1.0, chain);
  };
  sched.schedule_at(1.0, chain);
  sched.run_until(100.0);
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 5.0);
}

TEST(Scheduler, PastEventClampsToNow) {
  Scheduler sched;
  sched.schedule_at(5.0, [] {});
  sched.run_until(5.0);
  double fired_at = -1.0;
  sched.schedule_at(1.0, [&] { fired_at = sched.now(); });  // in the past
  sched.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Scheduler, ScheduleInUsesCurrentTime) {
  Scheduler sched;
  double fired_at = -1.0;
  sched.schedule_at(2.0, [&] {
    sched.schedule_in(3.0, [&] { fired_at = sched.now(); });
  });
  sched.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Scheduler, ExecutedCountsOnlyRunEvents) {
  Scheduler sched;
  const auto a = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  sched.cancel(a);
  sched.run_all();
  EXPECT_EQ(sched.executed(), 1u);
}

}  // namespace
}  // namespace icc::sim

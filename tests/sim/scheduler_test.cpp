// Unit tests for the discrete-event scheduler.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <utility>
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

TEST(Scheduler, InsertBelowAStoppedPeekRunsFirst) {
  // run_until(1.0) looks at the event pending at 2.0 and stops. Events
  // scheduled afterwards below 2.0 must still run first, equal times FIFO.
  Scheduler sched;
  std::vector<std::pair<double, int>> order;
  sched.schedule_at(2.0, [&] { order.emplace_back(sched.now(), 0); });
  sched.run_until(1.0);
  EXPECT_TRUE(order.empty());
  sched.schedule_at(1.5, [&] { order.emplace_back(sched.now(), 1); });
  sched.schedule_at(1.0, [&] { order.emplace_back(sched.now(), 2); });
  sched.schedule_at(1.0, [&] { order.emplace_back(sched.now(), 3); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<std::pair<double, int>>{{1.0, 2}, {1.0, 3}, {1.5, 1}, {2.0, 0}}));
}

/// Reference scheduler for the differential test: a std::map ordered by
/// (time, insertion sequence), with the real one's clamping and run_until
/// semantics.
class ReferenceScheduler {
 public:
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  std::uint64_t schedule_at(double t, std::function<void()> fn) {
    if (t < now_) t = now_;
    const std::uint64_t seq = next_seq_++;
    queue_.emplace(std::make_pair(t, seq), std::move(fn));
    time_of_[seq] = t;
    return seq;
  }
  void cancel(std::uint64_t seq) {
    const auto it = time_of_.find(seq);
    if (it == time_of_.end()) return;
    queue_.erase({it->second, seq});
    time_of_.erase(it);
  }
  void run_until(double end) {
    while (!queue_.empty() && queue_.begin()->first.first <= end) {
      auto node = queue_.extract(queue_.begin());
      time_of_.erase(node.key().second);
      now_ = node.key().first;
      node.mapped()();
    }
    if (now_ < end) now_ = end;
  }

 private:
  double now_{0.0};
  std::uint64_t next_seq_{0};
  std::map<std::pair<double, std::uint64_t>, std::function<void()>> queue_;
  std::map<std::uint64_t, double> time_of_;
};

TEST(Scheduler, MatchesReferenceOrderUnderRandomSchedules) {
  // 10^5 random schedule/cancel/run_until steps against the reference.
  // Times repeat exactly (a small pool, plus clamping to the clock) and
  // spread over many binades up to 1e6; some events schedule a child at or
  // just after their own time when they run.
  constexpr int kSteps = 100000;
  Scheduler sched;
  ReferenceScheduler ref;
  std::vector<int> ran;
  std::vector<int> ref_ran;
  std::vector<Scheduler::EventId> ids;  // by label
  std::vector<std::uint64_t> ref_ids;   // by label
  int next_label = 0;

  // Each side runs the same handler: record the label and, for some labels,
  // schedule a child. Children get labels in execution order, so they stay
  // aligned exactly as long as both sides execute in the same order.
  std::function<std::function<void()>(int, bool)> handler = [&](int label, bool real) {
    return [&, label, real] {
      (real ? ran : ref_ran).push_back(label);
      if (label % 5 != 0) return;
      const double delta = label % 3 == 0 ? 0.0 : std::ldexp(1.0, -(label % 40));
      if (real) {
        const int child = static_cast<int>(ran.size()) + 1000000000;
        sched.schedule_in(delta, handler(child, true));
      } else {
        const int child = static_cast<int>(ref_ran.size()) + 1000000000;
        ref.schedule_at(ref.now() + delta, handler(child, false));
      }
    };
  };

  std::mt19937_64 gen{20260427};
  // Uniform mantissa, exponent in [lo, hi]: values spread over many binades.
  const auto spread = [&gen](int lo, int hi) {
    return std::ldexp(std::uniform_real_distribution<double>{1.0, 2.0}(gen),
                      lo + static_cast<int>(gen() % static_cast<std::uint64_t>(hi - lo + 1)));
  };
  std::vector<double> pool;  // exact repeats
  for (int i = 0; i < 16; ++i) pool.push_back(spread(-20, 12));
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = gen() % 20;
    if (op < 10) {
      // Absolute times up to ~1e6; those behind the clock clamp to it.
      const double t = gen() % 3 == 0 ? pool[gen() % pool.size()] : spread(-30, 19);
      const int label = next_label++;
      ids.push_back(sched.schedule_at(t, handler(label, true)));
      ref_ids.push_back(ref.schedule_at(t, handler(label, false)));
    } else if (op < 13) {
      const double dt = gen() % 4 == 0 ? 0.0 : spread(-30, 4);
      const int label = next_label++;
      ids.push_back(sched.schedule_in(dt, handler(label, true)));
      ref_ids.push_back(ref.schedule_at(ref.now() + dt, handler(label, false)));
    } else if (op < 16) {
      if (ids.empty()) continue;
      const std::size_t victim = gen() % ids.size();
      sched.cancel(ids[victim]);
      ref.cancel(ref_ids[victim]);
    } else {
      // Often stop short of the next event, sometimes exactly on a pooled
      // time, sometimes behind the clock (a no-op).
      const double end = gen() % 4 == 0 ? pool[gen() % pool.size()] : sched.now() + spread(-30, 3);
      sched.run_until(end);
      ref.run_until(end);
      ASSERT_EQ(sched.now(), ref.now()) << "step " << step;
      ASSERT_EQ(sched.pending_count(), ref.pending()) << "step " << step;
      ASSERT_EQ(ran, ref_ran) << "step " << step;
    }
  }
  EXPECT_LT(sched.now(), 1e6);
  sched.run_all();
  ref.run_until(std::numeric_limits<double>::infinity());
  EXPECT_EQ(ran, ref_ran);
  EXPECT_EQ(sched.pending_count(), 0u);
  EXPECT_GT(ran.size(), static_cast<std::size_t>(kSteps) / 4);
}

}  // namespace
}  // namespace icc::sim

// Stream equivalence of the compact engine behind sim::Rng.
//
// Mt64Stream must yield std::mt19937_64's stream draw for draw, across its
// switch from the two seeding cursors to the full engine (draw 156), and
// through copies and moves taken on either side of that switch. Every Rng
// helper must then return what the same helper returns on the standard
// engine.
#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "exp/seed.hpp"

namespace icc::sim {
namespace {

/// Rng's helpers, written against std::mt19937_64.
struct StdRng {
  std::mt19937_64 engine;

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine);
  }
  std::uint32_t uniform_int(std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>{lo, hi}(engine);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine);
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine);
  }
  bool chance(double p) { return std::bernoulli_distribution{p}(engine); }
  Vec2 point_in(double w, double h) { return {uniform(0.0, w), uniform(0.0, h)}; }
  std::uint64_t fork_seed(std::uint64_t salt) {
    std::uint64_t z = engine() + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  StdRng fork(std::uint64_t salt) { return StdRng{std::mt19937_64{fork_seed(salt)}}; }
};

/// At least 50 seeds: the edges, small integers, the world seeds a
/// benchmark or campaign derives, and the stream seeds a world of seed 1
/// forks for its nodes' MACs and AODV agents.
std::vector<std::uint64_t> test_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 2, 7, 42, 4242, 0x9E3779B97F4A7C15ull,
                                   std::numeric_limits<std::uint64_t>::max(),
                                   std::numeric_limits<std::uint64_t>::max() - 1,
                                   std::uint64_t{1} << 63};
  for (std::uint64_t run = 0; run < 16; ++run) seeds.push_back(exp::derive_seed(1, 0, run));
  for (std::uint64_t run = 0; run < 8; ++run) seeds.push_back(exp::derive_seed(7, 0, run));
  StdRng world{std::mt19937_64{1}};
  for (std::uint64_t node = 0; node < 12; ++node) {
    seeds.push_back(world.fork_seed(0x6D616300ull + node));  // "mac" + id
    seeds.push_back(world.fork_seed(0x414F4456ull + node));  // "AODV" + id
  }
  return seeds;
}

TEST(Mt64Stream, MatchesStdMt19937_64) {
  const std::vector<std::uint64_t> seeds = test_seeds();
  ASSERT_GE(seeds.size(), 50u);
  for (const std::uint64_t seed : seeds) {
    Mt64Stream compact{seed};
    std::mt19937_64 reference{seed};
    for (int draw = 0; draw < 1000; ++draw) {
      ASSERT_EQ(compact(), reference()) << "seed " << seed << " draw " << draw;
    }
  }
}

TEST(Mt64Stream, CopiesAndMovesContinueTheStream) {
  constexpr int kAfter = 400;
  for (const std::uint64_t seed : test_seeds()) {
    for (const int at : {0, 155, 156, 157, 311, 312}) {
      Mt64Stream compact{seed};
      std::mt19937_64 reference{seed};
      for (int i = 0; i < at; ++i) ASSERT_EQ(compact(), reference());

      Mt64Stream copy{compact};
      Mt64Stream assigned{0};
      assigned = compact;
      std::mt19937_64 reference_copy{reference};
      for (int i = 0; i < kAfter; ++i) {
        const std::uint64_t want = reference_copy();
        ASSERT_EQ(copy(), want) << "seed " << seed << " copied at " << at << " +" << i;
        ASSERT_EQ(assigned(), want) << "seed " << seed << " assigned at " << at << " +" << i;
      }
      // The copies are deep: the original has not moved.
      for (int i = 0; i < kAfter; ++i) {
        ASSERT_EQ(compact(), reference()) << "seed " << seed << " original at " << at;
      }

      Mt64Stream moved{std::move(compact)};
      std::mt19937_64 reference_moved{reference};
      for (int i = 0; i < kAfter; ++i) {
        const std::uint64_t want = reference_moved();
        ASSERT_EQ(moved(), want) << "seed " << seed << " moved at " << at << " +" << i;
        // A moved-from stream is still the stream it was.
        ASSERT_EQ(compact(), reference()) << "seed " << seed << " moved-from at " << at;
      }
    }
  }
}

TEST(Rng, HelpersMatchTheStandardEngine) {
  std::mt19937_64 script{99};  // picks which helper to call next
  for (const std::uint64_t seed : test_seeds()) {
    Rng rng{seed};
    StdRng reference{std::mt19937_64{seed}};
    for (int call = 0; call < 500; ++call) {
      switch (script() % 7) {
        case 0:
          ASSERT_EQ(rng.uniform(-3.0, 11.0), reference.uniform(-3.0, 11.0));
          break;
        case 1:
          ASSERT_EQ(rng.uniform_int(0, 1023), reference.uniform_int(0, 1023));
          break;
        case 2:
          ASSERT_EQ(rng.normal(2.0, 0.5), reference.normal(2.0, 0.5));
          break;
        case 3:
          ASSERT_EQ(rng.exponential(4.0), reference.exponential(4.0));
          break;
        case 4:
          ASSERT_EQ(rng.chance(0.3), reference.chance(0.3));
          break;
        case 5:
          ASSERT_EQ(rng.point_in(1000.0, 400.0), reference.point_in(1000.0, 400.0));
          break;
        default: {
          const std::uint64_t salt = script();
          Rng child = rng.fork(salt);
          StdRng reference_child = reference.fork(salt);
          for (int i = 0; i < 200; ++i) {
            ASSERT_EQ(child.uniform_int(0, std::numeric_limits<std::uint32_t>::max()),
                      reference_child.uniform_int(0, std::numeric_limits<std::uint32_t>::max()));
          }
          break;
        }
      }
    }
  }
}

TEST(Rng, StaysCompact) {
  // The point of the compact engine: a 4,000-node world holds ~12,000 streams.
  EXPECT_LE(sizeof(Rng), 48u);
}

}  // namespace
}  // namespace icc::sim

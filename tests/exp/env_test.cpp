// Strict env-knob parsing: well-formed values parse exactly, malformed
// values (the classic 1O-for-10 typo) abort with a message naming the
// variable instead of silently truncating to a numeric prefix — in the
// helpers themselves and in the simulator knobs read through them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "exp/env.hpp"
#include "sim/world.hpp"

namespace icc::exp {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv("ICC_ENV_TEST"); }
};

TEST_F(EnvTest, UnsetAndEmptyFallBack) {
  ::unsetenv("ICC_ENV_TEST");
  EXPECT_EQ(env_int("ICC_ENV_TEST", 7), 7);
  EXPECT_DOUBLE_EQ(env_double("ICC_ENV_TEST", 2.5), 2.5);
  EXPECT_EQ(env_string("ICC_ENV_TEST", "x"), "x");
  ::setenv("ICC_ENV_TEST", "", 1);
  EXPECT_EQ(env_int("ICC_ENV_TEST", 7), 7);
}

TEST_F(EnvTest, WellFormedValuesParse) {
  ::setenv("ICC_ENV_TEST", "42", 1);
  EXPECT_EQ(env_int("ICC_ENV_TEST", 0), 42);
  ::setenv("ICC_ENV_TEST", "-3", 1);
  EXPECT_EQ(env_int("ICC_ENV_TEST", 0), -3);
  ::setenv("ICC_ENV_TEST", "2.5e2", 1);
  EXPECT_DOUBLE_EQ(env_double("ICC_ENV_TEST", 0.0), 250.0);
}

TEST_F(EnvTest, MalformedIntegerAborts) {
  ::setenv("ICC_ENV_TEST", "1O", 1);  // letter O, the classic typo
  EXPECT_DEATH((void)env_int("ICC_ENV_TEST", 1),
               "ICC_ENV_TEST='1O' is not a valid integer");
}

TEST_F(EnvTest, TrailingGarbageAborts) {
  ::setenv("ICC_ENV_TEST", "10 ", 1);
  EXPECT_DEATH((void)env_int("ICC_ENV_TEST", 1), "not a valid integer");
  ::setenv("ICC_ENV_TEST", "3OO.0", 1);
  EXPECT_DEATH((void)env_double("ICC_ENV_TEST", 1.0), "not a valid number");
}

TEST_F(EnvTest, OutOfRangeAborts) {
  ::setenv("ICC_ENV_TEST", "99999999999999999999", 1);
  EXPECT_DEATH((void)env_int("ICC_ENV_TEST", 1), "not a valid integer");
}

// Seeds are printed with %llu, so the seed knobs take the full 64 bits.
TEST_F(EnvTest, U64ParsesTheFullRange) {
  EXPECT_EQ(env_u64("ICC_ENV_TEST", 7), 7u);
  ::setenv("ICC_ENV_TEST", "0", 1);
  EXPECT_EQ(env_u64("ICC_ENV_TEST", 7), 0u);
  ::setenv("ICC_ENV_TEST", "424242", 1);
  EXPECT_EQ(env_u64("ICC_ENV_TEST", 7), 424242u);
  ::setenv("ICC_ENV_TEST", "18446744073709551615", 1);
  EXPECT_EQ(env_u64("ICC_ENV_TEST", 7), std::numeric_limits<std::uint64_t>::max());
}

TEST_F(EnvTest, MalformedU64Aborts) {
  ::setenv("ICC_ENV_TEST", "12x", 1);
  EXPECT_DEATH((void)env_u64("ICC_ENV_TEST", 1),
               "ICC_ENV_TEST='12x' is not a valid unsigned 64-bit integer");
  ::setenv("ICC_ENV_TEST", "-1", 1);  // strtoull alone would wrap it to 2^64-1
  EXPECT_DEATH((void)env_u64("ICC_ENV_TEST", 1), "ICC_ENV_TEST='-1' is not a valid unsigned");
  ::setenv("ICC_ENV_TEST", "abc", 1);
  EXPECT_DEATH((void)env_u64("ICC_ENV_TEST", 1), "ICC_ENV_TEST='abc' is not a valid unsigned");
  ::setenv("ICC_ENV_TEST", "18446744073709551616", 1);  // 2^64
  EXPECT_DEATH((void)env_u64("ICC_ENV_TEST", 1), "is not a valid unsigned");
}

TEST_F(EnvTest, IntListParses) {
  EXPECT_EQ(env_int_list("ICC_ENV_TEST", {1, 2}), (std::vector<int>{1, 2}));
  ::setenv("ICC_ENV_TEST", "", 1);
  EXPECT_EQ(env_int_list("ICC_ENV_TEST", {1, 2}), (std::vector<int>{1, 2}));
  ::setenv("ICC_ENV_TEST", "4", 1);
  EXPECT_EQ(env_int_list("ICC_ENV_TEST", {1, 2}), (std::vector<int>{4}));
  ::setenv("ICC_ENV_TEST", "100,1000,10000", 1);
  EXPECT_EQ(env_int_list("ICC_ENV_TEST", {}), (std::vector<int>{100, 1000, 10000}));
}

TEST_F(EnvTest, MalformedIntListAborts) {
  ::setenv("ICC_ENV_TEST", "1,2x", 1);
  EXPECT_DEATH((void)env_int_list("ICC_ENV_TEST", {}),
               "ICC_ENV_TEST='1,2x' is not a valid integer list");
  ::setenv("ICC_ENV_TEST", "1,,2", 1);
  EXPECT_DEATH((void)env_int_list("ICC_ENV_TEST", {}),
               "ICC_ENV_TEST='1,,2' is not a valid integer list");
  ::setenv("ICC_ENV_TEST", "abc", 1);
  EXPECT_DEATH((void)env_int_list("ICC_ENV_TEST", {}),
               "ICC_ENV_TEST='abc' is not a valid integer list");
  ::setenv("ICC_ENV_TEST", "1,2,", 1);
  EXPECT_DEATH((void)env_int_list("ICC_ENV_TEST", {}), "not a valid integer list");
}

// The simulator reads its knobs through the same helpers, so a typo aborts
// World construction instead of silently choosing a sampling interval or a
// ring size.
class SimKnobTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name : {"ICC_TRACE_HEALTH", "ICC_FLIGHT", "ICC_FLIGHT_RECORDS"}) {
      ::unsetenv(name);
    }
  }
};

TEST_F(SimKnobTest, TraceHealthNonNumberAborts) {
  ::setenv("ICC_TRACE_HEALTH", "abc", 1);
  EXPECT_DEATH(sim::World{sim::WorldConfig{}}, "ICC_TRACE_HEALTH='abc' is not a valid number");
}

TEST_F(SimKnobTest, FlightRecordsTypoAborts) {
  ::setenv("ICC_FLIGHT", "1", 1);
  ::setenv("ICC_FLIGHT_RECORDS", "1O", 1);  // letter O
  EXPECT_DEATH(sim::World{sim::WorldConfig{}},
               "ICC_FLIGHT_RECORDS='1O' is not a valid integer");
}

// A ring needs at least one slot: zero or a negative size aborts instead of
// quietly becoming the default.
TEST_F(SimKnobTest, FlightRecordsBelowOneAborts) {
  ::setenv("ICC_FLIGHT", "1", 1);
  ::setenv("ICC_FLIGHT_RECORDS", "0", 1);
  EXPECT_DEATH(sim::World{sim::WorldConfig{}},
               "ICC_FLIGHT_RECORDS='0' is not a valid ring size");
  ::setenv("ICC_FLIGHT_RECORDS", "-5", 1);
  EXPECT_DEATH(sim::World{sim::WorldConfig{}},
               "ICC_FLIGHT_RECORDS='-5' is not a valid ring size");
}

}  // namespace
}  // namespace icc::exp

// Strict env-knob parsing: well-formed values parse exactly, malformed
// values (the classic 1O-for-10 typo) abort with a message naming the
// variable instead of silently truncating to a numeric prefix — in the
// helpers themselves and in the simulator knobs read through them.
#include <gtest/gtest.h>

#include <cstdlib>

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

// The simulator reads its knobs through the same helpers, so a typo aborts
// World construction instead of silently choosing an engine, a sampling
// interval or a ring size.
class SimKnobTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name :
         {"ICC_SIM_THREADS", "ICC_TRACE_HEALTH", "ICC_FLIGHT", "ICC_FLIGHT_RECORDS"}) {
      ::unsetenv(name);
    }
  }
};

TEST_F(SimKnobTest, SimThreadsTrailingGarbageAborts) {
  ::setenv("ICC_SIM_THREADS", "4x", 1);
  EXPECT_DEATH(sim::World{sim::WorldConfig{}}, "ICC_SIM_THREADS='4x' is not a valid integer");
}

TEST_F(SimKnobTest, SimThreadsNonNumberAborts) {
  ::setenv("ICC_SIM_THREADS", "abc", 1);
  EXPECT_DEATH(sim::World{sim::WorldConfig{}}, "ICC_SIM_THREADS='abc' is not a valid integer");
}

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

}  // namespace
}  // namespace icc::exp

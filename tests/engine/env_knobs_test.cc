#include "engine/env_knobs.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace dasched {
namespace {

TEST(ParseDouble, AcceptsPlainNumbers) {
  EXPECT_DOUBLE_EQ(*parse_double("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_double("1"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_double("-2.25"), -2.25);
  EXPECT_DOUBLE_EQ(*parse_double("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*parse_double("  0.75"), 0.75);  // strtod skips leading ws
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("0.5x"));
  EXPECT_FALSE(parse_double("1.0 "));  // trailing whitespace = not consumed
  EXPECT_FALSE(parse_double("1..5"));
  EXPECT_FALSE(parse_double("1e999"));  // out of range
}

TEST(ParseInt, AcceptsPlainIntegers) {
  EXPECT_EQ(*parse_int("0"), 0);
  EXPECT_EQ(*parse_int("42"), 42);
  EXPECT_EQ(*parse_int("-7"), -7);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_int(""));
  EXPECT_FALSE(parse_int("abc"));
  EXPECT_FALSE(parse_int("12abc"));
  EXPECT_FALSE(parse_int("3.5"));
  EXPECT_FALSE(parse_int("99999999999999999999999"));  // out of range
}

TEST(EnvKnobs, FallbackWhenUnset) {
  ::unsetenv("DASCHED_TEST_KNOB");
  EXPECT_DOUBLE_EQ(env_double("DASCHED_TEST_KNOB", 0.5), 0.5);
  EXPECT_EQ(env_int("DASCHED_TEST_KNOB", 8), 8);
}

TEST(EnvKnobs, ReadsSetValues) {
  ::setenv("DASCHED_TEST_KNOB", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_double("DASCHED_TEST_KNOB", 0.5), 0.25);
  ::setenv("DASCHED_TEST_KNOB", "16", 1);
  EXPECT_EQ(env_int("DASCHED_TEST_KNOB", 8), 16);
  ::unsetenv("DASCHED_TEST_KNOB");
}

TEST(EnvKnobs, WorkspaceFromEnv) {
  ::unsetenv("DASCHED_WORKSPACE");
  EXPECT_TRUE(workspace_from_env(true));
  EXPECT_FALSE(workspace_from_env(false));
  ::setenv("DASCHED_WORKSPACE", "off", 1);
  EXPECT_FALSE(workspace_from_env(true));
  ::setenv("DASCHED_WORKSPACE", "on", 1);
  EXPECT_TRUE(workspace_from_env(false));
  ::unsetenv("DASCHED_WORKSPACE");
}

TEST(EnvKnobsDeathTest, MalformedWorkspaceIsFatal) {
  ::setenv("DASCHED_WORKSPACE", "bogus", 1);
  EXPECT_EXIT((void)workspace_from_env(true), ::testing::ExitedWithCode(2),
              "invalid value 'bogus'");
  ::unsetenv("DASCHED_WORKSPACE");
}

TEST(EnvKnobsDeathTest, MalformedValueIsFatal) {
  ::setenv("DASCHED_TEST_KNOB", "abc", 1);
  EXPECT_EXIT((void)env_double("DASCHED_TEST_KNOB", 0.5),
              ::testing::ExitedWithCode(2), "invalid value 'abc'");
  EXPECT_EXIT((void)env_int("DASCHED_TEST_KNOB", 8),
              ::testing::ExitedWithCode(2), "invalid value 'abc'");
  ::unsetenv("DASCHED_TEST_KNOB");
}

}  // namespace
}  // namespace dasched

#include "engine/env_knobs.h"

#include <cstdint>
#include <cstdlib>

#include <gtest/gtest.h>

#include "util/parse.h"

namespace dasched {
namespace {

// The knobs and every CLI flag share util/parse.h's from_chars parsers.
TEST(ParseDouble, AcceptsPlainNumbers) {
  EXPECT_DOUBLE_EQ(*parse_f64("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_f64("1"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_f64("-2.25"), -2.25);
  EXPECT_DOUBLE_EQ(*parse_f64("1e3"), 1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(parse_f64(""));
  EXPECT_FALSE(parse_f64("abc"));
  EXPECT_FALSE(parse_f64("0.5x"));
  EXPECT_FALSE(parse_f64("  0.75"));  // leading whitespace = not consumed
  EXPECT_FALSE(parse_f64("1.0 "));  // trailing whitespace = not consumed
  EXPECT_FALSE(parse_f64("1..5"));
  EXPECT_FALSE(parse_f64("1e999"));  // out of range
}

TEST(ParseInt, AcceptsPlainIntegers) {
  EXPECT_EQ(*parse_i64("0"), 0);
  EXPECT_EQ(*parse_i64("42"), 42);
  EXPECT_EQ(*parse_i64("-7"), -7);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("abc"));
  EXPECT_FALSE(parse_i64("12abc"));
  EXPECT_FALSE(parse_i64("3.5"));
  EXPECT_FALSE(parse_i64(" 4"));
  EXPECT_FALSE(parse_i64("99999999999999999999999"));  // out of range
}

TEST(ParseInt, RangeIsTheTargetType) {
  EXPECT_EQ(*parse_integer<int>("2147483647"), 2147483647);
  EXPECT_FALSE(parse_integer<int>("2147483648"));
  EXPECT_FALSE(parse_integer<int>("4294967297"));  // not wrapped to 1
  EXPECT_EQ(*parse_integer<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
  EXPECT_FALSE(parse_integer<std::uint64_t>("-1"));
}

TEST(ParseOrDieDeathTest, OutOfRangeIsFatal) {
  EXPECT_EQ(parse_int_or_die("--n", "5", 1), 5);
  EXPECT_EXIT((void)parse_int_or_die("--n", "4294967297"),
              ::testing::ExitedWithCode(2),
              "--n: invalid value '4294967297' \\(expected an integer in "
              "\\[-2147483648, 2147483647\\]\\)");
  EXPECT_EXIT((void)parse_int_or_die("--n", "0", 1),
              ::testing::ExitedWithCode(2),
              "expected an integer in \\[1, 2147483647\\]");
  EXPECT_EXIT((void)parse_int_or_die<std::uint64_t>("--seed", "-1"),
              ::testing::ExitedWithCode(2), "invalid value '-1'");
}

TEST(ParseOrDieDeathTest, NonFiniteDoubleIsFatal) {
  EXPECT_DOUBLE_EQ(parse_double_or_die("--x", "0.25"), 0.25);
  EXPECT_EXIT((void)parse_double_or_die("--x", "inf"),
              ::testing::ExitedWithCode(2), "expected a finite number");
  EXPECT_EXIT((void)parse_double_or_die("--x", "nan"),
              ::testing::ExitedWithCode(2), "expected a finite number");
  EXPECT_EXIT((void)parse_double_or_die("--x", "1e999"),
              ::testing::ExitedWithCode(2), "invalid value '1e999'");
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

TEST(EnvKnobsDeathTest, OutOfRangeValueIsFatal) {
  ::setenv("DASCHED_TEST_KNOB", "4294967297", 1);
  EXPECT_EXIT((void)env_int("DASCHED_TEST_KNOB", 8),
              ::testing::ExitedWithCode(2), "invalid value '4294967297'");
  ::setenv("DASCHED_TEST_KNOB", "1e999", 1);
  EXPECT_EXIT((void)env_double("DASCHED_TEST_KNOB", 0.5),
              ::testing::ExitedWithCode(2), "invalid value '1e999'");
  ::setenv("DASCHED_TEST_KNOB", " 16", 1);
  EXPECT_EXIT((void)env_int("DASCHED_TEST_KNOB", 8),
              ::testing::ExitedWithCode(2), "invalid value ' 16'");
  ::unsetenv("DASCHED_TEST_KNOB");
}

}  // namespace
}  // namespace dasched

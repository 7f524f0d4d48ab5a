// Unit tests for the util module: stats, tables, strings, flags, rng,
// backoff, text histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "util/backoff.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace flowtime::util {
namespace {

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, MeanOfValues) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, StddevOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(stddev({5.0, 5.0, 5.0}), 0.0);
}

TEST(Stats, StddevPopulation) {
  // Population stddev of {2, 4, 4, 4, 5, 5, 7, 9} is exactly 2.
  EXPECT_DOUBLE_EQ(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0);
}

TEST(Stats, QuantileNearestRank) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 50.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.2), 10.0);
  // Out-of-range q clamps; empty input yields 0.
  EXPECT_DOUBLE_EQ(quantile(v, 1.5), 50.0);
  EXPECT_DOUBLE_EQ(quantile(v, -0.5), 10.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Stats, SortedQuantileMatchesQuantile) {
  std::vector<double> sorted{1, 2, 3, 4};
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(sorted_quantile(sorted, q), quantile(sorted, q));
  }
}

TEST(Stats, MinMaxSum) {
  std::vector<double> v{3.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(max_of(v), 3.0);
  EXPECT_DOUBLE_EQ(max_of({}), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.begin_row().add("alpha").add(1.5, 1);
  t.begin_row().add("b").add(std::int64_t{42});
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("1.5"), std::string::npos);
  EXPECT_NE(rendered.find("42"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello\t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--workflows=7", "--rate", "0.5", "--verbose"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("workflows", 0), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("absent", 9), 9);
}

TEST(Flags, TracksUnqueriedFlags) {
  const char* argv[] = {"prog", "--typo=1"};
  Flags flags(2, argv);
  EXPECT_EQ(flags.unqueried().size(), 1u);
  flags.get_int("typo", 0);
  EXPECT_TRUE(flags.unqueried().empty());
}

TEST(Flags, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Flags(2, argv), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ForkDecorrelatesStreams) {
  Rng parent(1);
  Rng child = parent.fork();
  // The forked stream must not replay the parent's stream.
  Rng parent_copy(1);
  parent_copy.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.uniform_int(0, 1 << 30) == parent_copy.uniform_int(0, 1 << 30)) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 100);
}

TEST(Rng, ExponentialMeanApproximatesInverseRate) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Backoff, ExponentialSequenceWithCapAndReset) {
  BackoffConfig config;
  config.base = 2.0;
  config.multiplier = 2.0;
  config.cap = 10.0;
  Backoff backoff(config);
  EXPECT_EQ(backoff.attempts(), 0);
  EXPECT_DOUBLE_EQ(backoff.next(), 2.0);
  EXPECT_DOUBLE_EQ(backoff.next(), 4.0);
  EXPECT_DOUBLE_EQ(backoff.next(), 8.0);
  EXPECT_DOUBLE_EQ(backoff.next(), 10.0);  // capped
  EXPECT_DOUBLE_EQ(backoff.next(), 10.0);  // stays capped
  EXPECT_EQ(backoff.attempts(), 5);
  backoff.reset();
  EXPECT_EQ(backoff.attempts(), 0);
  EXPECT_DOUBLE_EQ(backoff.next(), 2.0);  // restarts from base
}

TEST(Backoff, MultiplierOneReproducesFixedDelay) {
  // The simulator's task-retry path relies on this: multiplier 1 and no
  // jitter must reproduce the historical constant backoff_slots delay.
  BackoffConfig config;
  config.base = 3.0;
  config.multiplier = 1.0;
  Backoff backoff(config);
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(backoff.next(), 3.0) << "attempt " << i;
  }
}

TEST(Backoff, JitterIsBoundedAndSeedDeterministic) {
  BackoffConfig config;
  config.base = 4.0;
  config.multiplier = 2.0;
  config.cap = 64.0;
  config.jitter = 0.25;
  config.seed = 42;
  Backoff a(config);
  Backoff b(config);
  config.seed = 43;
  Backoff c(config);
  bool any_differs = false;
  for (int i = 0; i < 8; ++i) {
    const double unjittered = std::min(4.0 * std::pow(2.0, i), 64.0);
    const double da = a.next();
    EXPECT_DOUBLE_EQ(da, b.next()) << "same seed, same sequence";
    EXPECT_GE(da, unjittered * 0.75 - 1e-12) << "attempt " << i;
    EXPECT_LE(da, unjittered * 1.25 + 1e-12) << "attempt " << i;
    if (std::abs(da - c.next()) > 1e-12) any_differs = true;
  }
  EXPECT_TRUE(any_differs) << "different seeds should draw different jitter";
}

TEST(Backoff, ResetKeepsJitterStreamPosition) {
  // reset() restarts the attempt counter but must NOT rewind the jitter
  // stream: the stream position is part of the run's deterministic state.
  BackoffConfig config;
  config.base = 2.0;
  config.jitter = 0.5;
  config.seed = 7;
  Backoff straight(config);
  Backoff with_reset(config);
  (void)straight.next();
  (void)with_reset.next();
  with_reset.reset();
  // Same stream position now: with_reset's attempt 0 uses the draw that
  // straight's attempt 1 uses — delays differ (attempt counts differ) but
  // dividing out the un-jittered part exposes the same jitter factor.
  const double straight_factor = straight.next() / (2.0 * 2.0);
  const double reset_factor = with_reset.next() / 2.0;
  EXPECT_DOUBLE_EQ(straight_factor, reset_factor);
}

TEST(Histogram, RendersBucketsAndCounts) {
  const std::string rendered = render_histogram({1, 1, 2, 9, 10}, {.bins = 3});
  // 3 lines, first bucket holds {1,1,2} -> count 3.
  EXPECT_NE(rendered.find("| 3"), std::string::npos);
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 3);
}

TEST(Histogram, EmptyInput) {
  EXPECT_EQ(render_histogram({}), "(no data)\n");
}

TEST(Histogram, ConstantValuesSingleSpike) {
  const std::string rendered = render_histogram({5, 5, 5}, {.bins = 4});
  EXPECT_NE(rendered.find("| 3"), std::string::npos);
}

}  // namespace
}  // namespace flowtime::util

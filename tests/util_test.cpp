// Unit tests for src/util.
#include <gtest/gtest.h>

#include <cstdlib>

#include "util/common.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mps {
namespace {

TEST(Common, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div<std::size_t>(1'000'000'007, 128), 7812501u);
}

TEST(Common, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0);
  EXPECT_EQ(round_up(1, 8), 8);
  EXPECT_EQ(round_up(8, 8), 8);
  EXPECT_EQ(round_up(9, 8), 16);
}

TEST(Common, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0);
  EXPECT_EQ(log2_ceil(2), 1);
  EXPECT_EQ(log2_ceil(3), 2);
  EXPECT_EQ(log2_ceil(4), 2);
  EXPECT_EQ(log2_ceil(5), 3);
  EXPECT_EQ(log2_ceil(1u << 20), 20);
  EXPECT_EQ(log2_ceil((1u << 20) + 1), 21);
}

TEST(Common, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0);
  EXPECT_EQ(log2_floor(2), 1);
  EXPECT_EQ(log2_floor(3), 1);
  EXPECT_EQ(log2_floor(1024), 10);
}

TEST(Common, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(Common, CheckThrows) {
  EXPECT_THROW(MPS_CHECK(false), mps::InvalidInputError);
  EXPECT_NO_THROW(MPS_CHECK(true));
  EXPECT_THROW(MPS_CHECK_MSG(1 == 2, "context"), mps::InvalidInputError);
}

TEST(Rng, Deterministic) {
  util::Rng a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRange) {
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  util::Rng rng(7);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.uniform(10)];
  for (int b : buckets) {
    EXPECT_GT(b, n / 10 - 1000);
    EXPECT_LT(b, n / 10 + 1000);
  }
}

TEST(Rng, ZipfRangeAndSkew) {
  util::Rng rng(11);
  long long ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto z = rng.zipf(1000, 1.2);
    ASSERT_GE(z, 1u);
    ASSERT_LE(z, 1000u);
    if (z == 1) ++ones;
  }
  // Zipf(1.2) puts a large mass on rank 1.
  EXPECT_GT(ones, n / 10);
}

TEST(Rng, NormalMoments) {
  util::Rng rng(3);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mu = sum / n;
  const double var = sum2 / n - mu * mu;
  EXPECT_NEAR(mu, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, SampleDistinctSorted) {
  util::Rng rng(5);
  for (std::uint32_t n : {10u, 100u, 5000u}) {
    for (std::uint32_t k : {0u, 1u, n / 2, n}) {
      auto s = util::sample_distinct_sorted(rng, n, k);
      ASSERT_EQ(s.size(), k);
      for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_LT(s[i], n);
        if (i) {
          EXPECT_LT(s[i - 1], s[i]);
        }
      }
    }
  }
}

TEST(Stats, MeanStd) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(util::mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(util::stddev(xs), 2.0);  // classic population-std example
}

TEST(Stats, PearsonPerfect) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{3, 5, 7, 9, 11};
  EXPECT_NEAR(util::pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg(ys.rbegin(), ys.rend());
  EXPECT_NEAR(util::pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_EQ(util::pearson(xs, ys), 0.0);
  EXPECT_EQ(util::pearson(std::vector<double>{1.0}, std::vector<double>{2.0}), 0.0);
}

TEST(Stats, LeastSquares) {
  const std::vector<double> xs{0, 1, 2, 3};
  const std::vector<double> ys{1, 3, 5, 7};
  const auto fit = util::least_squares(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r, 1.0, 1e-12);
}

TEST(Stats, Summarize) {
  const std::vector<double> xs{3, 1, 2};
  const auto s = util::summarize(xs);
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

TEST(Stats, PercentileEmptyIsZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(util::percentile(empty, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(util::percentile(empty, 99.0), 0.0);
}

TEST(Stats, PercentileSingleSample) {
  // One sample IS every percentile — including the clamped extremes.
  const std::vector<double> one{3.5};
  for (const double p : {-10.0, 0.0, 50.0, 99.0, 100.0, 250.0}) {
    EXPECT_DOUBLE_EQ(util::percentile(one, p), 3.5);
  }
}

TEST(Stats, PercentileInterpolatesAndClamps) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 150.0), 4.0);  // p clamped to 100
  EXPECT_DOUBLE_EQ(util::percentile(xs, -5.0), 1.0);   // p clamped to 0
}

TEST(Stats, PercentileDuplicateHeavy) {
  // The serving-latency regime: ties dominate, a few outliers at the top.
  // Percentiles must stay on real sample values (no interpolation drift
  // across the flat region) and p99 must reach into the outlier tail.
  std::vector<double> xs(1000, 1.0);
  xs[997] = xs[998] = xs[999] = 100.0;
  EXPECT_DOUBLE_EQ(util::percentile(xs, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 99.0), 1.0);  // rank 989.01: flat
  EXPECT_DOUBLE_EQ(util::percentile(xs, 99.8), 100.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 100.0), 100.0);
  const std::vector<double> all_same(4096, 7.0);
  EXPECT_DOUBLE_EQ(util::percentile(all_same, 99.0), 7.0);
}

TEST(Table, RenderAligns) {
  util::Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1.50"});
  t.add_row({"b", "22.25"});
  const std::string out = t.render();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.25"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, Csv) {
  util::Table t;
  t.set_header({"a", "b"});
  t.add_row({"x,y", "2"});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
}

TEST(Table, Fmt) {
  EXPECT_EQ(util::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt_int(-42), "-42");
  EXPECT_EQ(util::fmt_sep(4344765), "4 344 765");
  EXPECT_EQ(util::fmt_sep(123), "123");
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("MPS_TEST_ENV_D", "2.5", 1);
  ::setenv("MPS_TEST_ENV_I", "17", 1);
  ::setenv("MPS_TEST_ENV_BAD", "zzz", 1);
  EXPECT_DOUBLE_EQ(util::env_double("MPS_TEST_ENV_D", 1.0), 2.5);
  EXPECT_EQ(util::env_int("MPS_TEST_ENV_I", 3), 17);
  EXPECT_DOUBLE_EQ(util::env_double("MPS_TEST_ENV_BAD", 1.5), 1.5);
  EXPECT_EQ(util::env_int("MPS_TEST_ENV_MISSING", 9), 9);
  EXPECT_EQ(util::env_string("MPS_TEST_ENV_MISSING", "dflt"), "dflt");
}

}  // namespace
}  // namespace mps

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "util/check.h"
#include "util/csv.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace p2p::util {
namespace {

// ---------------------------------------------------------------- check --

TEST(Check, PassingCheckDoesNothing) { P2P_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(P2P_CHECK(false), CheckError);
}

TEST(Check, MessageIncludesExpressionAndDetail) {
  try {
    P2P_CHECK_MSG(2 > 3, "because " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("2 > 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("because 42"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, SubstreamsAreIndependentAndDeterministic) {
  Rng base(7);
  Rng s1 = base.Substream(1);
  Rng s2 = base.Substream(2);
  Rng s1again = base.Substream(1);
  EXPECT_EQ(s1(), s1again());
  EXPECT_NE(s1(), s2());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(3.0, 8.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 8.0);
  }
}

TEST(Rng, NextBoundedCoversRangeUniformly) {
  Rng rng(9);
  std::array<int, 10> counts{};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (const int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(17);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.Add(rng.Exponential(0.25));
  EXPECT_NEAR(acc.mean(), 4.0, 0.1);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ShufflePermutesAllElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(29);
  const auto s = rng.SampleIndices(50, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (const auto i : s) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(31);
  const auto s = rng.SampleIndices(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, Mix64IsDeterministic) { EXPECT_EQ(Mix64(42), Mix64(42)); }

// ---------------------------------------------------------------- stats --

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(Accumulator, MeanAndVariance) {
  Accumulator a;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.Add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    (i < 40 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.Add(1.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(Median(xs), 25.0);
}

TEST(Stats, PercentileSingleElement) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 37.0), 7.0);
}

TEST(Stats, EmpiricalCdfEvalAndQuantile) {
  EmpiricalCdf cdf({3.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.Eval(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Eval(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.Eval(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.Eval(100), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 4.0);
}

// ------------------------------------------------------------ histogram --

TEST(Histogram, BinsAndCumulative) {
  Histogram h(0.0, 10.0, 5);
  for (double x = 0.5; x < 10; x += 1.0) h.Add(x);  // 2 per bin
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t b = 0; b < 5; ++b) EXPECT_EQ(h.count(b), 2u);
  EXPECT_DOUBLE_EQ(h.CumulativeFraction(4), 1.0);
  EXPECT_DOUBLE_EQ(h.CumulativeFraction(0), 0.2);
}

TEST(Histogram, OutOfRangeGoesToOverflow) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-0.5);
  h.Add(1.5);
  h.Add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

// ------------------------------------------------------------------ csv --

TEST(Table, TextRenderingAligns) {
  Table t({"name", "value"});
  t.AddRow({std::string("a"), 1.5});
  t.AddRow({std::string("bb"), 10.25});
  const std::string text = t.ToText(2);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("10.25"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({1.0}), CheckError);
}

TEST(EnsureDir, CreatesNestedDirectoriesAndIsIdempotent) {
  const std::string base = ::testing::TempDir() + "/p2p_ensure_dir_test";
  std::filesystem::remove_all(base);
  const std::string nested = base + "/a/b/c";
  EXPECT_TRUE(EnsureDir(nested));
  EXPECT_TRUE(std::filesystem::is_directory(nested));
  EXPECT_TRUE(EnsureDir(nested));  // already exists: still fine
  // The created directory is actually usable: a file written there reads
  // back.
  std::ofstream(nested + "/out.csv") << "x\n1\n";
  std::ifstream in(nested + "/out.csv");
  std::string line;
  EXPECT_TRUE(std::getline(in, line) && line == "x");
  std::filesystem::remove_all(base);
}

TEST(EnsureDir, FailsOnEmptyAndOnFileInTheWay) {
  EXPECT_FALSE(EnsureDir(""));
  const std::string file = ::testing::TempDir() + "/p2p_ensure_dir_file";
  std::filesystem::remove_all(file);
  std::ofstream(file) << "not a directory";
  EXPECT_FALSE(EnsureDir(file));           // exists but is a file
  EXPECT_FALSE(EnsureDir(file + "/sub"));  // parent is a file
  std::filesystem::remove_all(file);
}

// ---------------------------------------------------------- thread pool --

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(10,
                                [](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

}  // namespace
}  // namespace p2p::util

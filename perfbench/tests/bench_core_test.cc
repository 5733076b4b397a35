// Unit tests of the benchmark's own code: tail-percentile selection,
// reference normalisation, span self time, and the seeded generators.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "bench_core.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

TEST(TailPercentileTest, NearestRankWhenEnoughSamplesLieBeyond) {
  size_t beyond = 0;
  EXPECT_DOUBLE_EQ(TailPercentile(Ramp(2000), 0.99, 10, &beyond), 1980.0);
  EXPECT_EQ(beyond, 20u);
  EXPECT_DOUBLE_EQ(TailPercentile(Ramp(1100), 0.99, 10, &beyond), 1089.0);
  EXPECT_EQ(beyond, 11u);
}

TEST(TailPercentileTest, FallsBackToKeepTenSamplesBeyond) {
  size_t beyond = 0;
  // p99 of 500 samples would leave only 5 beyond; report rank n - 11.
  EXPECT_DOUBLE_EQ(TailPercentile(Ramp(500), 0.99, 10, &beyond), 490.0);
  EXPECT_EQ(beyond, 10u);
  for (size_t n : {11u, 12u, 100u, 999u, 1000u, 5000u}) {
    TailPercentile(Ramp(n), 0.99, 10, &beyond);
    EXPECT_GE(beyond, 10u) << n;
  }
}

TEST(TailPercentileTest, TooFewSamplesReturnsMaximum) {
  size_t beyond = 7;
  EXPECT_DOUBLE_EQ(TailPercentile(Ramp(10), 0.99, 10, &beyond), 10.0);
  EXPECT_EQ(beyond, 0u);
  EXPECT_DOUBLE_EQ(TailPercentile({}, 0.99, 10, &beyond), 0.0);
}

TEST(TailPercentileTest, FailuresAsInfinityLandInTheTail) {
  std::vector<double> v = Ramp(2000);
  for (int i = 0; i < 30; ++i) v.push_back(1.0 / 0.0);
  size_t beyond = 0;
  EXPECT_TRUE(std::isinf(TailPercentile(v, 0.99, 10, &beyond)));
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(ReferenceTest, NormalisedMetricsCancelAUniformSlowdown) {
  // Same work on a machine running 1.7x slower: raw numbers move, the
  // reference-normalised ones do not.
  const double ref = 0.002, op = 0.004;
  const double k = 1.7;
  EXPECT_DOUBLE_EQ(InRefUnits(op, ref), 2.0);
  EXPECT_DOUBLE_EQ(InRefUnits(op * k, ref * k), InRefUnits(op, ref));
  EXPECT_DOUBLE_EQ(InRefUnits(op, 0), 0.0);
}

TEST(ReferenceTest, KernelIsDeterministicAndTimed) {
  RefKernel a(1 << 12), b(1 << 12);
  EXPECT_GT(a.Run(), 0.0);
  b.Run();
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(ReferenceTest, SliceNormalisationFollowsDrift) {
  // The machine slows 2x between slice 0 and slice 1; ops doing the same
  // work read the same in reference units. Pass s precedes slice s.
  const std::vector<double> pass_ref = {0.002, 0.002, 0.004, 0.004};
  const std::vector<double> seconds = {0.004, 0.006, 0.008,
                                       1.0 / 0.0};  // last op failed
  const std::vector<uint32_t> slice = {0, 1, 2, 2};
  const std::vector<double> norm = NormaliseBySlice(seconds, slice, pass_ref);
  EXPECT_DOUBLE_EQ(norm[0], 2.0);  // ref 0.002 on both sides
  EXPECT_DOUBLE_EQ(norm[1], 2.0);  // mean of 0.002 and 0.004
  EXPECT_DOUBLE_EQ(norm[2], 2.0);
  EXPECT_TRUE(std::isinf(norm[3]));
}

TEST(ReferenceTest, PoolRunsOneKernelPerThread) {
  RefPool pool(3);
  EXPECT_GT(pool.Run(), 0.0);
  EXPECT_GT(pool.Run(), 0.0);
  EXPECT_EQ(pool.threads(), 3u);
}

Clock::time_point At(int ms) {
  return Clock::time_point() + std::chrono::milliseconds(ms);
}

TEST(TracerTest, SelfTimeSubtractsDirectChildren) {
  Tracer t;
  const int32_t root = t.Add("bench", "op", -1, At(0), At(10));
  t.Add("core", "a", root, At(1), At(4));
  const int32_t b = t.Add("exec", "b", root, At(5), At(9));
  t.Add("exec", "c", b, At(6), At(7));
  const std::vector<double> self = SpanSelfSeconds(t.spans());
  EXPECT_NEAR(self[0], 0.003, 1e-12);
  EXPECT_NEAR(self[1], 0.003, 1e-12);
  EXPECT_NEAR(self[2], 0.003, 1e-12);
  EXPECT_NEAR(self[3], 0.001, 1e-12);
  const auto layers = t.LayerSelfSeconds();
  EXPECT_NEAR(layers.at("bench"), 0.003, 1e-12);
  EXPECT_NEAR(layers.at("exec"), 0.004, 1e-12);
  // Layer self times add up to the root's 10 ms.
  double sum = 0;
  for (const auto& [layer, s] : layers) sum += s;
  EXPECT_NEAR(sum, 0.010, 1e-12);
}

TEST(TracerTest, OverlappingAndOverhangingChildrenCountOnce) {
  Tracer t;
  const int32_t root = t.Add("bench", "op", -1, At(0), At(10));
  t.Add("net", "a", root, At(2), At(6));
  t.Add("net", "b", root, At(4), At(8));    // overlaps a
  t.Add("net", "c", root, At(9), At(12));   // runs past the parent
  const std::vector<double> self = SpanSelfSeconds(t.spans());
  EXPECT_NEAR(self[0], 0.010 - 0.006 - 0.001, 1e-12);
}

TEST(TracerTest, ScopesNestAndNullTracerIsANoOp) {
  Tracer t(8);
  {
    Tracer::Scope root(&t, "bench", "op");
    Tracer::Scope child(&t, "core", "query");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  size_t n = 0;
  t.NamedSeconds("query", &n);
  EXPECT_EQ(n, 1u);
  Tracer::Scope none(nullptr, "core", "x");  // must not crash
}

TEST(GeneratorTest, SplitMixAndZipfArePerSeedDeterministic) {
  SplitMix a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    EXPECT_NE(x, c.Next());
  }
  Zipf zipf(2610, 1.3);
  SplitMix r1(7), r2(7);
  std::vector<size_t> counts(zipf.size(), 0);
  for (int i = 0; i < 20000; ++i) {
    const size_t k = zipf.Draw(r1);
    EXPECT_EQ(k, zipf.Draw(r2));
    ASSERT_LT(k, zipf.size());
    ++counts[k];
  }
  // Rank 0 dominates rank 1 by about 2^1.3.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[100]);
}

TEST(GeneratorTest, OpStreamFollowsPatternAndSeed) {
  const std::vector<uint8_t> pattern = {0, 1, 0, 2};
  const std::vector<ParamPicker> pickers = {{2610, 1.3}, {5, 0}, {64, 0}};
  const OpStream s1 = MakeOpStream(9, 4000, pattern, pickers);
  const OpStream s2 = MakeOpStream(9, 4000, pattern, pickers);
  const OpStream s3 = MakeOpStream(10, 4000, pattern, pickers);
  EXPECT_EQ(s1.types, s2.types);
  EXPECT_EQ(s1.params, s2.params);
  EXPECT_NE(s1.params, s3.params);
  std::vector<size_t> per_type(3, 0);
  for (size_t i = 0; i < s1.types.size(); ++i) {
    ++per_type[s1.types[i]];
    EXPECT_LT(s1.params[i], pickers[s1.types[i]].distinct);
  }
  EXPECT_EQ(per_type[0], 2000u);
  EXPECT_EQ(per_type[1], 1000u);
  EXPECT_EQ(per_type[2], 1000u);
}

TEST(GeneratorTest, OpStreamWithNothingToDrawIsEmpty) {
  EXPECT_TRUE(MakeOpStream(1, 10, {0, 1}, {{5, 0}, {0, 0}}).types.empty());
  EXPECT_TRUE(MakeOpStream(1, 10, {0, 2}, {{5, 0}}).types.empty());
  EXPECT_TRUE(MakeOpStream(1, 10, {}, {{5, 0}}).types.empty());
}

}  // namespace
}  // namespace perfbench

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "support/bytes.hpp"
#include "support/fifo.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace ftbb::support {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng master(7);
  Rng s1 = master.split(1);
  Rng s2 = master.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += s1.next() == s2.next() ? 1 : 0;
  EXPECT_LT(same, 3);
  // Splitting is a pure function of (state, id).
  Rng s1b = master.split(1);
  EXPECT_EQ(s1b.next(), Rng(7).split(1).next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(42);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalMeanCv) {
  Rng rng(17);
  Accumulator acc;
  for (int i = 0; i < 300000; ++i) acc.add(rng.lognormal_mean_cv(0.01, 0.3));
  EXPECT_NEAR(acc.mean(), 0.01, 0.0005);
  EXPECT_NEAR(acc.stddev() / acc.mean(), 0.3, 0.02);
  // cv = 0 degenerates to the constant.
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(5.0, 0.0), 5.0);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(19);
  for (std::size_t n : {1u, 5u, 100u}) {
    for (std::size_t k = 0; k <= n; k += std::max<std::size_t>(1, n / 3)) {
      const auto sample = rng.sample_without_replacement(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<std::size_t> seen(sample.begin(), sample.end());
      EXPECT_EQ(seen.size(), k);
      for (const std::size_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(Rng, SampleCoversAllElements) {
  Rng rng(23);
  const auto sample = rng.sample_without_replacement(8, 8);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Bytes, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                  (1ULL << 32), ~0ULL};
  for (const auto v : values) w.varint(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, SignedVarintRoundTrip) {
  ByteWriter w;
  const std::int64_t values[] = {0, -1, 1, -64, 63, -12345678, 12345678,
                                 INT64_MIN, INT64_MAX};
  for (const auto v : values) w.svarint(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.svarint(), v);
}

TEST(Bytes, DoubleRoundTrip) {
  ByteWriter w;
  const double values[] = {0.0, -0.0, 1.5, -3.25e30, 1e-300,
                           std::numeric_limits<double>::infinity()};
  for (const auto v : values) w.f64(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.f64(), v);
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(Bytes, VarintSizeAtGroupBoundaries) {
  static_assert(varint_size(0) == 1);  // usable in constant expressions
  EXPECT_EQ(varint_size(0), 1u);
  EXPECT_EQ(varint_size(127), 1u);
  EXPECT_EQ(varint_size(128), 2u);
  EXPECT_EQ(varint_size(16383), 2u);
  EXPECT_EQ(varint_size(16384), 3u);
  EXPECT_EQ(varint_size(0xffffffffULL), 5u);
  EXPECT_EQ(varint_size(UINT64_MAX), 10u);
  for (const std::uint64_t v :
       {0ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xffffffffULL, ~0ULL}) {
    ByteWriter w;
    w.varint(v);
    ByteWriter counted = ByteWriter::counting();
    counted.varint(v);
    EXPECT_EQ(varint_size(v), w.size()) << v;
    EXPECT_EQ(counted.size(), w.size()) << v;
  }
}

TEST(Bytes, VarintSizeMatchesEncoding) {
  for (const std::uint64_t v : {0ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, ~0ULL}) {
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(varint_size(v), w.size()) << v;
  }
}

TEST(Fifo, MatchesDequeThroughDrainsAndCompactions) {
  // Bursts of pushes and pops against a std::deque: some drain the queue
  // (clear), some leave a growing backlog whose consumed prefix passes
  // kCompactAt (compaction).
  Rng rng(7);
  Fifo<std::vector<int>> fifo;
  std::deque<std::vector<int>> ref;
  int next = 0;
  for (int burst = 0; burst < 400; ++burst) {
    const std::size_t pushes = rng.pick(3 * Fifo<int>::kCompactAt);
    for (std::size_t k = 0; k < pushes; ++k) {
      fifo.emplace_back(std::vector<int>{next, next + 1});
      ref.emplace_back(std::vector<int>{next, next + 1});
      ++next;
    }
    const std::size_t pops = rng.chance(0.3) ? ref.size() : rng.pick(ref.size() + 1);
    for (std::size_t k = 0; k < pops; ++k) {
      ASSERT_FALSE(fifo.empty());
      EXPECT_EQ(fifo.pop_front(), ref.front());
      ref.pop_front();
    }
    EXPECT_EQ(fifo.empty(), ref.empty());
  }
  while (!ref.empty()) {
    EXPECT_EQ(fifo.pop_front(), ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, MergeMatchesCombined) {
  Accumulator a;
  Accumulator b;
  Accumulator all;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform(0, 10);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(5.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h({1.0, 2.0, 4.0});
  for (double v = 0.25; v < 5.0; v += 0.5) h.add(v);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_GT(h.quantile(0.5), 1.0);
  EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
}

TEST(TextTable, RendersAligned) {
  TextTable t({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22.5"});
  const std::string out = t.render();
  // Column widths: "alpha" (5) and "value" (5).
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.1234, 1), "12.3%");
}

}  // namespace
}  // namespace ftbb::support

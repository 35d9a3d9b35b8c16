#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace pathdump {
namespace {

TEST(TypesTest, IpRendering) {
  EXPECT_EQ(IpToString(0x0A000001), "10.0.0.1");
  EXPECT_EQ(IpToString(0xC0A80101), "192.168.1.1");
}

TEST(TypesTest, FlowToStringRoundsTrip) {
  FiveTuple t{0x0A000001, 0x0A000002, 1234, 80, kProtoTcp};
  EXPECT_EQ(FlowToString(t), "10.0.0.1:1234>10.0.0.2:80/6");
}

TEST(TypesTest, PathToString) {
  EXPECT_EQ(PathToString({1, 2, 3}), "S1->S2->S3");
  EXPECT_EQ(PathToString({}), "");
}

TEST(TypesTest, FiveTupleEqualityAndHash) {
  FiveTuple a{1, 2, 3, 4, 6};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(FiveTupleHash{}(a), FiveTupleHash{}(b));
  b.src_port = 5;
  EXPECT_NE(a, b);
}

TEST(TypesTest, HashDistinguishesPortSwap) {
  FiveTuple a{1, 2, 30, 40, 6};
  FiveTuple b{1, 2, 40, 30, 6};
  EXPECT_NE(FiveTupleHash{}(a), FiveTupleHash{}(b));
}

TEST(TypesTest, TimeRangeSemantics) {
  TimeRange r{100, 200};
  EXPECT_TRUE(r.Contains(100));
  EXPECT_TRUE(r.Contains(199));
  EXPECT_FALSE(r.Contains(200));
  EXPECT_TRUE(r.Overlaps(150, 300));
  EXPECT_TRUE(r.Overlaps(0, 100));    // closed record end touching begin
  EXPECT_FALSE(r.Overlaps(200, 300)); // starts at exclusive end
  EXPECT_TRUE(TimeRange::All().Contains(0));
  EXPECT_TRUE(TimeRange::Since(50).Contains(50));
  EXPECT_FALSE(TimeRange::Since(50).Contains(49));
}

TEST(TypesTest, LinkIdOrderingAndHash) {
  LinkId a{1, 2};
  LinkId b{2, 1};
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_NE(LinkIdHash{}(a), LinkIdHash{}(b));
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentStreamsDiffer) {
  Rng a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.NextU32() == b.NextU32() ? 1 : 0;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.UniformInt(17), 17u);
  }
}

TEST(RngTest, Uniform01Range) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.Uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += r.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(double(hits) / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    sum += r.Exponential(5.0);
  }
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.25);
}

TEST(RngTest, BinomialSmallNExact) {
  Rng r(17);
  Summary s;
  for (int i = 0; i < 5000; ++i) {
    s.Add(double(r.Binomial(20, 0.25)));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.25);
}

TEST(RngTest, BinomialLargeNApproximation) {
  Rng r(19);
  Summary s;
  for (int i = 0; i < 3000; ++i) {
    s.Add(double(r.Binomial(10000, 0.01)));
  }
  EXPECT_NEAR(s.mean(), 100.0, 3.0);
}

TEST(RngTest, BinomialEdgeCases) {
  Rng r(23);
  EXPECT_EQ(r.Binomial(100, 0.0), 0u);
  EXPECT_EQ(r.Binomial(100, 1.0), 100u);
  EXPECT_EQ(r.Binomial(0, 0.5), 0u);
}

TEST(StatsTest, SummaryBasics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
  EXPECT_NEAR(s.stderror(), 0.645497, 1e-4);
}

TEST(StatsTest, EmptySummaryIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, CdfQuantiles) {
  Cdf c;
  for (int i = 1; i <= 100; ++i) {
    c.Add(double(i));
  }
  EXPECT_NEAR(c.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(c.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(c.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(c.FractionBelow(50.0), 0.5, 0.01);
  EXPECT_EQ(c.Points(5).size(), 5u);
}

TEST(StatsTest, HistogramBinning) {
  Histogram h(10.0);
  h.Add(5);
  h.Add(15);
  h.Add(15);
  h.Add(25, 3);
  EXPECT_EQ(h.bins().at(0), 1);
  EXPECT_EQ(h.bins().at(1), 2);
  EXPECT_EQ(h.bins().at(2), 3);
  EXPECT_EQ(h.total(), 6);
}

TEST(StatsTest, ImbalanceRate) {
  // Perfectly balanced -> 0%.
  EXPECT_DOUBLE_EQ(ImbalanceRatePercent({10, 10}), 0.0);
  // One link twice the mean: loads {30, 10}: mean 20, max 30 -> 50%.
  EXPECT_DOUBLE_EQ(ImbalanceRatePercent({30, 10}), 50.0);
  EXPECT_DOUBLE_EQ(ImbalanceRatePercent({}), 0.0);
  EXPECT_DOUBLE_EQ(ImbalanceRatePercent({0, 0}), 0.0);
}

TEST(HashTest, MixAvalanche) {
  // Neighboring inputs should produce wildly different outputs.
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) {
    outs.insert(HashMix64(i));
  }
  EXPECT_EQ(outs.size(), 1000u);
}

}  // namespace
}  // namespace pathdump

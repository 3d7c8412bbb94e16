// Tests for the utility layer: Status/Result, varint codec, serde
// buffers, RNG determinism, statistics and the interval wire format.
#include <gtest/gtest.h>

#include "icm/message.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/varint.h"

namespace graphite {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  const Status s = Status::ConstraintViolation("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(s.ToString(), "ConstraintViolation: boom");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(VarintTest, RoundTripBoundaries) {
  const uint64_t cases[] = {0,     1,     127,
                            128,   16383, 16384,
                            (1ull << 32) - 1, 1ull << 62,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
    size_t pos = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(buf, &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncatedInputRejected) {
  std::string buf;
  PutVarint64(&buf, 300);
  buf.pop_back();
  size_t pos = 0;
  uint64_t out;
  EXPECT_FALSE(GetVarint64(buf, &pos, &out));
}

TEST(VarintTest, ZigZagSigned) {
  const int64_t cases[] = {0,  -1, 1, -64, 64,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
    std::string buf;
    PutVarint64Signed(&buf, v);
    size_t pos = 0;
    int64_t out = 0;
    ASSERT_TRUE(GetVarint64Signed(buf, &pos, &out));
    EXPECT_EQ(out, v);
  }
  // Small magnitudes must stay small on the wire.
  std::string buf;
  PutVarint64Signed(&buf, -3);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(SerdeTest, WriterReaderRoundTrip) {
  Writer w;
  w.WriteU64(12345);
  w.WriteI64(-987);
  w.WriteByte(7);
  w.WriteI64Vec({1, -2, 3});
  Reader r(w.buffer());
  EXPECT_EQ(r.ReadU64(), 12345u);
  EXPECT_EQ(r.ReadI64(), -987);
  EXPECT_EQ(r.ReadByte(), 7);
  EXPECT_EQ(r.ReadI64Vec(), (std::vector<int64_t>{1, -2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(IntervalCodecTest, RoundTripAllShapes) {
  Writer w;
  const Interval cases[] = {
      Interval(3, 9),          Interval(5, 6),
      Interval(7, kTimeMax),   Interval(kTimeMin, 4),
      Interval(kTimeMin, kTimeMax), Interval(-100, 100),
      Interval(0, 1)};
  for (const Interval& iv : cases) WriteInterval(w, iv);
  Reader r(w.buffer());
  for (const Interval& iv : cases) {
    EXPECT_EQ(ReadInterval(r), iv);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(IntervalCodecTest, CompactShapesBeatFixedWidth) {
  // §VI: unit-length and open-ended intervals carry one endpoint + flag;
  // small generic intervals varint-compress. All beat the 16-byte fixed
  // representation the paper's 59-78% reduction is against.
  EXPECT_LE(IntervalWireSize(Interval(5, 6)), 3u);
  EXPECT_LE(IntervalWireSize(Interval(9, kTimeMax)), 3u);
  EXPECT_LE(IntervalWireSize(Interval(kTimeMin, 9)), 3u);
  EXPECT_LT(IntervalWireSize(Interval(100, 200)), kFixedIntervalWireSize);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LT(v, 5);
  }
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(7);
  int low = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(1000, 0.9) < 100) ++low;
  }
  // With alpha 0.9, far more than 10% of mass lands in the first decile.
  EXPECT_GT(low, kDraws / 4);
}

TEST(StatsTest, MeanAndGeoMean) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(GeoMean({4, 1}), 2.0);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(StatsTest, LinearFitPerfectLine) {
  const LinearFit fit = FitLinear({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(StatsTest, LinearFitNoise) {
  const LinearFit fit = FitLinear({1, 2, 3, 4}, {2, 1, 2, 1});
  EXPECT_LT(fit.r2, 0.5);
}

TEST(StatsTest, TextTableAligns) {
  TextTable t;
  t.AddRow({"name", "value"});
  t.AddRow({"x", "12345"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(StatsTest, FormatCountSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-1234), "-1,234");
}

}  // namespace
}  // namespace graphite

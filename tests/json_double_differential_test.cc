// Differential test for JsonWriter::Double: the one-pass std::to_chars
// formatter must write exactly the bytes of the snprintf/sscanf search it
// replaced (kept below as RefDouble, the reference only) — the shortest
// "%.Pg" that parses back to the same double, plus ".0" on integral
// tokens. Seeded draws cover random bit patterns, uniforms in [0, 1),
// decimal grids from 1e-30 to 1e30, +-0, subnormals and integral values;
// every normal power of two of either sign is checked too.
//
// Tier-1 runs a few thousand values per class. GRAPHITE_DIFFERENTIAL_TRIALS
// multiplies the count (tools/ci.sh runs a large one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "util/json.h"
#include "util/rng.h"

namespace graphite {
namespace {

int Trials() {
  const char* env = std::getenv("GRAPHITE_DIFFERENTIAL_TRIALS");
  const int n = env != nullptr ? std::atoi(env) : 0;
  return n > 0 ? n : 1;
}

// The old writer: "%.17g", then the first precision 1..16 whose text
// scans back to the value.
std::string RefDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  double parsed = 0;
  std::sscanf(buf, "%lf", &parsed);
  if (parsed == value) {
    for (int prec = 1; prec < 17; ++prec) {
      char probe[40];
      std::snprintf(probe, sizeof(probe), "%.*g", prec, value);
      std::sscanf(probe, "%lf", &parsed);
      if (parsed == value) {
        std::memcpy(buf, probe, sizeof(probe));
        break;
      }
    }
  }
  std::string out(buf);
  if (out.find_first_of(".eEn") == std::string::npos) out.append(".0");
  return out;
}

std::string Written(double value) {
  JsonWriter w;
  w.Double(value);
  return w.str();
}

::testing::AssertionResult SameBytes(double value) {
  const std::string got = Written(value);
  const std::string want = RefDouble(value);
  if (got == want) return ::testing::AssertionSuccess();
  char bits[32];
  uint64_t raw = 0;
  std::memcpy(&raw, &value, sizeof(raw));
  std::snprintf(bits, sizeof(bits), "0x%016llx",
                static_cast<unsigned long long>(raw));
  return ::testing::AssertionFailure()
         << "bits " << bits << ": wrote " << got << ", reference " << want;
}

double FromBits(uint64_t raw) {
  double d = 0;
  std::memcpy(&d, &raw, sizeof(d));
  return d;
}

int Count(int base) { return base * Trials(); }

TEST(JsonDoubleDifferentialTest, RandomBitPatterns) {
  Rng rng(11);
  for (int i = 0; i < Count(4000); ++i) {
    ASSERT_TRUE(SameBytes(FromBits(rng.Next())));
  }
}

TEST(JsonDoubleDifferentialTest, UniformsInUnitInterval) {
  Rng rng(12);
  for (int i = 0; i < Count(4000); ++i) {
    ASSERT_TRUE(SameBytes(rng.NextDouble()));
  }
}

TEST(JsonDoubleDifferentialTest, DecimalGrids) {
  // k * 10^e for e in [-30, 30]: the nearest double to each short decimal,
  // the values hand-written data and rounded ratios produce.
  const int step = std::max(1, 40 / Trials());
  for (int e = -30; e <= 30; ++e) {
    for (int k = 1; k < 1000; k += step) {
      char text[32];
      std::snprintf(text, sizeof(text), "%de%d", k, e);
      const double d = std::strtod(text, nullptr);
      ASSERT_TRUE(SameBytes(d)) << text;
      ASSERT_TRUE(SameBytes(-d)) << text;
    }
  }
}

TEST(JsonDoubleDifferentialTest, ZerosAndSubnormals) {
  ASSERT_TRUE(SameBytes(0.0));
  ASSERT_TRUE(SameBytes(-0.0));
  EXPECT_EQ(Written(0.0), "0.0");
  EXPECT_EQ(Written(-0.0), "-0.0");
  ASSERT_TRUE(SameBytes(std::numeric_limits<double>::denorm_min()));
  ASSERT_TRUE(SameBytes(std::numeric_limits<double>::min()));
  ASSERT_TRUE(SameBytes(std::numeric_limits<double>::max()));
  ASSERT_TRUE(SameBytes(std::numeric_limits<double>::lowest()));
  Rng rng(13);
  for (int i = 0; i < Count(2000); ++i) {
    // Exponent bits zero: a subnormal of either sign.
    const uint64_t raw = rng.Next() & 0x800fffffffffffffULL;
    ASSERT_TRUE(SameBytes(FromBits(raw)));
  }
}

TEST(JsonDoubleDifferentialTest, IntegralValues) {
  Rng rng(14);
  for (int i = 0; i < Count(2000); ++i) {
    const int64_t k = rng.UniformRange(-1000000, 1000000);
    ASSERT_TRUE(SameBytes(static_cast<double>(k)));
  }
  // Around the %g switch to exponent form and the 2^53 integer limit.
  for (int e = 0; e <= 22; ++e) {
    const double p = std::pow(10.0, e);
    ASSERT_TRUE(SameBytes(p));
    ASSERT_TRUE(SameBytes(p + 1));
    ASSERT_TRUE(SameBytes(p - 1));
  }
  ASSERT_TRUE(SameBytes(9007199254740992.0));
  ASSERT_TRUE(SameBytes(9007199254740993.0));
  EXPECT_EQ(Written(3.0), "3.0");
  EXPECT_EQ(Written(1e21), "1e+21");
}

TEST(JsonDoubleDifferentialTest, PowersOfTwo) {
  // The round-trip interval below 2^e is half as wide as the one above, so
  // the correctly rounded shortest-length text can parse to the
  // predecessor; random bit patterns almost never land here.
  for (int e = -1022; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    ASSERT_TRUE(SameBytes(p)) << "2^" << e;
    ASSERT_TRUE(SameBytes(-p)) << "-2^" << e;
  }
  // Shortest text 5.684341886080802e-14; "%.16g" parses to the predecessor.
  EXPECT_EQ(Written(std::ldexp(1.0, -44)), "5.6843418860808015e-14");
}

TEST(JsonDoubleDifferentialTest, NonFiniteStaysNull) {
  EXPECT_EQ(Written(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(Written(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Written(-std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace graphite

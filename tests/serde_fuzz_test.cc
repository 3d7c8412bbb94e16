// Property/fuzz tests for the serialization stack under the checkpoint
// subsystem: varint round-trips across the full magnitude range, the
// Status-returning Try* reads on truncated and malformed buffers (these
// feed checkpoint frame decoding), and the Writer::Clear high-water-mark
// capacity decay. Deterministic seeds — a failure reproduces exactly.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "util/json.h"
#include "util/serde.h"
#include "util/varint.h"

namespace graphite {
namespace {

// Values spanning every varint length, plus random fills per magnitude.
std::vector<uint64_t> FuzzValues(uint64_t seed, int per_magnitude) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  uint64_t{1} << 32, ~uint64_t{0}};
  for (int bits = 1; bits <= 64; ++bits) {
    for (int i = 0; i < per_magnitude; ++i) {
      const uint64_t hi = bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
      values.push_back(rng() & hi);
    }
  }
  return values;
}

TEST(VarintFuzzTest, RoundTripsEveryMagnitude) {
  for (const uint64_t v : FuzzValues(11, 8)) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_LE(buf.size(), 10u);
    size_t pos = 0;
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(buf, &pos, &got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_EQ(pos, buf.size()) << v;

    const int64_t sv = static_cast<int64_t>(v);
    std::string sbuf;
    PutVarint64Signed(&sbuf, sv);
    pos = 0;
    int64_t sgot = 0;
    ASSERT_TRUE(GetVarint64Signed(sbuf, &pos, &sgot)) << sv;
    EXPECT_EQ(sgot, sv);
  }
}

// Every strict prefix of an encoded varint must be rejected, and the
// failed GetVarint64 must leave the cursor untouched (the byte-offset
// errors of the Try* reads depend on that).
TEST(VarintFuzzTest, TruncationRejectedWithoutCursorMovement) {
  for (const uint64_t v : FuzzValues(13, 4)) {
    std::string buf;
    PutVarint64(&buf, v);
    for (size_t keep = 0; keep < buf.size(); ++keep) {
      const std::string cut = buf.substr(0, keep);
      size_t pos = 0;
      uint64_t got = 0;
      EXPECT_FALSE(GetVarint64(cut, &pos, &got)) << v << " keep=" << keep;
      EXPECT_EQ(pos, 0u) << v << " keep=" << keep;
    }
  }
}

// A record mixing every Writer field type, round-tripped through the
// Status-returning reads.
TEST(SerdeFuzzTest, TryReadsRoundTripRandomRecords) {
  std::mt19937_64 rng(17);
  for (int round = 0; round < 200; ++round) {
    const uint64_t a = rng();
    const int64_t b = static_cast<int64_t>(rng());

    Writer w;
    w.WriteU64(a);
    w.WriteI64(b);
    const std::string bytes = w.Release();

    Reader r(bytes);
    uint64_t ga = 0;
    int64_t gb = 0;
    ASSERT_TRUE(r.TryReadU64(&ga).ok());
    ASSERT_TRUE(r.TryReadI64(&gb).ok());
    EXPECT_EQ(ga, a);
    EXPECT_EQ(gb, b);
    EXPECT_TRUE(r.AtEnd());

    // Replay against every truncation: must terminate with a DataLoss
    // whose offset is inside the buffer — never an abort, never success.
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      const std::string cut = bytes.substr(0, keep);
      Reader tr(cut);
      Status st = tr.TryReadU64(&ga);
      if (st.ok()) st = tr.TryReadI64(&gb);
      ASSERT_FALSE(st.ok()) << "round " << round << " keep=" << keep;
      EXPECT_EQ(st.code(), StatusCode::kDataLoss);
      EXPECT_LE(tr.position(), cut.size());
    }
  }
}

// Random frames through the checkpoint frame codec: round-trip plus
// random mutations, which must never abort the process (DataLoss or a
// well-formed — possibly different — frame are both acceptable).
TEST(SerdeFuzzTest, CheckpointFrameFuzz) {
  std::mt19937_64 rng(31);
  for (int round = 0; round < 100; ++round) {
    CheckpointFrame frame;
    frame.superstep = static_cast<int>(rng() % 1000);
    frame.num_units = rng() % 100000;
    frame.counters = {static_cast<int64_t>(rng() % 1000),
                      static_cast<int64_t>(rng()),
                      static_cast<int64_t>(rng() % 977),
                      static_cast<int64_t>(rng() % 10007),
                      static_cast<int64_t>(rng() % 1000003),
                      static_cast<int64_t>(rng() % 13),
                      static_cast<int64_t>(rng() % 7)};
    frame.sections.resize(rng() % 9);
    for (std::string& s : frame.sections) {
      s.resize(rng() % 120);
      for (char& ch : s) ch = static_cast<char>(rng());
    }

    const std::string bytes = EncodeFrame(frame);
    const auto got = DecodeFrame(bytes);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().sections, frame.sections);
    EXPECT_EQ(got.value().superstep, frame.superstep);

    std::string mutated = bytes;
    if (!mutated.empty()) {
      mutated[rng() % mutated.size()] ^= static_cast<char>(1 + rng() % 255);
      const auto damaged = DecodeFrame(mutated);  // must not abort
      if (!damaged.ok()) {
        EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss);
      }
    }
  }
}

// --- ParseJson fuzzing (ISSUE 9) -------------------------------------
//
// The JSON parser fronts the serving protocol: every byte a client sends
// reaches ParseJson before anything else. These sections feed it random
// garbage and mutated valid documents; the contract is that it returns a
// Status — it must never abort, crash, or read out of bounds (the latter
// enforced by running this suite under the asan/ubsan presets).

// A random JSON document tree with bounded depth/fanout. Deterministic
// per seed so failures reproduce.
JsonValue RandomJsonValue(std::mt19937_64& rng, int depth) {
  const int pick = static_cast<int>(rng() % (depth > 0 ? 7 : 5));
  switch (pick) {
    case 0:
      return JsonValue();  // null
    case 1:
      return JsonValue::MakeBool(rng() % 2 != 0);
    case 2:
      return JsonValue::MakeInt(static_cast<int64_t>(rng()));
    case 3:
      // Finite doubles only: NaN/Inf are not representable in JSON.
      return JsonValue::MakeDouble(
          static_cast<double>(static_cast<int64_t>(rng() % 1000000)) / 64.0);
    case 4: {
      std::string s(rng() % 24, '\0');
      for (char& ch : s) {
        // Mix printable ASCII with escapes and raw control bytes.
        const int c = static_cast<int>(rng() % 130);
        ch = static_cast<char>(c < 2 ? '"' : (c < 4 ? '\\' : c));
      }
      return JsonValue::MakeString(std::move(s));
    }
    case 5: {
      JsonValue arr = JsonValue::MakeArray();
      const int n = static_cast<int>(rng() % 5);
      for (int i = 0; i < n; ++i) arr.Push(RandomJsonValue(rng, depth - 1));
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::MakeObject();
      const int n = static_cast<int>(rng() % 5);
      for (int i = 0; i < n; ++i) {
        obj.Add("k" + std::to_string(i), RandomJsonValue(rng, depth - 1));
      }
      return obj;
    }
  }
}

std::string Serialize(const JsonValue& v) {
  JsonWriter w;
  v.WriteTo(&w);
  return w.Take();
}

// Pure random bytes: overwhelmingly invalid JSON, occasionally valid
// fragments ("1", "[]"). Either way ParseJson must return, not abort.
TEST(JsonFuzzTest, RandomBytesNeverAbort) {
  std::mt19937_64 rng(37);
  for (int round = 0; round < 2000; ++round) {
    std::string doc(rng() % 64, '\0');
    const bool ascii_heavy = round % 2 == 0;
    for (char& ch : doc) {
      ch = ascii_heavy
               ? static_cast<char>("{}[]:,\"\\truefalsn0123456789.eE+- "
                                   [rng() % 33])
               : static_cast<char>(rng());
    }
    const auto parsed = ParseJson(doc);
    if (parsed.ok()) {
      // Whatever it accepted must re-serialize to parseable JSON.
      const auto again = ParseJson(Serialize(parsed.value()));
      EXPECT_TRUE(again.ok()) << "round " << round << " doc=" << doc;
    }
  }
}

// Valid documents with random single-byte mutations (flips, inserts,
// truncations). Accept-or-reject is fine; aborting is not, and anything
// accepted must survive a serialize→parse round trip.
TEST(JsonFuzzTest, MutatedValidDocumentsNeverAbort) {
  std::mt19937_64 rng(41);
  for (int round = 0; round < 500; ++round) {
    std::string doc = Serialize(RandomJsonValue(rng, 3));
    const int mutation = static_cast<int>(rng() % 3);
    if (doc.empty()) continue;
    if (mutation == 0) {
      doc[rng() % doc.size()] ^= static_cast<char>(1 + rng() % 255);
    } else if (mutation == 1) {
      doc.insert(rng() % doc.size(),
                 1, static_cast<char>("{}[]:,\"0"[rng() % 8]));
    } else {
      doc.resize(rng() % doc.size());
    }
    const auto damaged = ParseJson(doc);
    if (damaged.ok()) {
      EXPECT_TRUE(ParseJson(Serialize(damaged.value())).ok())
          << "round " << round << " doc=" << doc;
    }
  }
}

// Writer → parser → writer round trip: the two serializations must be
// byte-identical, which pins escaping, number formatting, and member
// order preservation all at once.
TEST(JsonFuzzTest, WriterParserRoundTripIsByteStable) {
  std::mt19937_64 rng(43);
  for (int round = 0; round < 300; ++round) {
    const JsonValue original = RandomJsonValue(rng, 4);
    const std::string first = Serialize(original);
    const auto reparsed = ParseJson(first);
    ASSERT_TRUE(reparsed.ok())
        << "round " << round << ": " << reparsed.status().ToString()
        << " doc=" << first;
    EXPECT_EQ(Serialize(reparsed.value()), first) << "round " << round;
  }
}

// Deep nesting must be rejected with an error (or parsed, for shallow
// cases) — never a stack overflow. 100k brackets would blow the stack
// if the parser recursed unboundedly.
TEST(JsonFuzzTest, PathologicalNestingDoesNotOverflow) {
  for (const char* pair : {"[", "{\"k\":"}) {
    std::string doc;
    for (int i = 0; i < 100000; ++i) doc += pair;
    const auto parsed = ParseJson(doc);
    EXPECT_FALSE(parsed.ok());
  }
}

// Writer::Clear decays its retained capacity: one pathological superstep
// must not pin megabytes for the rest of a long run.
TEST(WriterClearTest, HighWaterMarkDecayShrinksCapacity) {
  Writer w;
  const std::string big(1 << 20, 'x');
  w.Append(big);
  w.Clear();
  const size_t peak = w.buffer().capacity();
  EXPECT_GE(peak, big.size());

  // A long tail of small supersteps: the decaying high-water mark drops
  // 1/8 per Clear, so capacity must come back down within ~a hundred.
  for (int i = 0; i < 150; ++i) {
    w.WriteU64(123456);
    w.Clear();
  }
  EXPECT_LT(w.buffer().capacity(), size_t{1} << 16)
      << "capacity pinned at " << w.buffer().capacity();

  // A new burst re-raises it instantly and the buffer still works.
  w.Append(big);
  EXPECT_EQ(w.buffer(), big);
}

}  // namespace
}  // namespace graphite

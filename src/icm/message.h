// Interval-message wire format (paper §VI "Interval Messages"): every ICM
// message carries a time-interval. Since intervals dominate message size
// for small payloads, the codec writes variable-byte numbers and collapses
// unit-length intervals and intervals that span to +/-infinity to a single
// time-point plus a flag, saving the 8-byte second endpoint.
#ifndef GRAPHITE_ICM_MESSAGE_H_
#define GRAPHITE_ICM_MESSAGE_H_

#include "temporal/interval.h"
#include "util/serde.h"

namespace graphite {

namespace interval_codec {

// Wire flags. kGeneric carries both endpoints; the others carry one.
inline constexpr uint8_t kGeneric = 0;
inline constexpr uint8_t kUnit = 1;       // [t, t+1)
inline constexpr uint8_t kOpenEnd = 2;    // [t, +inf)
inline constexpr uint8_t kOpenStart = 3;  // [-inf, t)

}  // namespace interval_codec

/// Encodes `iv` compactly. The interval must be valid.
inline void WriteInterval(Writer& w, const Interval& iv) {
  GRAPHITE_CHECK(iv.IsValid());
  if (iv.IsUnit()) {
    w.WriteByte(interval_codec::kUnit);
    w.WriteI64(iv.start);
  } else if (iv.end == kTimeMax && iv.start != kTimeMin) {
    w.WriteByte(interval_codec::kOpenEnd);
    w.WriteI64(iv.start);
  } else if (iv.start == kTimeMin && iv.end != kTimeMax) {
    w.WriteByte(interval_codec::kOpenStart);
    w.WriteI64(iv.end);
  } else {
    w.WriteByte(interval_codec::kGeneric);
    // start may be kTimeMin (encode via flag value 1 in the length slot);
    // full [-inf, inf) is rare and encoded with explicit sentinels.
    w.WriteI64(iv.start == kTimeMin ? 0 : iv.start);
    w.WriteByte(iv.start == kTimeMin ? 1 : 0);
    w.WriteI64(iv.end == kTimeMax ? 0 : iv.end - (iv.start == kTimeMin ? 0 : iv.start));
    w.WriteByte(iv.end == kTimeMax ? 1 : 0);
  }
}

/// Decodes an interval written by WriteInterval.
inline Interval ReadInterval(Reader& r) {
  const uint8_t flag = r.ReadByte();
  switch (flag) {
    case interval_codec::kUnit: {
      const TimePoint t = r.ReadI64();
      return Interval(t, t + 1);
    }
    case interval_codec::kOpenEnd: {
      const TimePoint t = r.ReadI64();
      return Interval(t, kTimeMax);
    }
    case interval_codec::kOpenStart: {
      const TimePoint t = r.ReadI64();
      return Interval(kTimeMin, t);
    }
    case interval_codec::kGeneric: {
      const TimePoint start_raw = r.ReadI64();
      const bool start_inf = r.ReadByte() != 0;
      const TimePoint len_raw = r.ReadI64();
      const bool end_inf = r.ReadByte() != 0;
      const TimePoint start = start_inf ? kTimeMin : start_raw;
      const TimePoint end =
          end_inf ? kTimeMax : (start_inf ? len_raw : start_raw + len_raw);
      return Interval(start, end);
    }
    default:
      GRAPHITE_CHECK(false);
      return Interval::Empty();
  }
}

/// Bytes WriteInterval would emit, without writing.
inline size_t IntervalWireSize(const Interval& iv) {
  Writer w;
  WriteInterval(w, iv);
  return w.size();
}

/// Fixed-width (non-varint, no flags) interval size: the 16-byte baseline
/// the paper's 59-78% size-reduction claim is measured against.
inline constexpr size_t kFixedIntervalWireSize = 16;

}  // namespace graphite

#endif  // GRAPHITE_ICM_MESSAGE_H_

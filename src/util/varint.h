// Variable-byte integer codec used for interval messages (paper §VI:
// "we use variable byte-length numbers to represent them, and observe that
// the overall message sizes drop by 59-78%").
//
// Unsigned values use LEB128; signed values are zig-zag mapped first.
#ifndef GRAPHITE_UTIL_VARINT_H_
#define GRAPHITE_UTIL_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace graphite {

/// Appends `value` to `out` as LEB128 (7 bits per byte, MSB = continuation).
void PutVarint64(std::string* out, uint64_t value);

/// Decodes a varint from [*pos, buf.size()). Advances *pos past the varint.
/// Returns false on truncated input or overlong (>10 byte) encodings.
/// Takes a view so callers can decode a slice of a larger buffer without
/// copying.
bool GetVarint64(std::string_view buf, size_t* pos, uint64_t* value);

/// Zig-zag maps a signed value so small magnitudes encode compactly.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/// Inverse of ZigZagEncode.
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Appends a zig-zag varint.
inline void PutVarint64Signed(std::string* out, int64_t value) {
  PutVarint64(out, ZigZagEncode(value));
}

/// Decodes a zig-zag varint.
inline bool GetVarint64Signed(std::string_view buf, size_t* pos,
                              int64_t* value) {
  uint64_t raw = 0;
  if (!GetVarint64(buf, pos, &raw)) return false;
  *value = ZigZagDecode(raw);
  return true;
}

/// Number of bytes PutVarint64 would emit for `value`.
size_t VarintLength(uint64_t value);

}  // namespace graphite

#endif  // GRAPHITE_UTIL_VARINT_H_

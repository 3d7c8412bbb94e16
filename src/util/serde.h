// Lightweight byte-buffer writer/reader used to serialize messages that
// cross worker boundaries in the BSP engine. Cross-worker traffic passes
// through this codec so message-byte metrics reflect real wire sizes.
#ifndef GRAPHITE_UTIL_SERDE_H_
#define GRAPHITE_UTIL_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/buffer_tuning.h"
#include "util/status.h"
#include "util/varint.h"

namespace graphite {

/// Append-only encoder over a std::string buffer.
class Writer {
 public:
  /// Appends an unsigned varint.
  void WriteU64(uint64_t v) { PutVarint64(&buf_, v); }
  /// Appends a zig-zag signed varint.
  void WriteI64(int64_t v) { PutVarint64Signed(&buf_, v); }
  /// Appends a single raw byte.
  void WriteByte(uint8_t b) { buf_.push_back(static_cast<char>(b)); }
  /// Appends raw bytes with NO length prefix, for payloads that are
  /// already self-describing (Chlonos copies pre-encoded messages).
  void Append(std::string_view s) { buf_.append(s); }
  /// Appends a length-prefixed vector of signed varints.
  void WriteI64Vec(const std::vector<int64_t>& v) {
    WriteU64(v.size());
    for (int64_t x : v) WriteI64(x);
  }

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  /// Empties the buffer but keeps (most of) its capacity — the engines
  /// drain and refill wire buffers every superstep, so reuse beats
  /// Release() + reconstruct (which reallocates from scratch each time).
  /// Capacity is bounded by a decaying high-water mark (the shared
  /// BufferTuning knob, also used by the superstep arenas): one
  /// pathologically large superstep no longer pins its peak allocation for
  /// the rest of a long run — once recent fills stay small, the buffer
  /// shrinks back.
  void Clear() {
    high_water_ = BufferTuning::Decay(high_water_, buf_.size());
    buf_.clear();
    if (BufferTuning::ShouldShrink(buf_.capacity(), high_water_)) {
      buf_.shrink_to_fit();
      buf_.reserve(high_water_);
    }
  }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
  size_t high_water_ = 0;  // Decaying peak of recent fill sizes.
};

/// Sequential decoder over a byte buffer. All reads abort on malformed
/// input via GRAPHITE_CHECK: buffers are produced by Writer in-process, so
/// corruption indicates an engine bug, not bad user data.
class Reader {
 public:
  /// Accepts any contiguous byte range (std::string converts implicitly).
  /// The bytes must outlive the Reader — DeliveryPlane::Route decodes
  /// straight from a wire row and clears it only afterwards.
  explicit Reader(std::string_view buf) : buf_(buf) {}

  uint64_t ReadU64() {
    uint64_t v = 0;
    GRAPHITE_CHECK(GetVarint64(buf_, &pos_, &v));
    return v;
  }
  int64_t ReadI64() {
    int64_t v = 0;
    GRAPHITE_CHECK(GetVarint64Signed(buf_, &pos_, &v));
    return v;
  }
  uint8_t ReadByte() {
    GRAPHITE_CHECK(pos_ < buf_.size());
    return static_cast<uint8_t>(buf_[pos_++]);
  }
  std::vector<int64_t> ReadI64Vec() {
    uint64_t n = ReadU64();
    std::vector<int64_t> out;
    out.reserve(n);
    for (uint64_t i = 0; i < n; ++i) out.push_back(ReadI64());
    return out;
  }

  // Status-returning reads for untrusted at-rest bytes (checkpoint
  // frames): a truncated or malformed buffer yields a DataLoss error
  // carrying the byte offset instead of aborting the process. On failure
  // the cursor stays at the failed field, so the offset in the message
  // points at it.
  Status TryReadU64(uint64_t* v) {
    if (!GetVarint64(buf_, &pos_, v)) return CorruptAt("varint");
    return Status::OK();
  }
  Status TryReadI64(int64_t* v) {
    if (!GetVarint64Signed(buf_, &pos_, v)) return CorruptAt("varint");
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t position() const { return pos_; }

 private:
  Status CorruptAt(const char* what) const {
    return Status::DataLoss("truncated or malformed " + std::string(what) +
                            " at byte " + std::to_string(pos_) + " of " +
                            std::to_string(buf_.size()));
  }

  std::string_view buf_;
  size_t pos_ = 0;
};

}  // namespace graphite

#endif  // GRAPHITE_UTIL_SERDE_H_

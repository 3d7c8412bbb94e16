// Durable home of superstep checkpoints: one file per checkpoint in a
// flat directory, each wrapped in a versioned, CRC-32-checksummed envelope:
//
//   magic "GCK1" | u8 version | varint crc32(payload) | payload
//
// Files are named ckpt-<superstep, 8 digits>.gck and committed by writing
// to a .tmp sibling and rename(2)-ing into place, so a crash mid-write can
// never leave a half-written file under a valid name — readers either see
// the complete envelope or no file at all. The store retains the last K
// checkpoints; recovery walks them newest-first and the checksum decides
// which one is trusted (LoadLatestValid), which is exactly the fallback a
// corrupted or truncated latest checkpoint needs.
#ifndef GRAPHITE_CKPT_CHECKPOINT_STORE_H_
#define GRAPHITE_CKPT_CHECKPOINT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace graphite {

/// CRC-32 (ISO-HDLC polynomial, the zlib/PNG crc32) over
/// bytes[offset, size). Table-driven, no dependencies.
uint32_t Crc32(const std::string& bytes, size_t offset = 0);

/// A validated checkpoint: the superstep it resumes at (from the file
/// name; the frame payload repeats it) plus the raw frame payload.
struct CheckpointBlob {
  int superstep = 0;
  std::string payload;
};

class CheckpointStore {
 public:
  /// `dir` is created if absent. `retain` bounds how many committed
  /// checkpoints are kept; older ones are deleted after each commit.
  explicit CheckpointStore(std::string dir, int retain = 2);

  const std::string& dir() const { return dir_; }
  int retain() const { return retain_; }

  /// Atomically commits `payload` as the checkpoint for `superstep`
  /// (write tmp, rename, prune to `retain`). Re-committing a superstep
  /// replaces it.
  Status Commit(int superstep, const std::string& payload);

  /// Supersteps of the committed checkpoints, ascending. Unreadable or
  /// foreign files in the directory are ignored.
  std::vector<int> ListCheckpoints() const;

  /// File path a checkpoint for `superstep` lives at (exposed for the
  /// fault injector and tooling; the file need not exist).
  std::string PathFor(int superstep) const;

  /// Loads and validates one checkpoint: magic, version and CRC must all
  /// match or the result is a DataLoss/NotFound error.
  Result<CheckpointBlob> Load(int superstep) const;

  /// Newest checkpoint that validates. Corrupt ones are skipped (the
  /// checksum is the arbiter) and older snapshots tried in turn; NotFound
  /// when none survives.
  Result<CheckpointBlob> LoadLatestValid() const;

  /// Deletes the checkpoint file for `superstep` if present.
  Status Remove(int superstep);

  /// Envelope size of the most recent Commit (payload + header), for
  /// metrics.
  int64_t last_commit_bytes() const { return last_commit_bytes_; }

 private:
  std::string dir_;
  int retain_;
  int64_t last_commit_bytes_ = 0;
};

}  // namespace graphite

#endif  // GRAPHITE_CKPT_CHECKPOINT_STORE_H_

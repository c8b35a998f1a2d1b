// Segmented write-ahead log with CRC32C-framed records.
//
// On-media format (docs/STORAGE.md has the full spec):
//
//   segment file  wal-<index>.log   (index is a zero-padded decimal u64)
//   record frame  [u32 crc][u32 len][len payload bytes]
//
// Integers are little-endian (common/codec.h convention); `crc` is CRC32C
// over the len field and the payload, so a frame vouches for its own length.
// A segment is a concatenation of frames; the writer rolls to the next index
// once a segment reaches segment_bytes (a single over-sized record may make
// a segment exceed the limit — frames are never split across segments).
//
// Recovery scan (the torn-tail rule):
//   - every NON-final segment must parse completely; any damage is
//     Status::corruption — the log was synced past it, so a crash cannot
//     explain the damage and silently dropping data is not an option;
//   - the FINAL segment parses until the first bad frame at offset X, then
//     scans forward for any complete valid-CRC frame. Finding one means the
//     damage is mid-segment (corruption, fail loudly); finding none means X
//     starts a torn tail — exactly what an interrupted append leaves — and
//     the segment is truncated to X.
//
// sync() is the durability barrier and the unit the paper's evaluation
// prices: it forwards to the file only when unsynced appends exist, so N
// appends + one sync() is one fsync (group commit). roll() syncs the old
// segment before switching — otherwise a crash could tear a non-final
// segment, which recovery would correctly refuse to repair.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/env.h"

namespace zdc::storage {

struct WalOptions {
  /// Roll to a fresh segment once the current one reaches this size.
  std::uint64_t segment_bytes = 64 * 1024;
};

/// What the recovery scan found and did; tests assert on this.
struct WalRecoveryInfo {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t torn_bytes_dropped = 0;  ///< bytes truncated off the tail
  bool tail_truncated = false;
};

class Wal {
 public:
  /// Replay callback: called once per recovered record, in log order, with
  /// the segment the record lives in. A non-ok return aborts the open.
  using ReplayFn =
      std::function<Status(std::uint64_t segment, std::string_view payload)>;

  /// Opens (creating if needed) the log in `dir`, replays every durable
  /// record through `replay`, applies the torn-tail rule, and positions the
  /// writer at the tail. `min_segment` skips segments below it (the caller's
  /// snapshot already covers them — see durable_storage.h). `env` must
  /// outlive the returned Wal.
  [[nodiscard]] static Status open(Env& env, std::string dir,
                                   WalOptions options,
                                   std::uint64_t min_segment,
                                   const ReplayFn& replay,
                                   std::unique_ptr<Wal>* out,
                                   WalRecoveryInfo* info = nullptr);

  /// Appends one framed record (rolling first if the segment is full).
  /// Durable only after the next sync(). The record's payload is `payload`
  /// followed by `tail`: a caller whose record ends in a large buffer it
  /// already holds passes that buffer as `tail`, and the frame is built
  /// from it directly, with no concatenated copy in between.
  [[nodiscard]] Status append(std::string_view payload,
                              std::string_view tail = {});

  /// Durability barrier. No-op (and not counted) when nothing is unsynced.
  [[nodiscard]] Status sync();

  /// Syncs the current segment and switches the writer to the next index.
  [[nodiscard]] Status roll();

  /// Deletes every segment with index < `segment`. The caller must hold a
  /// durable snapshot covering them (wrong order loses data; see compact()).
  [[nodiscard]] Status drop_segments_below(std::uint64_t segment);

  [[nodiscard]] std::uint64_t current_segment() const { return segment_; }
  /// Number of fsyncs issued — the recovery-cost metric.
  [[nodiscard]] std::uint64_t syncs() const { return syncs_; }
  /// Total framed bytes appended since open (compaction-trigger input).
  [[nodiscard]] std::uint64_t appended_bytes() const { return appended_bytes_; }
  [[nodiscard]] bool dirty() const { return dirty_; }

  /// "wal-<zero-padded index>.log" / its inverse (false if not a segment).
  static std::string segment_name(std::uint64_t index);
  static bool parse_segment_name(const std::string& name, std::uint64_t* index);

  /// Frames `payload` + `tail` exactly as append() writes it (snapshot
  /// files reuse the frame so they are self-checking too).
  static std::string encode_frame(std::string_view payload,
                                  std::string_view tail = {});

  /// Parses the frame at `pos`. On success advances `*next_pos` past it and
  /// points `*payload` into `data`. Returns false on truncation or CRC
  /// mismatch — the scan's torn-tail logic decides what that means.
  static bool parse_frame(std::string_view data, std::uint64_t pos,
                          std::string_view* payload, std::uint64_t* next_pos);

 private:
  Wal(Env& env, std::string dir, WalOptions options) noexcept
      : env_(env), dir_(std::move(dir)), options_(options) {}

  /// Opens the writer on segment `segment_` (append mode).
  [[nodiscard]] Status open_writer(bool truncate);

  Env& env_;
  const std::string dir_;
  const WalOptions options_;

  std::uint64_t segment_ = 0;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t segment_size_ = 0;
  bool dirty_ = false;
  std::uint64_t syncs_ = 0;
  std::uint64_t appended_bytes_ = 0;
};

}  // namespace zdc::storage

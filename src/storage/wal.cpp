#include "storage/wal.h"

#include <algorithm>
#include <utility>

#include "common/codec.h"
#include "common/crc32.h"

namespace zdc::storage {

namespace {

constexpr std::uint64_t kFrameHeaderBytes = 8;  // u32 crc + u32 len
/// Upper bound a frame's length field may claim; anything larger is damage,
/// not a record (guards the scan against allocating for hostile lengths).
constexpr std::uint64_t kMaxRecordBytes = 1ull << 30;

std::uint32_t read_u32_le(std::string_view data, std::uint64_t pos) {
  common::Decoder dec(data.substr(pos, 4));
  return dec.get_u32();
}

}  // namespace

std::string Wal::segment_name(std::uint64_t index) {
  std::string digits = std::to_string(index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return "wal-" + digits + ".log";
}

bool Wal::parse_segment_name(const std::string& name, std::uint64_t* index) {
  if (name.rfind("wal-", 0) != 0) return false;
  const std::string suffix = ".log";
  if (name.size() < 4 + suffix.size() + 1) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = 4; i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *index = value;
  return true;
}

std::string Wal::encode_frame(std::string_view payload,
                              std::string_view tail) {
  const std::size_t len = payload.size() + tail.size();
  common::Encoder enc(kFrameHeaderBytes + len);
  enc.put_u32(0);  // crc placeholder, patched below
  enc.put_u32(static_cast<std::uint32_t>(len));
  enc.put_raw(payload);
  enc.put_raw(tail);
  std::string frame = enc.take();
  // CRC covers the len field and the payload, never the crc field itself.
  const std::uint32_t crc =
      common::crc32c(std::string_view(frame).substr(4, 4 + len));
  common::Encoder patch(4);
  patch.put_u32(crc);
  frame.replace(0, 4, patch.bytes());
  return frame;
}

bool Wal::parse_frame(std::string_view data, std::uint64_t pos,
                      std::string_view* payload, std::uint64_t* next_pos) {
  if (data.size() < pos || data.size() - pos < kFrameHeaderBytes) return false;
  const std::uint32_t crc = read_u32_le(data, pos);
  const std::uint64_t len = read_u32_le(data, pos + 4);
  if (len > kMaxRecordBytes) return false;
  if (data.size() - pos - kFrameHeaderBytes < len) return false;
  const std::string_view checked = data.substr(pos + 4, 4 + len);
  if (common::crc32c(checked) != crc) return false;
  *payload = data.substr(pos + kFrameHeaderBytes, len);
  *next_pos = pos + kFrameHeaderBytes + len;
  return true;
}

namespace {

/// True if any complete valid-CRC frame starts at or after `from` — the
/// disambiguator between a torn tail (nothing valid after the damage) and
/// mid-segment corruption (valid data follows the damage).
bool valid_frame_after(std::string_view data, std::uint64_t from) {
  for (std::uint64_t pos = from;
       pos + kFrameHeaderBytes <= data.size(); ++pos) {
    std::string_view payload;
    std::uint64_t next = 0;
    if (Wal::parse_frame(data, pos, &payload, &next)) return true;
  }
  return false;
}

}  // namespace

Status Wal::open(Env& env, std::string dir, WalOptions options,
                 std::uint64_t min_segment, const ReplayFn& replay,
                 std::unique_ptr<Wal>* out, WalRecoveryInfo* info) {
  WalRecoveryInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = WalRecoveryInfo{};

  Status s = env.create_dir(dir);
  if (!s.is_ok()) return s;

  std::vector<std::string> names;
  s = env.list_dir(dir, &names);
  if (!s.is_ok()) return s;

  std::vector<std::uint64_t> segments;
  for (const std::string& name : names) {
    std::uint64_t index = 0;
    if (!parse_segment_name(name, &index)) continue;
    if (index < min_segment) {
      // Covered by the caller's snapshot; a crash between snapshot-commit
      // and cleanup can leave these behind. Finish the cleanup now.
      s = env.remove_file(join_path(dir, name));
      if (!s.is_ok()) return s;
      continue;
    }
    segments.push_back(index);
  }
  std::sort(segments.begin(), segments.end());

  auto wal = std::unique_ptr<Wal>(new Wal(env, std::move(dir), options));

  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::uint64_t index = segments[i];
    const bool is_final = i + 1 == segments.size();
    const std::string path = join_path(wal->dir_, segment_name(index));
    std::string contents;
    s = env.read_file(path, &contents);
    if (!s.is_ok()) return s;
    ++info->segments_scanned;

    std::uint64_t pos = 0;
    while (pos < contents.size()) {
      std::string_view payload;
      std::uint64_t next = 0;
      if (parse_frame(contents, pos, &payload, &next)) {
        s = replay(index, payload);
        if (!s.is_ok()) return s;
        ++info->records_replayed;
        pos = next;
        continue;
      }
      // Damage at `pos`. The torn-tail rule (header comment) decides.
      if (!is_final) {
        return Status::corruption("bad frame in synced segment " + path +
                                  " at offset " + std::to_string(pos));
      }
      if (valid_frame_after(contents, pos + 1)) {
        return Status::corruption("bad frame with valid data after it in " +
                                  path + " at offset " + std::to_string(pos));
      }
      info->tail_truncated = true;
      info->torn_bytes_dropped = contents.size() - pos;
      s = env.truncate_file(path, pos);
      if (!s.is_ok()) return s;
      break;
    }
    if (is_final) {
      wal->segment_ = index;
      wal->segment_size_ = info->tail_truncated ? pos : contents.size();
    }
  }

  if (segments.empty()) {
    wal->segment_ = min_segment;
    wal->segment_size_ = 0;
    s = wal->open_writer(/*truncate=*/true);
  } else {
    s = wal->open_writer(/*truncate=*/false);
  }
  if (!s.is_ok()) return s;
  *out = std::move(wal);
  return Status::ok();
}

Status Wal::open_writer(bool truncate) {
  const std::string path = join_path(dir_, segment_name(segment_));
  return env_.new_writable(path, truncate, &file_);
}

Status Wal::append(std::string_view payload, std::string_view tail) {
  const std::string frame = encode_frame(payload, tail);
  if (segment_size_ > 0 &&
      segment_size_ + frame.size() > options_.segment_bytes) {
    const Status s = roll();
    if (!s.is_ok()) return s;
  }
  const Status s = file_->append(frame);
  if (!s.is_ok()) return s;
  segment_size_ += frame.size();
  appended_bytes_ += frame.size();
  dirty_ = true;
  return Status::ok();
}

Status Wal::sync() {
  if (!dirty_) return Status::ok();
  const Status s = file_->sync();
  if (!s.is_ok()) return s;
  dirty_ = false;
  ++syncs_;
  return Status::ok();
}

Status Wal::roll() {
  // The outgoing segment becomes non-final; recovery refuses to repair torn
  // non-final segments, so it must be fully durable before we move on.
  Status s = sync();
  if (!s.is_ok()) return s;
  ++segment_;
  segment_size_ = 0;
  return open_writer(/*truncate=*/true);
}

Status Wal::drop_segments_below(std::uint64_t segment) {
  std::vector<std::string> names;
  Status s = env_.list_dir(dir_, &names);
  if (!s.is_ok()) return s;
  for (const std::string& name : names) {
    std::uint64_t index = 0;
    if (!parse_segment_name(name, &index)) continue;
    if (index >= segment) continue;
    s = env_.remove_file(join_path(dir_, name));
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

}  // namespace zdc::storage

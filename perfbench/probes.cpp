#include "probes.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/codec.h"
#include "common/rng.h"
#include "storage/durable_storage.h"

namespace zdc::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();
std::atomic<bool> g_tracing{false};

// recovery::DurableRsm's storage layout: write-ahead records live in a ring
// of keys under this prefix, the full-state checkpoint under the state key.
constexpr std::string_view kRingPrefix = "rsm/log/";
constexpr std::string_view kStateKey = "rsm/state";

class ProbedFile final : public storage::WritableFile {
 public:
  ProbedFile(std::unique_ptr<storage::WritableFile> inner, ReplicaProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] storage::Status append(std::string_view bytes) override {
    probe_.bytes_appended += bytes.size();
    return inner_->append(bytes);
  }
  [[nodiscard]] storage::Status sync() override { return inner_->sync(); }

 private:
  std::unique_ptr<storage::WritableFile> inner_;
  ReplicaProbe& probe_;
};

std::string_view base_name(std::string_view path) {
  const auto slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

// ---- ProbedEnv ---------------------------------------------------------

storage::Status ProbedEnv::create_dir(const std::string& dir) {
  return base_.create_dir(dir);
}

storage::Status ProbedEnv::list_dir(const std::string& dir,
                                    std::vector<std::string>* names) {
  return base_.list_dir(dir, names);
}

bool ProbedEnv::file_exists(const std::string& path) {
  return base_.file_exists(path);
}

storage::Status ProbedEnv::read_file(const std::string& path,
                                     std::string* contents) {
  return base_.read_file(path, contents);
}

storage::Status ProbedEnv::new_writable(
    const std::string& path, bool truncate,
    std::unique_ptr<storage::WritableFile>* out) {
  std::unique_ptr<storage::WritableFile> file;
  storage::Status s = base_.new_writable(path, truncate, &file);
  if (s.is_ok()) *out = std::make_unique<ProbedFile>(std::move(file), probe_);
  return s;
}

storage::Status ProbedEnv::truncate_file(const std::string& path,
                                         std::uint64_t size) {
  return base_.truncate_file(path, size);
}

storage::Status ProbedEnv::rename_file(const std::string& from,
                                       const std::string& to) {
  storage::Status s = base_.rename_file(from, to);
  std::uint64_t index = 0;
  // The rename onto snap-<k> is DurableStableStorage's compaction commit.
  if (s.is_ok() && storage::DurableStableStorage::parse_snapshot_name(
                       std::string(base_name(to)), &index)) {
    ++probe_.compactions;
  }
  return s;
}

storage::Status ProbedEnv::remove_file(const std::string& path) {
  return base_.remove_file(path);
}

// ---- ProbedStorage -----------------------------------------------------

void ProbedStorage::put(const std::string& key, std::string bytes) {
  if (key != kStateKey) {
    inner_->put(key, std::move(bytes));
    return;
  }
  ++probe_.checkpoints;
  if (!tracing()) {
    inner_->put(key, std::move(bytes));
    return;
  }
  // A checkpoint starts when its state is serialized (ProbedKv::serialize
  // runs just before this put on the same thread).
  const double start =
      probe_.serialize_start >= 0.0 ? probe_.serialize_start : now_ms();
  inner_->put(key, std::move(bytes));
  probe_.checkpoint_ms.push_back(now_ms() - start);
  probe_.serialize_start = -1.0;
}

std::optional<std::string> ProbedStorage::get(const std::string& key) const {
  return inner_->get(key);
}

void ProbedStorage::put_nosync(const std::string& key, std::string bytes) {
  if (!tracing() || key.compare(0, kRingPrefix.size(), kRingPrefix) != 0) {
    inner_->put_nosync(key, std::move(bytes));
    return;
  }
  const double start = now_ms();
  inner_->put_nosync(key, std::move(bytes));
  probe_.pending = {};
  probe_.pending.write_ahead.start = start;
  probe_.pending.put_ms = now_ms() - start;
  probe_.staged = true;
  probe_.synced = false;
}

void ProbedStorage::sync() {
  if (!probe_.staged) {
    inner_->sync();
    return;
  }
  const double start = now_ms();
  inner_->sync();
  const double end = now_ms();
  probe_.pending.sync_ms = end - start;
  probe_.pending.write_ahead.end = end;
  probe_.write_ahead_ms.push_back(probe_.pending.write_ahead.ms());
  probe_.staged = false;
  probe_.synced = true;
}

std::uint64_t ProbedStorage::sync_count() const { return inner_->sync_count(); }

// ---- ProbedKv ----------------------------------------------------------

std::string ProbedKv::apply(const std::string& command) {
  if (!tracing()) return kv_.apply(command);
  const double start = now_ms();
  std::string reply = kv_.apply(command);
  const double end = now_ms();
  probe_.apply_us.push_back((end - start) * 1000.0);
  common::Decoder dec(command);
  const auto op = static_cast<core::KvOp>(dec.get_u8());
  const auto key = kv_key_index(dec.get_string());
  const auto id = payload_id(dec.get_string());
  if (op == core::KvOp::kPut && key && id && probe_.synced) {
    ReplicaProbe::Apply a = probe_.pending;
    a.id = *id;
    a.key = *key;
    a.apply = {start, end};
    probe_.writes.push_back(a);
  }
  probe_.synced = false;
  return reply;
}

std::string ProbedKv::snapshot() const { return kv_.snapshot(); }

std::string ProbedKv::serialize() const {
  if (!tracing()) return kv_.serialize();
  const double start = now_ms();
  std::string image = kv_.serialize();
  probe_.serialize_ms.push_back(now_ms() - start);
  probe_.serialize_start = start;
  return image;
}

bool ProbedKv::restore(const std::string& image) { return kv_.restore(image); }

std::string ProbedKv::apply_read(const std::string& query) const {
  if (!tracing()) return kv_.apply_read(query);
  const double start = now_ms();
  std::string reply = kv_.apply_read(query);
  const double end = now_ms();
  probe_.read_us.push_back((end - start) * 1000.0);
  common::Decoder dec(query);
  static_cast<void>(dec.get_u8());
  const auto key = kv_key_index(dec.get_string());
  if (key && probe_.synced) {
    ReplicaProbe::Apply a = probe_.pending;
    a.key = *key;
    a.apply = {start, end};
    probe_.reads.push_back(a);
  }
  probe_.synced = false;
  return reply;
}

// ---- Request payloads --------------------------------------------------

std::string tagged_payload(std::uint64_t seed, std::uint64_t id,
                           std::size_t bytes) {
  std::string out(bytes, '\0');
  std::memcpy(out.data(), &id, std::min(bytes, sizeof id));
  common::Rng rng(common::splitmix64(seed ^ id));
  for (std::size_t i = sizeof id; i < bytes; ++i) {
    out[i] = static_cast<char>('a' + rng.next_below(26));
  }
  return out;
}

std::optional<std::uint64_t> payload_id(std::string_view bytes) {
  std::uint64_t id = 0;
  if (bytes.size() < sizeof id) return std::nullopt;
  std::memcpy(&id, bytes.data(), sizeof id);
  return id;
}

std::string kv_key(std::uint32_t index) {
  std::string key(1, 'k');
  key += std::to_string(index);
  return key;
}

std::optional<std::uint32_t> kv_key_index(std::string_view key) {
  std::uint32_t index = 0;
  if (key.size() < 2 || key[0] != 'k') return std::nullopt;
  const auto [end, ec] =
      std::from_chars(key.data() + 1, key.data() + key.size(), index);
  if (ec != std::errc() || end != key.data() + key.size()) return std::nullopt;
  return index;
}

}  // namespace zdc::perfbench

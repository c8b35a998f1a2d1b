// Instrumentation the benchmark installs at the library's public injection
// points, so every per-layer figure is measured from outside the program:
//   * ProbedEnv under DurableStableStorage (storage layer: bytes appended,
//     snapshot files committed);
//   * ProbedStorage, the StableStorage handed to RunOptions::storage_factory
//     (recovery layer: write-ahead records and checkpoints);
//   * ProbedKv, the inner StateMachine handed to ServiceGroup (core layer:
//     apply, read and serialize).
// They always count, and record spans only while tracing() is on.
//
// The payload helpers at the end define the requests the benchmark
// generates: every request carries an 8-byte id in its payload, which is
// how a span recorded inside a replica finds its request.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stable_storage.h"
#include "core/kv_store.h"
#include "storage/env.h"

namespace zdc::perfbench {

/// Milliseconds on the steady clock since the benchmark process started.
double now_ms();

/// The span switch. A traced run turns it on for its traced segments; an
/// untraced run never does.
void set_tracing(bool on);
bool tracing();

struct Span {
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double ms() const { return end - start; }
};

/// What one replica's storage, recovery and core layers did. Written only by
/// the thread that drives the replica's DurableRsm (the constructing thread
/// during recovery, the replica's worker afterwards) and read once the
/// cluster has shut down.
struct ReplicaProbe {
  // Counted always.
  std::uint64_t bytes_appended = 0;  ///< WAL and snapshot file bytes
  std::uint64_t compactions = 0;     ///< snapshot files committed
  std::uint64_t checkpoints = 0;     ///< DurableRsm full-state checkpoints

  // Recorded while tracing: every command the inner machine executed in
  // the order (PUTs and ordered GETs), with the write-ahead record that
  // preceded it.
  struct Apply {
    std::uint64_t id = 0;   ///< PUT: the request id its value carries
    std::uint32_t key = 0;  ///< key index
    Span write_ahead;       ///< staging of the (index, command) record to sync
    double put_ms = 0.0;
    double sync_ms = 0.0;
    Span apply;  ///< the inner machine's apply
  };
  std::vector<Apply> writes;
  std::vector<Apply> reads;
  std::vector<double> write_ahead_ms;
  std::vector<double> checkpoint_ms;  ///< serialize through the durable put
  std::vector<double> serialize_ms;
  std::vector<double> apply_us;
  std::vector<double> read_us;

  // Hand-over between the wrappers, which run on the same thread in the
  // order DurableRsm calls them: stage, sync, apply, (serialize, put).
  Apply pending;
  bool staged = false;  ///< write-ahead record staged, sync not seen yet
  bool synced = false;  ///< write-ahead complete, apply not seen yet
  double serialize_start = -1.0;
};

/// Env wrapper: counts appended bytes and committed snapshot files.
class ProbedEnv final : public storage::Env {
 public:
  ProbedEnv(storage::Env& base, ReplicaProbe& probe)
      : base_(base), probe_(probe) {}

  [[nodiscard]] storage::Status create_dir(const std::string& dir) override;
  [[nodiscard]] storage::Status list_dir(
      const std::string& dir, std::vector<std::string>* names) override;
  [[nodiscard]] bool file_exists(const std::string& path) override;
  [[nodiscard]] storage::Status read_file(const std::string& path,
                                          std::string* contents) override;
  [[nodiscard]] storage::Status new_writable(
      const std::string& path, bool truncate,
      std::unique_ptr<storage::WritableFile>* out) override;
  [[nodiscard]] storage::Status truncate_file(const std::string& path,
                                              std::uint64_t size) override;
  [[nodiscard]] storage::Status rename_file(const std::string& from,
                                            const std::string& to) override;
  [[nodiscard]] storage::Status remove_file(const std::string& path) override;

 private:
  storage::Env& base_;
  ReplicaProbe& probe_;
};

/// StableStorage wrapper: times DurableRsm's write-ahead records (staged
/// under its ring keys, then synced) and its checkpoints.
class ProbedStorage final : public common::StableStorage {
 public:
  ProbedStorage(std::unique_ptr<common::StableStorage> inner,
                ReplicaProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void put(const std::string& key, std::string bytes) override;
  [[nodiscard]] std::optional<std::string> get(
      const std::string& key) const override;
  void put_nosync(const std::string& key, std::string bytes) override;
  void sync() override;
  [[nodiscard]] std::uint64_t sync_count() const override;

 private:
  std::unique_ptr<common::StableStorage> inner_;
  ReplicaProbe& probe_;
};

/// Inner state machine: the library's KvStateMachine with timed applies,
/// reads and serializations.
class ProbedKv final : public core::StateMachine {
 public:
  explicit ProbedKv(ReplicaProbe& probe) : probe_(probe) {}

  std::string apply(const std::string& command) override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] bool restore(const std::string& image) override;
  [[nodiscard]] std::string apply_read(const std::string& query) const override;

 private:
  core::KvStateMachine kv_;
  ReplicaProbe& probe_;
};

// ---- Request payloads -------------------------------------------------

/// Bytes of an abcast request: its id, then filler.
inline constexpr std::size_t kAbcastPayloadBytes = 32;
/// Bytes of a kv value: its value id, then filler.
inline constexpr std::size_t kKvValueBytes = 128;
/// Value ids of preloaded values carry this bit plus the key index; values
/// written by requests carry the request id.
inline constexpr std::uint64_t kPreloadTag = 1ULL << 63;

/// `bytes` bytes starting with `id` (little-endian), filled from
/// (seed, id) so a value can be regenerated from its id.
std::string tagged_payload(std::uint64_t seed, std::uint64_t id,
                           std::size_t bytes);
/// The id a tagged payload starts with (nullopt when it is too short).
std::optional<std::uint64_t> payload_id(std::string_view bytes);

/// "k<index>" and its inverse.
std::string kv_key(std::uint32_t index);
std::optional<std::uint32_t> kv_key_index(std::string_view key);

}  // namespace zdc::perfbench

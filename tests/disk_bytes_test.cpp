// Pins the exact bytes the durable stack writes. A fixed script runs over
// MemEnv and every file it leaves behind is fingerprinted with FNV-1a:
//
//   1. DurableStableStorage alone: put, put_nosync + sync, and enough
//      traffic to cross several auto-compactions, then a reopen;
//   2. DurableRsm over SessionStateMachine(KvStateMachine): install_snapshot,
//      a few hundred applies that cross several checkpoints and a storage
//      compaction, then a reopen + recover().
//
// The WAL frames, the snapshot files and the checkpoint images are an
// on-disk format: a disk written by one build must be read back by the
// next, whichever CRC path (docs/STORAGE.md) each build runs. The digests
// were recorded with the byte-at-a-time table CRC; they move only when the
// format changes on purpose, and docs/STORAGE.md changes with them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/kv_store.h"
#include "recovery/durable_rsm.h"
#include "service/session.h"
#include "storage/durable_storage.h"
#include "storage/env.h"

namespace zdc::storage {
namespace {

constexpr char kDir[] = "db";

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// "name size digest" per file in `dir`, in list order.
std::string file_digests(MemEnv& env) {
  std::vector<std::string> names;
  EXPECT_TRUE(env.list_dir(kDir, &names).is_ok());
  std::string out;
  for (const std::string& name : names) {
    std::string contents;
    EXPECT_TRUE(env.read_file(join_path(kDir, name), &contents).is_ok());
    out += name + " " + std::to_string(contents.size()) + " " +
           hex(fnv1a(contents)) + "\n";
  }
  return out;
}

/// Deterministic filler: `n` lowercase letters drawn from `seed`.
std::string filler(std::uint64_t seed, std::size_t n) {
  std::string out(n, 'a');
  std::uint64_t x = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (char& c : out) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>('a' + (x >> 33) % 26);
  }
  return out;
}

std::unique_ptr<DurableStableStorage> open_store(
    Env& env, DurableStorageOptions options) {
  std::unique_ptr<DurableStableStorage> store;
  const Status s = DurableStableStorage::open(env, kDir, options, &store);
  EXPECT_TRUE(s.is_ok()) << s.to_string();
  return store;
}

TEST(DiskBytes, DurableStorageScriptWritesPinnedFiles) {
  DurableStorageOptions options;
  options.segment_bytes = 4096;
  options.compact_after_bytes = 16 * 1024;
  MemEnv env;
  auto store = open_store(env, options);
  ASSERT_NE(store, nullptr);
  store->put("promise", "ballot-7");
  store->put_nosync("vote", filler(1, 300));
  store->put_nosync("empty", "");
  store->sync();
  for (std::uint64_t i = 0; i < 120; ++i) {
    const std::string key = "k" + std::to_string(i % 37);
    if (i % 3 == 0) {
      store->put(key, filler(i, 40 + i * 7 % 500));
    } else {
      store->put_nosync(key, filler(i, 40 + i * 11 % 700));
      if (i % 3 == 2) store->sync();
    }
  }
  store->put("promise", "ballot-9");
  ASSERT_TRUE(store->last_status().is_ok());
  const std::uint64_t syncs = store->sync_count();
  const std::uint64_t appended = store->wal_appended_bytes();
  store.reset();

  EXPECT_EQ(file_digests(env),
            "snap-000010 9757 b74ebf3c234347bb\n"
            "wal-000010.log 3792 57baa2c9582fbe8b\n"
            "wal-000011.log 3516 86ec886b929558b6\n"
            "wal-000012.log 1354 30aa6d39dabe29c9\n");
  EXPECT_EQ(syncs, 88u);
  EXPECT_EQ(appended, 42024u);

  store = open_store(env, options);
  ASSERT_NE(store, nullptr);
  std::string state;
  for (const std::string key : {"promise", "vote", "empty"}) {
    state += key + "=" + store->get(key).value_or("<none>") + "\n";
  }
  for (std::uint64_t i = 0; i < 37; ++i) {
    const std::string key = "k" + std::to_string(i);
    state += key + "=" + store->get(key).value_or("<none>") + "\n";
  }
  EXPECT_EQ(hex(fnv1a(state)), "4ccb49e04dbe3cbe");
}

/// The service layer's framing of a kv command from `client`.
std::string request(std::uint64_t client, std::uint64_t seqno,
                    const std::string& command) {
  return rsm::frame_request(client, seqno, command);
}

std::unique_ptr<rsm::SessionStateMachine> session_kv() {
  return std::make_unique<rsm::SessionStateMachine>(
      std::make_unique<core::KvStateMachine>());
}

TEST(DiskBytes, DurableRsmScriptWritesPinnedFiles) {
  DurableStorageOptions options;
  options.compact_after_bytes = 64 * 1024;
  recovery::DurableRsm::Config cfg;
  cfg.snapshot_every = 32;
  cfg.log_window = 64;

  // The installed image: a peer's machine after 200 puts.
  auto peer = session_kv();
  for (std::uint64_t k = 0; k < 200; ++k) {
    static_cast<void>(peer->apply(request(
        7, k + 1, core::kv_put("key" + std::to_string(k), filler(k, 96)))));
  }
  const std::string image = peer->serialize();
  EXPECT_EQ(hex(fnv1a(image)), "2c79541d11f521b3");

  MemEnv env;
  std::string session_image;
  std::string kv_image;
  {
    auto store = open_store(env, options);
    ASSERT_NE(store, nullptr);
    recovery::DurableRsm durable(session_kv(), store.get(), cfg);
    ASSERT_TRUE(durable.recover());
    ASSERT_TRUE(durable.install_snapshot(200, image));
    std::uint64_t index = 200;
    for (std::uint64_t i = 0; i < 300; ++i) {
      const std::uint64_t client = 1 + i % 5;
      const std::uint64_t seqno = 1 + i / 5;
      const std::string key = "key" + std::to_string(i * 13 % 260);
      std::string command;
      switch (i % 4) {
        case 0:
        case 1:
          command = core::kv_put(key, filler(1000 + i, 64 + i % 64));
          break;
        case 2:
          command = core::kv_del(key);
          break;
        default:
          command = core::kv_cas(key, filler(i, 96), filler(2000 + i, 80));
          break;
      }
      std::string framed = i == 250 ? rsm::frame_close(3)
                                    : request(client, seqno, command);
      static_cast<void>(durable.apply(++index, framed));
      // A retry of the command just applied: answered from the session
      // table, still written ahead.
      if (i % 50 == 49) static_cast<void>(durable.apply(++index, framed));
    }
    ASSERT_EQ(durable.applied(), 506u);
    ASSERT_TRUE(store->last_status().is_ok());
    session_image = durable.machine().serialize();
    kv_image = static_cast<const rsm::SessionStateMachine&>(durable.machine())
                   .inner()
                   .serialize();
  }

  EXPECT_EQ(file_digests(env),
            "snap-000006 32316 5de7583968515345\n"
            "wal-000006.log 31485 cf34b65a99c17405\n");
  EXPECT_EQ(hex(fnv1a(session_image)), "f181766a035fdc6e");
  EXPECT_EQ(hex(fnv1a(kv_image)), "cf2b05fe81eae345");

  auto store = open_store(env, options);
  ASSERT_NE(store, nullptr);
  recovery::DurableRsm reopened(session_kv(), store.get(), cfg);
  ASSERT_TRUE(reopened.recover());
  EXPECT_EQ(reopened.applied(), 506u);
  EXPECT_EQ(reopened.machine().serialize(), session_image)
      << "recovery must rebuild the state the script left";
}

}  // namespace
}  // namespace zdc::storage

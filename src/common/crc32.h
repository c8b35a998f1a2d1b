// CRC32C (Castagnoli) checksums for on-disk record framing and wire seals.
//
// The write-ahead log (src/storage/wal.h) frames every record with a CRC so
// that a torn write or a flipped bit is *detected* instead of silently
// replayed into protocol state, and common::seal_frame does the same for
// every consensus message. CRC32C is the standard polynomial for storage
// framing (iSCSI, ext4, LevelDB).
//
// crc32c() checks the CPU once: where SSE4.2 is present it runs the `crc32`
// instruction over 8-byte words (about 20x the table loop), elsewhere the
// byte-at-a-time table loop. Both compute the same function of the bytes —
// same polynomial, same pre- and post-inversion — so every frame, snapshot
// file and wire seal is bit-identical whichever path wrote or checks it.
// Both are deterministic and allocation-free, which keeps the checksum
// usable from the deterministic simulator as well as the real-disk path.
#pragma once

#include <cstdint>
#include <string_view>

namespace zdc::common {

/// CRC32C of `bytes`, continuing from `seed` (pass a previous result to
/// checksum data presented in chunks; 0 starts a fresh checksum).
[[nodiscard]] std::uint32_t crc32c(std::string_view bytes,
                                   std::uint32_t seed = 0);

namespace detail {

/// The portable table loop crc32c() falls back to: the only path on CPUs
/// without SSE4.2, and the reference the tests hold the dispatched path to.
[[nodiscard]] std::uint32_t crc32c_table(std::string_view bytes,
                                         std::uint32_t seed);

}  // namespace detail

}  // namespace zdc::common

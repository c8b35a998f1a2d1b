// CRC32C (common/crc32.h): published known answers, and the dispatched
// path (the SSE4.2 `crc32` loop where the CPU has it) held byte-for-byte to
// the portable table loop over every short length at every start
// alignment. The WAL, the snapshot files and the consensus wire seals all
// store this checksum, so a kernel that disagreed on any input would turn
// valid data into "corruption".
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32.h"

namespace zdc::common {
namespace {

// RFC 3720 (iSCSI) section B.4 test vectors.
TEST(Crc32c, Rfc3720KnownAnswers) {
  EXPECT_EQ(crc32c(std::string(32, '\x00')), 0x8A9136AAu);
  EXPECT_EQ(crc32c(std::string(32, '\xFF')), 0x62A8AB43u);
  std::string ascending;
  std::string descending;
  for (int i = 0; i < 32; ++i) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  EXPECT_EQ(crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(crc32c(descending), 0x113FDB5Cu);
  // The same vectors through the reference loop.
  EXPECT_EQ(detail::crc32c_table(ascending, 0), 0x46DD794Eu);
  EXPECT_EQ(detail::crc32c_table(descending, 0), 0x113FDB5Cu);
}

TEST(Crc32c, CheckValueAndEmptyInput) {
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_table("123456789", 0), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  EXPECT_EQ(crc32c("", 0xDEADBEEFu), 0xDEADBEEFu)
      << "no bytes must leave a running checksum unchanged";
}

// Every length 0..4096 at each of the 8 start offsets (so the word loop
// meets every misalignment and every tail length), from a fresh checksum
// and from a non-zero running one.
TEST(Crc32c, DispatchedPathMatchesTableLoopAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 4096;
  std::string buf(kMaxLen + 8, '\0');
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (char& c : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  int mismatches = 0;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::string_view view(buf.data() + offset, len);
      for (const std::uint32_t seed : {0u, 0x5A17C0DEu}) {
        if (crc32c(view, seed) != detail::crc32c_table(view, seed)) {
          ADD_FAILURE() << "offset " << offset << " length " << len
                        << " seed " << seed;
          if (++mismatches > 10) return;
        }
      }
    }
  }
}

TEST(Crc32c, ChunkedContinuationEqualsOnePass) {
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(i * 31 + 7));
  const std::string_view all(data);
  const std::uint32_t whole = crc32c(all);
  for (const std::size_t cut : {0, 1, 7, 8, 9, 63, 64, 500, 999, 1000}) {
    EXPECT_EQ(crc32c(all.substr(cut), crc32c(all.substr(0, cut))), whole)
        << "split at " << cut;
  }
  EXPECT_EQ(crc32c("56789", crc32c("1234")), crc32c("123456789"));
}

}  // namespace
}  // namespace zdc::common

#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define ZDC_CRC32C_SSE42 1
#endif

namespace zdc::common {

namespace {

const std::array<std::uint32_t, 256>& table() {
  static const std::array<std::uint32_t, 256> t = [] {
    std::array<std::uint32_t, 256> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      out[i] = c;
    }
    return out;
  }();
  return t;
}

#ifdef ZDC_CRC32C_SSE42

// Compiled for SSE4.2 on its own, so the rest of the build keeps the
// baseline ISA; crc32c() calls it only after the CPU check. Words are
// loaded through memcpy: the input has no alignment guarantee.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::string_view bytes, std::uint32_t seed) {
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t crc = seed ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto c = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    c = _mm_crc32_u8(c, static_cast<std::uint8_t>(*p));
  }
  return c ^ 0xffffffffu;
}

bool have_sse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}

#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_table(std::string_view bytes, std::uint32_t seed) {
  const auto& t = table();
  std::uint32_t crc = seed ^ 0xffffffffu;
  for (const char ch : bytes) {
    crc = t[(crc ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace detail

std::uint32_t crc32c(std::string_view bytes, std::uint32_t seed) {
#ifdef ZDC_CRC32C_SSE42
  static const bool sse42 = have_sse42();
  if (sse42) return crc32c_sse42(bytes, seed);
#endif
  return detail::crc32c_table(bytes, seed);
}

}  // namespace zdc::common

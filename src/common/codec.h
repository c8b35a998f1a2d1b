// Bounds-checked binary encoding of protocol messages.
//
// All wire messages in zdc are encoded with Encoder and parsed with Decoder.
// Decoder never reads out of bounds: every getter checks the remaining length
// and, on underflow, latches an error flag and returns a zero value. Callers
// check ok() once after reading a whole message; a failed decode is reported to
// the caller, never undefined behaviour. Integers are little-endian fixed
// width (the simulator and runtime are same-host, but we still commit to a
// byte order so the format is well defined).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace zdc::common {

/// Serializes integers and strings into a byte buffer.
///
/// Allocation-lean by design: fixed-width integers are appended as one
/// word-wise chunk (not byte-by-byte push_back), callers on hot paths size
/// the buffer up front with reserve(), and clear() keeps the capacity so one
/// Encoder can be reused across many frames without churning the allocator.
class Encoder {
 public:
  Encoder() = default;
  /// Pre-sizes the buffer for a known frame size.
  explicit Encoder(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  /// Grows capacity to at least `n` bytes (never shrinks).
  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Drops the contents but keeps the capacity — small-buffer reuse for
  /// encode loops that emit one frame per iteration.
  void clear() { buf_.clear(); }

  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void put_u16(std::uint16_t v) { put_fixed(v); }
  void put_u32(std::uint32_t v) { put_fixed(v); }
  void put_u64(std::uint64_t v) { put_fixed(v); }

  void put_f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Length-prefixed byte string (u32 length).
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  /// Raw bytes without a length prefix (for nested pre-encoded payloads whose
  /// length is implied by the enclosing frame).
  void put_raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_fixed(T v) {
    // Compose the little-endian image in a stack word and append it in one
    // call; the shift loop compiles to a single store on LE targets and the
    // append to one memcpy — versus sizeof(T) bounds-checked push_backs.
    char word[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      word[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(word, sizeof(T));
  }

  std::string buf_;
};

/// Parses a byte buffer produced by Encoder. All reads are bounds checked.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : data_(bytes) {}

  std::uint8_t get_u8() {
    if (!check(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t get_u16() { return get_fixed<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_fixed<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_fixed<std::uint64_t>(); }

  double get_f64() {
    std::uint64_t bits = get_u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool get_bool() { return get_u8() != 0; }

  std::string get_string() { return std::string(get_view()); }

  /// get_string() without the copy: a view into the decoded buffer, valid
  /// only as long as that buffer is.
  std::string_view get_view() {
    const std::uint32_t len = get_u32();
    // The length prefix is validated against remaining() *before* any
    // allocation: a crafted frame claiming a multi-GB string poisons the
    // decoder instead of driving a huge reserve.
    if (!check(len)) return {};
    const std::string_view out = data_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  /// All bytes not yet consumed (consumes them).
  std::string get_rest() {
    std::string out(data_.substr(pos_));
    pos_ = data_.size();
    return out;
  }

  /// Latches the error flag: callers use this when a structurally impossible
  /// value (e.g. a hostile count prefix) is detected before any allocation.
  void poison() { ok_ = false; }

  /// True iff no read so far has run past the end of the buffer.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True iff ok() and the whole buffer was consumed — use to reject messages
  /// with trailing garbage.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool check(std::size_t need) {
    if (!ok_ || data_.size() - pos_ < need) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T get_fixed() {
    if (!check(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Consensus wire-frame version. Version 2 introduced the sealed frame
/// below; version-1 frames (bare body, no header) are rejected by
/// open_frame — the bump is deliberate, there is no mixed-version decode
/// (every deployment ships both ends of the wire).
inline constexpr std::uint8_t kFrameVersion = 2;

/// Bytes prepended by seal_frame: [version u8][crc32c u32 of body].
inline constexpr std::size_t kFrameHeaderBytes = 5;

/// Wraps a protocol message body in the integrity header. With the header in
/// place a flipped byte anywhere in the frame — header or body — is a
/// *detectable drop*: open_frame fails, the receiver discards the frame, and
/// the transport's reliability layer (ARQ / parked retransmission) delivers
/// the clean original. Without it a flip is silent garbage handed to the
/// protocol decoder.
[[nodiscard]] std::string seal_frame(std::string body);

/// Verifies and strips the header written by seal_frame. On success stores
/// the body view (aliasing `frame`) in `*body` and returns true; on any
/// mismatch — short frame, wrong version, checksum failure — returns false
/// and leaves `*body` untouched.
[[nodiscard]] bool open_frame(std::string_view frame, std::string_view* body);

/// Encodes a list of strings with a count prefix.
void encode_string_list(Encoder& enc, const std::vector<std::string>& items);

/// Decodes a list written by encode_string_list. Returns an empty list and
/// poisons `dec` on malformed input.
std::vector<std::string> decode_string_list(Decoder& dec);

}  // namespace zdc::common

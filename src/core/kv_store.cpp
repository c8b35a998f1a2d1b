#include "core/kv_store.h"

#include "common/codec.h"

namespace zdc::core {

namespace {

std::string make_command(KvOp op, const std::string& key,
                         const std::string& a = "", const std::string& b = "") {
  common::Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(op));
  enc.put_string(key);
  enc.put_string(a);
  enc.put_string(b);
  return enc.take();
}

}  // namespace

std::string kv_put(const std::string& key, const std::string& value) {
  return make_command(KvOp::kPut, key, value);
}

std::string kv_get(const std::string& key) {
  return make_command(KvOp::kGet, key);
}

std::string kv_del(const std::string& key) {
  return make_command(KvOp::kDel, key);
}

std::string kv_cas(const std::string& key, const std::string& expect,
                   const std::string& value) {
  return make_command(KvOp::kCas, key, expect, value);
}

std::string KvStateMachine::apply(const std::string& command) {
  common::Decoder dec(command);
  const auto op = static_cast<KvOp>(dec.get_u8());
  const std::string key = dec.get_string();
  const std::string a = dec.get_string();
  const std::string b = dec.get_string();
  if (!dec.done()) return "error:malformed";

  switch (op) {
    case KvOp::kPut:
      data_[key] = a;
      return "ok";
    case KvOp::kGet: {
      const auto it = data_.find(key);
      return it == data_.end() ? "not_found" : "value:" + it->second;
    }
    case KvOp::kDel:
      return data_.erase(key) > 0 ? "ok" : "not_found";
    case KvOp::kCas: {
      const auto it = data_.find(key);
      if (it == data_.end()) return "not_found";
      if (it->second != a) return "mismatch";
      it->second = b;
      return "ok";
    }
  }
  return "error:unknown_op";
}

std::string KvStateMachine::snapshot() const {
  // FNV-1a over the sorted entries plus the size: replicas with equal state
  // produce equal digests, and (for these test-scale maps) vice versa.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (const auto& [k, v] : data_) {
    mix(k);
    mix(v);
  }
  common::Encoder enc;
  enc.put_u64(h);
  enc.put_u64(data_.size());
  return enc.take();
}

std::string KvStateMachine::serialize() const {
  // Canonical: entry count followed by the (key, value) pairs in key order
  // (std::map iteration order), so equal states serialize to equal bytes.
  std::size_t bytes = 8;
  for (const auto& [k, v] : data_) bytes += 8 + k.size() + v.size();
  common::Encoder enc(bytes);
  enc.put_u64(data_.size());
  for (const auto& [k, v] : data_) {
    enc.put_string(k);
    enc.put_string(v);
  }
  return enc.take();
}

bool KvStateMachine::restore(const std::string& image) {
  common::Decoder dec(image);
  const std::uint64_t count = dec.get_u64();
  std::map<std::string, std::string> next;
  for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
    const std::string_view key = dec.get_view();
    const std::string_view value = dec.get_view();
    if (!dec.ok()) break;
    // A canonical image lists keys in ascending order, so every entry
    // belongs at end() and the hint saves the tree descent. Any other
    // order still restores; a duplicate key fails the size check below.
    next.emplace_hint(next.end(), key, value);
  }
  if (!dec.done() || next.size() != count) return false;
  data_ = std::move(next);
  return true;
}

std::string KvStateMachine::apply_read(const std::string& query) const {
  common::Decoder dec(query);
  const auto op = static_cast<KvOp>(dec.get_u8());
  const std::string key = dec.get_string();
  const std::string a = dec.get_string();
  const std::string b = dec.get_string();
  if (!dec.done()) return "error:malformed";
  static_cast<void>(a);
  static_cast<void>(b);
  if (op != KvOp::kGet) return "error:unsupported_read";
  const auto it = data_.find(key);
  return it == data_.end() ? "not_found" : "value:" + it->second;
}

std::optional<std::string> KvStateMachine::lookup(const std::string& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

}  // namespace zdc::core

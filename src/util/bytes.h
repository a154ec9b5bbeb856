// Byte-level encode/decode helpers. All on-page and on-wire integers are
// little-endian, encoded explicitly so the format is architecture-independent,
// except inside B-tree keys, which are big-endian so that they sort by memcmp.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace invfs {

inline void PutU16(std::byte* p, uint16_t v) {
  p[0] = std::byte{static_cast<uint8_t>(v)};
  p[1] = std::byte{static_cast<uint8_t>(v >> 8)};
}
inline void PutU32(std::byte* p, uint32_t v) {
  PutU16(p, static_cast<uint16_t>(v));
  PutU16(p + 2, static_cast<uint16_t>(v >> 16));
}
inline void PutU64(std::byte* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}
inline uint16_t GetU16(const std::byte* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0])) |
         (static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8);
}
inline uint32_t GetU32(const std::byte* p) {
  return static_cast<uint32_t>(GetU16(p)) |
         (static_cast<uint32_t>(GetU16(p + 2)) << 16);
}
inline uint64_t GetU64(const std::byte* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

// Big-endian stores and loads for order-preserving encodings (B-tree keys),
// where the memcmp order of the bytes must be the numeric order of the value.
// One store or load each.
inline void PutBe16(std::byte* p, uint16_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap16(v);
  }
  std::memcpy(p, &v, sizeof(v));
}
inline void PutBe32(std::byte* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}
inline void PutBe64(std::byte* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}
inline uint16_t GetBe16(const std::byte* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap16(v);
  }
  return v;
}
inline uint32_t GetBe32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}
inline uint64_t GetBe64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Appending writer used by the RPC marshalling layer and tuple encoder.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(std::byte{v}); }
  void U16(uint16_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 2);
    PutU16(buf_.data() + n, v);
  }
  void U32(uint32_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 4);
    PutU32(buf_.data() + n, v);
  }
  void U64(uint64_t v) {
    size_t n = buf_.size();
    buf_.resize(n + 8);
    PutU64(buf_.data() + n, v);
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bytes(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  // Length-prefixed string / blob.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }
  void Blob(std::span<const std::byte> data) {
    U32(static_cast<uint32_t>(data.size()));
    Bytes(data);
  }

  const std::vector<std::byte>& data() const { return buf_; }
  std::vector<std::byte> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

// Sequential reader over a byte span. Reads past the end return zeros and set
// a sticky error flag the caller checks once at the end of decoding.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = GetU16(data_.data() + pos_);
    pos_ += 2;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = GetU32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = GetU64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t len = U32();
    if (!Need(len)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  std::vector<std::byte> Blob() {
    uint32_t len = U32();
    if (!Need(len)) return {};
    std::vector<std::byte> b(data_.begin() + static_cast<ptrdiff_t>(pos_),
                             data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return b;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(size_t n) {
    if (data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::byte> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace invfs

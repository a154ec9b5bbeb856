#include "src/util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <nmmintrin.h>
#define INVFS_CRC32C_SSE42 1
#endif

namespace invfs {
namespace {

constexpr uint32_t kPoly = 0x82F63B78;  // reflected CRC-32C

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

#ifdef INVFS_CRC32C_SSE42
// Multiplication of two bit-reflected polynomials modulo P (bit 31 holds
// x^0), as zlib's multmodp.
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) {
      product ^= b;
    }
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8n) mod P: the operator that feeds n zero bytes through a CRC register.
constexpr uint32_t ZeroBytesOperator(size_t n) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t square = 1u << 23;  // x^8
  for (; n != 0; n >>= 1) {
    if (n & 1) {
      result = MultModP(square, result);
    }
    square = MultModP(square, square);
  }
  return result;
}

// Byte-sliced tables of the operator for `n` zero bytes, so shifting a
// register across a lane costs four lookups.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(size_t n) {
  const uint32_t op = ZeroBytesOperator(n);
  ShiftTable table{};
  for (uint32_t k = 0; k < 4; ++k) {
    for (uint32_t byte = 0; byte < 256; ++byte) {
      table[k][byte] = MultModP(op, byte << (8 * k));
    }
  }
  return table;
}

uint32_t Shift(const ShiftTable& table, uint32_t crc) {
  return table[0][crc & 0xFF] ^ table[1][(crc >> 8) & 0xFF] ^
         table[2][(crc >> 16) & 0xFF] ^ table[3][crc >> 24];
}

uint64_t Load64(const std::byte* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// Lane widths of the three-stream kernel: long lanes for the bulk of a page,
// short ones for what is left.
constexpr size_t kLongLane = 2048;
constexpr size_t kShortLane = 256;
constexpr ShiftTable kShiftLong = MakeShiftTable(kLongLane);
constexpr ShiftTable kShiftShort = MakeShiftTable(kShortLane);

// One crc32 instruction has a latency of three cycles but issues every
// cycle, so a single dependent chain runs at a third of the unit's speed.
// Each block of three lanes runs three independent chains, the second and
// third from a zero register, then folds them together: a CRC register is
// linear, so crc(A B) = crc(A) * x^(8|B|) xor crc0(B). (Mark Adler's crc32c
// scheme.) Consumes whole blocks from the front of [p, p + n).
__attribute__((target("sse4.2"))) uint64_t ThreeLanes(const std::byte*& p, size_t& n,
                                                     uint64_t crc, size_t lane,
                                                     const ShiftTable& shift) {
  for (; n >= 3 * lane; p += 3 * lane, n -= 3 * lane) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < lane; i += 8) {
      crc = _mm_crc32_u64(crc, Load64(p + i));
      crc1 = _mm_crc32_u64(crc1, Load64(p + lane + i));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * lane + i));
    }
    crc = Shift(shift, static_cast<uint32_t>(crc)) ^ crc1;
    crc = Shift(shift, static_cast<uint32_t>(crc)) ^ crc2;
  }
  return crc;
}

// The SSE4.2 crc32 instruction computes the same reflected Castagnoli CRC as
// the table, 8 bytes per step. Compiled for SSE4.2 here only; the build
// targets baseline x86-64, so Crc32c checks the CPU before calling it.
__attribute__((target("sse4.2"))) uint32_t Sse42Crc32c(const std::byte* p, size_t n,
                                                        uint32_t seed) {
  uint64_t crc = ~seed;
  crc = ThreeLanes(p, n, crc, kLongLane, kShiftLong);
  crc = ThreeLanes(p, n, crc, kShortLane, kShiftShort);
  for (; n >= 8; p += 8, n -= 8) {
    crc = _mm_crc32_u64(crc, Load64(p));
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  }
  return ~crc32;
}

// CPUID leaf 1, ECX bit 20. Read inline rather than with
// __builtin_cpu_supports, which would link libgcc's CPU-model constructor
// into the front of every program's text and shift all code after it.
bool HaveSse42() {
  static const bool have = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_SSE4_2) != 0;
  }();
  return have;
}
#endif

}  // namespace

namespace crc32_internal {

uint32_t PortableCrc32c(std::span<const std::byte> data, uint32_t seed) {
  uint32_t crc = ~seed;
  for (std::byte b : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ static_cast<uint8_t>(b)) & 0xFF];
  }
  return ~crc;
}

}  // namespace crc32_internal

uint32_t Crc32c(std::span<const std::byte> data, uint32_t seed) {
#ifdef INVFS_CRC32C_SSE42
  if (HaveSse42()) {
    return Sse42Crc32c(data.data(), data.size(), seed);
  }
#endif
  return crc32_internal::PortableCrc32c(data, seed);
}

}  // namespace invfs

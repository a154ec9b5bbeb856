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
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli CRC as
// the table, 8 bytes per step. Compiled for SSE4.2 here only; the build
// targets baseline x86-64, so Crc32c checks the CPU before calling it.
__attribute__((target("sse4.2"))) uint32_t Sse42Crc32c(const std::byte* p, size_t n,
                                                        uint32_t seed) {
  uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
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

// CRC-32 (Castagnoli polynomial) used for page self-identification checks.
//
// The paper reserves space in file-data records for self-identifying blocks
// to detect media corruption; we implement that check with this CRC.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace invfs {

// CRC of `data`, optionally chained from a previous crc. Uses the SSE4.2
// crc32 instruction when the CPU has it, else a byte-at-a-time table; both
// give the same value.
uint32_t Crc32c(std::span<const std::byte> data, uint32_t seed = 0);

inline uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0) {
  return Crc32c(std::span(static_cast<const std::byte*>(data), len), seed);
}

namespace crc32_internal {
// The table loop alone, whatever the CPU. Exposed so tests can check that
// Crc32c's hardware path agrees with it.
uint32_t PortableCrc32c(std::span<const std::byte> data, uint32_t seed = 0);
}  // namespace crc32_internal

}  // namespace invfs

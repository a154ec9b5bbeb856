#include "src/storage/page.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/crc32.h"

namespace invfs {

// Header field offsets.
namespace {
constexpr uint32_t kOffMagic = 0;
constexpr uint32_t kOffNslots = 2;
constexpr uint32_t kOffLower = 4;
constexpr uint32_t kOffUpper = 6;
constexpr uint32_t kOffChecksum = 8;
constexpr uint32_t kOffSelfRel = 12;
constexpr uint32_t kOffSelfBlock = 16;

// CRC32C of a frame with the checksum field counted as zero.
uint32_t FrameCrc(const std::byte* p) {
  uint32_t crc = Crc32c(p, kOffChecksum);
  const std::byte zeros[4] = {};
  crc = Crc32c(zeros, sizeof zeros, crc);
  return Crc32c(p + kOffChecksum + 4, kPageSize - kOffChecksum - 4, crc);
}
}  // namespace

void Page::Init(Oid rel, uint32_t block) {
  std::memset(p_, 0, kPageSize);
  PutU16(p_ + kOffMagic, kPageMagic);
  PutU16(p_ + kOffNslots, 0);
  PutU16(p_ + kOffLower, kPageHeaderSize);
  PutU16(p_ + kOffUpper, kPageSize);
  PutU32(p_ + kOffSelfRel, rel);
  PutU32(p_ + kOffSelfBlock, block);
}

bool Page::IsInitialized() const { return GetU16(p_ + kOffMagic) == kPageMagic; }

Status Page::VerifySelfIdent(Oid rel, uint32_t block) const {
  if (!IsInitialized()) {
    return Status::Corruption("page not initialized");
  }
  const Oid self_rel = GetU32(p_ + kOffSelfRel);
  const uint32_t self_block = GetU32(p_ + kOffSelfBlock);
  if (self_rel != rel || self_block != block) {
    return Status::Corruption("self-identification mismatch: page claims rel " +
                              std::to_string(self_rel) + " block " +
                              std::to_string(self_block) + ", expected rel " +
                              std::to_string(rel) + " block " + std::to_string(block));
  }
  return Status::Ok();
}

void Page::UpdateChecksum() { PutU32(p_ + kOffChecksum, FrameCrc(p_)); }

uint32_t Page::StoredChecksum() const { return GetU32(p_ + kOffChecksum); }

Status Page::VerifyChecksum() const {
  const uint32_t stored = StoredChecksum();
  if (stored == 0) {
    return Status::Ok();  // never stamped
  }
  const uint32_t actual = FrameCrc(p_);
  if (actual != stored) {
    return Status::Corruption("page checksum mismatch: stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(actual));
  }
  return Status::Ok();
}

Status Page::VerifyGeometry() const {
  const uint32_t lower = Lower();
  const uint32_t upper = Upper();
  if (lower != kPageHeaderSize + num_slots() * kLinePointerSize || lower > upper ||
      upper > kPageSize) {
    return Status::Corruption("nslots " + std::to_string(num_slots()) + ", lower " +
                              std::to_string(lower) + ", upper " + std::to_string(upper));
  }
  return Status::Ok();
}

uint16_t Page::num_slots() const { return GetU16(p_ + kOffNslots); }
uint16_t Page::Lower() const { return GetU16(p_ + kOffLower); }
uint16_t Page::Upper() const { return GetU16(p_ + kOffUpper); }
void Page::SetLower(uint16_t v) { PutU16(p_ + kOffLower, v); }
void Page::SetUpper(uint16_t v) { PutU16(p_ + kOffUpper, v); }

std::pair<uint16_t, uint16_t> Page::Lp(uint16_t slot) const {
  const std::byte* lp = p_ + kPageHeaderSize + static_cast<uint32_t>(slot) * kLinePointerSize;
  return {GetU16(lp), GetU16(lp + 2)};
}

void Page::SetLp(uint16_t slot, uint16_t off, uint16_t len) {
  std::byte* lp = p_ + kPageHeaderSize + static_cast<uint32_t>(slot) * kLinePointerSize;
  PutU16(lp, off);
  PutU16(lp + 2, len);
}

uint32_t Page::FreeSpace() const {
  const uint32_t lower = Lower();
  const uint32_t upper = Upper();
  const uint32_t gap = upper > lower ? upper - lower : 0;
  return gap > kLinePointerSize ? gap - kLinePointerSize : 0;
}

Result<uint16_t> Page::AddTuple(std::span<const std::byte> tuple) {
  std::span<std::byte> bytes;
  INV_ASSIGN_OR_RETURN(const uint16_t slot, ReserveTuple(tuple.size(), &bytes));
  std::memcpy(bytes.data(), tuple.data(), tuple.size());
  return slot;
}

Result<uint16_t> Page::ReserveTuple(size_t need, std::span<std::byte>* bytes) {
  if (need == 0 || need > kPageSize) {
    return Status::InvalidArgument("tuple size out of range");
  }
  if (FreeSpace() < need) {
    return Status::ResourceExhausted("page full");
  }
  const uint16_t slot = num_slots();
  const uint16_t new_upper = static_cast<uint16_t>(Upper() - need);
  *bytes = {p_ + new_upper, need};
  SetLp(slot, new_upper, static_cast<uint16_t>(need));
  SetUpper(new_upper);
  SetLower(static_cast<uint16_t>(Lower() + kLinePointerSize));
  PutU16(p_ + kOffNslots, static_cast<uint16_t>(slot + 1));
  return slot;
}

Result<std::span<const std::byte>> Page::GetTuple(uint16_t slot) const {
  INV_ASSIGN_OR_RETURN(auto extent, TupleExtent(slot));
  return std::span<const std::byte>(p_ + extent.first, extent.second);
}

Result<std::span<std::byte>> Page::GetMutableTuple(uint16_t slot) {
  INV_ASSIGN_OR_RETURN(auto extent, TupleExtent(slot));
  return std::span<std::byte>(p_ + extent.first, extent.second);
}

Result<std::pair<uint16_t, uint16_t>> Page::TupleExtent(uint16_t slot) const {
  if (slot >= num_slots()) {
    return Status::InvalidArgument("slot out of range");
  }
  // A checksum only proves the frame is what was written. The line pointer
  // array must itself end at `lower`, inside the frame, and a live tuple must
  // lie in the tuple data, from `upper` (and never below `lower`) to the
  // frame's end; anything else would hand the caller bytes outside this
  // page's tuples.
  const uint32_t lower = Lower();
  const uint32_t lp_end =
      kPageHeaderSize + (static_cast<uint32_t>(slot) + 1) * kLinePointerSize;
  if (lower > kPageSize || lp_end > lower) {
    return Status::Corruption("line pointer " + std::to_string(slot) +
                              " past the line pointer array (lower " +
                              std::to_string(lower) + ")");
  }
  auto [off, len] = Lp(slot);
  if (len == 0) {
    return std::make_pair(uint16_t{0}, uint16_t{0});  // dead
  }
  const uint32_t floor = std::max<uint32_t>(lower, Upper());
  if (off < floor || static_cast<uint32_t>(off) + len > kPageSize) {
    return Status::Corruption("line pointer " + std::to_string(slot) + " -> [" +
                              std::to_string(off) + "," +
                              std::to_string(static_cast<uint32_t>(off) + len) +
                              ") outside the tuple area [" + std::to_string(floor) +
                              "," + std::to_string(kPageSize) + ")");
  }
  return std::make_pair(off, len);
}

Status Page::KillSlot(uint16_t slot) {
  if (slot >= num_slots()) {
    return Status::InvalidArgument("slot out of range");
  }
  auto [off, len] = Lp(slot);
  SetLp(slot, off, 0);
  return Status::Ok();
}

void Page::Compact() {
  const uint16_t n = num_slots();
  // Collect surviving tuples, rewrite tuple space from the top down.
  std::vector<std::vector<std::byte>> live(n);
  for (uint16_t s = 0; s < n; ++s) {
    auto [off, len] = Lp(s);
    if (len != 0) {
      live[s].assign(p_ + off, p_ + off + len);
    }
  }
  uint16_t upper = kPageSize;
  for (uint16_t s = 0; s < n; ++s) {
    if (live[s].empty()) {
      SetLp(s, 0, 0);
      continue;
    }
    upper = static_cast<uint16_t>(upper - live[s].size());
    std::memcpy(p_ + upper, live[s].data(), live[s].size());
    SetLp(s, upper, static_cast<uint16_t>(live[s].size()));
  }
  SetUpper(upper);
}

}  // namespace invfs

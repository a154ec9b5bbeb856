// Slotted 8 KB page, the unit of storage for every relation (heap and B-tree).
//
// Layout:
//   [0..24)   header: magic, nslots, lower, upper, checksum, self-ident
//   [24..lower)  line pointer array, 4 bytes per slot (offset, length)
//   [upper..8192) tuple data, grown downward
//
// The self-identification fields (owning relation oid + block number) realize
// the paper's proposal that "every block could be tagged with its file
// identifier and block number" to detect media corruption; VerifySelfIdent
// checks them on every buffered read.
//
// The checksum field is a CRC32C over the whole frame (with the field itself
// zeroed). The buffer pool stamps it immediately before a frame reaches a
// device and verifies it on every read back, so any content corruption on
// stable storage — not just mistagged blocks — is detected. A stored value of
// zero means "never stamped" (the page has only ever lived in memory) and is
// not verified.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "src/sim/cost_params.h"
#include "src/storage/common.h"
#include "src/util/status.h"

namespace invfs {

inline constexpr uint16_t kPageMagic = 0x1F5A;
inline constexpr uint32_t kPageHeaderSize = 24;
inline constexpr uint32_t kLinePointerSize = 4;

// A non-owning view over one 8 KB frame. The frame itself lives in the buffer
// pool (or in a caller-provided scratch buffer).
class Page {
 public:
  explicit Page(std::byte* frame) : p_(frame) {}

  // Format an empty page owned by (rel, block).
  void Init(Oid rel, uint32_t block);

  bool IsInitialized() const;
  Status VerifySelfIdent(Oid rel, uint32_t block) const;

  // Stamp the CRC32C of the frame into the header (device write path).
  void UpdateChecksum();
  // Recompute and compare against the stored CRC. A stored CRC of zero means
  // the page was never checksummed and passes vacuously.
  Status VerifyChecksum() const;
  uint32_t StoredChecksum() const;

  // The slotted geometry: `lower` ends the line pointer array of
  // num_slots() slots, and `upper`, where the tuple data begins, lies
  // between `lower` and the frame's end. Corruption otherwise.
  Status VerifyGeometry() const;

  uint16_t num_slots() const;
  // Free bytes available for one more tuple (including its line pointer).
  uint32_t FreeSpace() const;

  // Append a tuple; returns its slot, or ResourceExhausted if it cannot fit.
  Result<uint16_t> AddTuple(std::span<const std::byte> tuple);
  // Append a slot of `size` bytes for the caller to fill in place (*bytes),
  // as AddTuple does with a copy.
  Result<uint16_t> ReserveTuple(size_t size, std::span<std::byte>* bytes);

  // Tuple bytes at `slot`; empty span if the slot is dead. InvalidArgument if
  // the slot is out of range; Corruption if its line pointer reaches outside
  // the page's tuple area, [max(lower, upper), kPageSize).
  Result<std::span<const std::byte>> GetTuple(uint16_t slot) const;
  Result<std::span<std::byte>> GetMutableTuple(uint16_t slot);

  // Mark a slot dead. Space is reclaimed by Compact (vacuum).
  Status KillSlot(uint16_t slot);

  // Reclaim space of dead slots. Slot numbers of surviving tuples are
  // preserved (dead line pointers remain, pointing nowhere) so that TIDs held
  // by indices stay valid until vacuum removes their entries.
  void Compact();

  // Raw frame access for checksumming and device I/O.
  std::byte* frame() { return p_; }
  const std::byte* frame() const { return p_; }

 private:
  uint16_t Lower() const;
  uint16_t Upper() const;
  void SetLower(uint16_t v);
  void SetUpper(uint16_t v);
  // Line pointer accessors. offset==0 && len==0 -> never used; len==0 with
  // offset!=0 -> dead.
  std::pair<uint16_t, uint16_t> Lp(uint16_t slot) const;
  // Bounds-checked (offset, length) of a slot's tuple; (0, 0) if dead.
  Result<std::pair<uint16_t, uint16_t>> TupleExtent(uint16_t slot) const;
  void SetLp(uint16_t slot, uint16_t off, uint16_t len);

  std::byte* p_;
};

}  // namespace invfs

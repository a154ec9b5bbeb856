#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace invfs {

// The logical-to-physical block map of the cost-modelled disks (Inversion's
// devices and the FFS simulator): an owner's (a relation's or a file's)
// blocks live in extents of `extent_pages` contiguous physical pages,
// allocated in logical order from one global cursor. Removed owners leak
// their extents on purpose (no free-space reuse). Not thread-safe; the
// owning device guards it with its own mutex.
class ExtentMap {
 public:
  explicit ExtentMap(uint32_t extent_pages) : extent_pages_(extent_pages) {}

  void Remove(uint32_t owner) { extents_.erase(owner); }
  // Physical address of (owner, block); allocates new extents when `block`
  // crosses the owner's current allocation.
  uint64_t PhysicalAddress(uint32_t owner, uint64_t block) {
    std::vector<uint64_t>& ext = extents_[owner];
    const uint64_t extent_index = block / extent_pages_;
    while (ext.size() <= extent_index) {
      ext.push_back(next_free_extent_++ * extent_pages_);
    }
    return ext[extent_index] + block % extent_pages_;
  }

 private:
  uint32_t extent_pages_;
  uint64_t next_free_extent_ = 0;  // global allocation cursor, in extents
  // Per owner: physical extent bases in logical order.
  std::unordered_map<uint32_t, std::vector<uint64_t>> extents_;
};

}  // namespace invfs

// On-page layout of B-tree nodes and the meta page. Only btree.cc, which
// reads and writes nodes (and checks them for invfs_check through
// WalkBtree), and tests that craft damaged nodes include it.

#pragma once

#include <cstdint>

#include "src/storage/page.h"

namespace invfs::btree_layout {

// Node byte layout (after the 24-byte standard page header):
inline constexpr uint32_t kOffType = 24;        // u8: 1 leaf, 2 internal
inline constexpr uint32_t kOffRightSib = 25;    // u32
inline constexpr uint32_t kOffNKeys = 29;       // u16
inline constexpr uint32_t kOffLeftChild = 31;   // u32 (internal)
inline constexpr uint32_t kOffUsed = 35;        // u16: entry-area bytes in use
inline constexpr uint32_t kOffEntries = 37;
inline constexpr uint32_t kEntryArea = kPageSize - kOffEntries;

inline constexpr uint8_t kNodeLeaf = 1;
inline constexpr uint8_t kNodeInternal = 2;

// Meta page (block 0) layout:
inline constexpr uint32_t kOffMetaMagic = 24;  // u32
inline constexpr uint32_t kOffMetaRoot = 28;   // u32
inline constexpr uint32_t kBtreeMetaMagic = 0xB7EEB7EE;

// Entry encoding per node: u16 key length, key bytes (ending in the
// BTree::kTidSuffix-byte TID), then the payload — leaves carry u32 heap
// block + u16 slot (6 bytes), internal nodes u32 child.

}  // namespace invfs::btree_layout

// Disk-based B+tree access method.
//
// Inversion keeps "a Btree index on the chunk number attribute" of every file
// table so seeks are fast, plus "various Btree indices on the naming table".
// The index maps an order-preserving encoded key (see key_codec.h) to a heap
// TID. Entries are never removed by MVCC deletes — all versions stay indexed
// and visibility is resolved at the heap — so a historical snapshot can use
// the same index ("the appropriate historical version of a file is
// constructed using an index on all of the file's available data, including
// both old and current blocks"). Vacuum removes an entry in place once it
// has expunged the version the entry names.
//
// Layout: block 0 is a meta page holding the root block number; every other
// block is a node. Nodes keep entries byte-packed in sorted order, each a u16
// key length, the stored key (the user key with its TID appended) and the
// payload (btree_layout.h, read only by btree.cc and tests). Searches,
// inserts and removes work on those bytes in place; only a split decodes
// them. WalkBtree below is the one structural check of a tree's pages:
// CheckInvariants runs it over the buffer pool and invfs_check over a raw
// block store.
//
// When every key of the index has one length (no text column: the chunk
// index, fileatt(oid), naming(oid)), the tree is told that width, derived
// from the schema and never stored. Every entry of a node is then the same
// size, so the node is an array: entry i starts at i * stride and a search
// bisects it. A variable-width tree (naming(parent, name)) walks its entries
// from the first. Both read and write the same page bytes.

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/access/key_codec.h"
#include "src/buffer/buffer_pool.h"
#include "src/storage/common.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace invfs {

// The TIDs a lookup finds: one per indexed version of the key. Up to eight
// stay inline, so a probe of a key with a handful of versions allocates
// nothing.
using TidList = InlineVector<Tid, 8>;

class BTree {
 public:
  // Create a fresh index in relation `rel` (already created on its device).
  // `key_width` is the length of every key (FixedKeyWidth), or 0 when the
  // keys vary.
  static Result<std::unique_ptr<BTree>> Create(Oid rel, BufferPool* pool,
                                               size_t key_width);
  // Open an existing index, with the key width it was created with.
  static Result<std::unique_ptr<BTree>> Open(Oid rel, BufferPool* pool,
                                             size_t key_width);

  Oid rel() const { return rel_; }
  size_t key_width() const { return key_width_; }

  // Insert (key, tid). Duplicate keys are allowed; the (key, tid) pair should
  // be unique (the heap never produces the same TID twice). A fixed-width
  // tree refuses a key of another length.
  Status Insert(const BtreeKey& key, Tid tid);

  // Remove the entry matching (key, tid) exactly. NotFound if absent.
  Status Remove(const BtreeKey& key, Tid tid);

  // Point lookup: all TIDs whose key equals `key` (multiple versions).
  Result<TidList> Lookup(const BtreeKey& key) const;

  // Range iteration over keys in [lo, +inf), caller stops when done.
  class Iterator {
   public:
    bool Valid() const { return pos_ < leaf_.size(); }
    // The current entry's user key (its stored key without the TID suffix),
    // valid until the next Advance.
    std::span<const std::byte> key() const;
    Tid tid() const;
    // Moves to the next entry in key order; loads sibling leaves on demand.
    Status Advance();

   private:
    friend class BTree;
    const BTree* tree_ = nullptr;
    // The current leaf's entry bytes from the first entry in range on, copied
    // and validated, so neither the leaf's pin nor the tree latch is held
    // between calls.
    std::vector<std::byte> leaf_;
    size_t pos_ = 0;  // offset of the current entry in leaf_
    uint32_t next_leaf_ = kNoBlock;
    // Sibling hops taken, and the bound on them (see CountHop in btree.cc).
    uint32_t hops_ = 0;
    uint32_t hop_limit_ = 0;
    Status LoadLeaf(uint32_t block, const BtreeKey* lo);
    Status NextLeaf();  // loads next_leaf_, counting the hop
  };

  // Iterator positioned at the first entry with key >= lo (empty lo: first).
  Result<Iterator> Seek(const BtreeKey& lo) const;

  // Structural validation for tests: WalkBtree over the buffer pool, as
  // Corruption naming the first violation it finds.
  Status CheckInvariants() const;

  // Number of entries (full scan; tests and vacuum statistics).
  Result<uint64_t> CountEntries() const;

  static constexpr uint32_t kNoBlock = 0xFFFFFFFF;
  // Stored keys end in the entry's TID, block then slot, big-endian.
  static constexpr size_t kTidSuffix = 6;

 private:
  BTree(Oid rel, BufferPool* pool, size_t key_width)
      : rel_(rel), pool_(pool), key_width_(key_width) {}

  struct SplitResult {
    bool split = false;
    BtreeKey separator;
    uint32_t right_block = 0;
  };

  // Tree-structure helpers. mu_ guards no field directly — the tree lives in
  // buffer-pool pages — but every structural traversal or mutation must run
  // under it, so the helpers carry REQUIRES and the analysis proves the
  // public entry points hold the latch around them. Traversals need it
  // shared (lookups of one tree run side by side), mutations exclusive.
  Result<uint32_t> RootBlock() const REQUIRES_SHARED(mu_);
  Status SetRootBlock(uint32_t root) REQUIRES(mu_);
  Result<uint32_t> NewNode(bool leaf) REQUIRES(mu_);

  // Inserts into the subtree at `block`, `depth` levels below the root. If
  // the node splits, `*result` gets the separator and the new right sibling
  // for the parent to take.
  Status InsertRec(uint32_t block, int depth, const BtreeKey& key, Tid tid,
                   SplitResult* result) REQUIRES(mu_);
  // Descend from `block` to the leaf that could contain `key`.
  Result<uint32_t> FindLeaf(uint32_t block, const BtreeKey& key) const
      REQUIRES_SHARED(mu_);

  Oid rel_;
  BufferPool* pool_;
  const size_t key_width_;  // 0: keys vary in length
  mutable SharedMutex mu_;
};

// Hands `use` the kPageSize bytes of `block` while they are valid, or
// returns false without calling it when the block cannot be read, having
// recorded why.
using BtreePageSource = std::function<bool(
    uint32_t block, const std::function<void(std::span<const std::byte>)>& use)>;

// `violation` gets each broken invariant, under its invfs_check name; false
// ends the walk. `leaf_entry`, if set, gets each entry of every leaf that
// decodes: its stored key (at least kTidSuffix bytes) and payload TID.
struct BtreeWalkVisitor {
  std::function<bool(std::string_view invariant, uint32_t block, std::string detail)>
      violation;
  std::function<void(uint32_t block, size_t index, std::span<const std::byte> key, Tid tid)>
      leaf_entry;
};

// The one structural check of a B-tree of `nblocks` blocks whose keys are
// `key_width` bytes (0: they vary). From the meta page (btree-meta) it reads
// each reachable node once (btree-child-range, btree-cycle), in key order.
// Each node needs a known type (btree-node-type) and entries that the cursor
// every search uses accepts, keys if it is internal (btree-node-encoding),
// and keys that rise strictly (btree-key-order) within its parent's
// separators (btree-key-bounds). Leaves share one depth (btree-depth) and
// the sibling chain threads them in key order (btree-sibling).
void WalkBtree(uint32_t nblocks, size_t key_width, const BtreePageSource& pages,
               const BtreeWalkVisitor& visitor);

}  // namespace invfs

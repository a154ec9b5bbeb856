// Disk-based B+tree access method.
//
// Inversion keeps "a Btree index on the chunk number attribute" of every file
// table so seeks are fast, plus "various Btree indices on the naming table".
// The index maps an order-preserving encoded key (see key_codec.h) to a heap
// TID. Entries are never removed by MVCC deletes — all versions stay indexed
// and visibility is resolved at the heap — so a historical snapshot can use
// the same index ("the appropriate historical version of a file is
// constructed using an index on all of the file's available data, including
// both old and current blocks"). Vacuum rebuilds indices after expunging.
//
// Layout: block 0 is a meta page holding the root block number; every other
// block is a node. Nodes keep entries byte-packed in sorted order.

#pragma once

#include <memory>
#include <vector>

#include "src/access/key_codec.h"
#include "src/buffer/buffer_pool.h"
#include "src/storage/common.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace invfs {

class BTree {
 public:
  // Create a fresh index in relation `rel` (already created on its device).
  static Result<std::unique_ptr<BTree>> Create(Oid rel, BufferPool* pool);
  // Open an existing index.
  static Result<std::unique_ptr<BTree>> Open(Oid rel, BufferPool* pool);

  Oid rel() const { return rel_; }

  // Insert (key, tid). Duplicate keys are allowed; the (key, tid) pair should
  // be unique (the heap never produces the same TID twice).
  Status Insert(const BtreeKey& key, Tid tid);

  // Remove the entry matching (key, tid) exactly. NotFound if absent.
  Status Remove(const BtreeKey& key, Tid tid);

  // Point lookup: all TIDs whose key equals `key` (multiple versions).
  Result<std::vector<Tid>> Lookup(const BtreeKey& key) const;

  // Range iteration over keys in [lo, +inf), caller stops when done.
  class Iterator {
   public:
    bool Valid() const { return pos_ < entries_.size(); }
    const BtreeKey& key() const { return entries_[pos_].first; }
    Tid tid() const { return entries_[pos_].second; }
    // Moves to the next entry in key order; loads sibling leaves on demand.
    Status Advance();

   private:
    friend class BTree;
    const BTree* tree_ = nullptr;
    std::vector<std::pair<BtreeKey, Tid>> entries_;  // current leaf, copied
    size_t pos_ = 0;
    uint32_t next_leaf_ = kNoBlock;
    Status LoadLeaf(uint32_t block, const BtreeKey* lo);
  };

  // Iterator positioned at the first entry with key >= lo (empty lo: first).
  Result<Iterator> Seek(const BtreeKey& lo) const;

  // Structural validation for tests: sorted nodes, uniform leaf depth,
  // ordered sibling chain. Returns Corruption on violation.
  Status CheckInvariants() const;

  // Number of entries (full scan; tests and vacuum statistics).
  Result<uint64_t> CountEntries() const;

  static constexpr uint32_t kNoBlock = 0xFFFFFFFF;

 private:
  BTree(Oid rel, BufferPool* pool) : rel_(rel), pool_(pool) {}

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

  Result<SplitResult> InsertRec(uint32_t block, const BtreeKey& key, Tid tid)
      REQUIRES(mu_);
  // Descend from `block` to the leaf that could contain `key`.
  Result<uint32_t> FindLeaf(uint32_t block, const BtreeKey& key) const
      REQUIRES_SHARED(mu_);
  Result<uint32_t> LeftmostLeaf(uint32_t block) const REQUIRES_SHARED(mu_);

  Oid rel_;
  BufferPool* pool_;
  mutable SharedMutex mu_;
};

}  // namespace invfs

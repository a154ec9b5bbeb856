// Heap access method: the POSTGRES no-overwrite storage manager.
//
// "When a record is updated or deleted, the original record is marked invalid,
// but remains in place. For updates, a new record containing the new values is
// added." Deletion stamps the tuple's xmax; nothing is ever overwritten, so
// every historical version remains readable until the vacuum cleaner archives
// it. Combined with the commit log this gives time travel and instantaneous
// crash recovery.

#pragma once

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/storage/tuple.h"
#include "src/txn/snapshot.h"
#include "src/txn/txn_manager.h"
#include "src/util/inline_vector.h"
#include "src/util/status.h"

namespace invfs {

// Corruption when `tuple`, a live slot's bytes, is shorter than the tuple
// header, which GetTupleMeta reads unchecked: only a corrupt page holds one.
Status CheckTupleHeader(std::span<const std::byte> tuple);

// The heap's slot rule: the one walk of a heap page, for the engine's heap
// reads (under a buffer-pool pin) and invfs_check (over a page read from a
// block store). For each slot of the page in [first, end), in order,
// Page::GetTuple gives its bytes, a dead slot is skipped, and a live slot
// shorter than the tuple header is refused. `live(tid, tuple) -> Result<bool>`
// gets each live version; true ends the walk. `refused(tid, tuple, why) ->
// Status` gets each refused slot, `tuple` empty when its line pointer was
// refused; non-OK ends the walk. Returns whether `live` ended it.
template <typename Live, typename Refused>
Result<bool> WalkHeapPage(const Page& page, uint32_t block, Live&& live, Refused&& refused,
                          uint32_t first = 0, uint32_t end = ~0u) {
  end = std::min<uint32_t>(end, page.num_slots());
  for (uint32_t s = first; s < end; ++s) {
    const Tid tid{block, static_cast<uint16_t>(s)};
    auto tuple = page.GetTuple(tid.slot);
    if (!tuple.ok()) {
      INV_RETURN_IF_ERROR(refused(tid, std::span<const std::byte>(), tuple.status()));
      continue;
    }
    if (tuple->empty()) {
      continue;
    }
    if (Status why = CheckTupleHeader(*tuple); !why.ok()) {
      INV_RETURN_IF_ERROR(refused(tid, *tuple, why));
      continue;
    }
    INV_ASSIGN_OR_RETURN(const bool stop, live(tid, *tuple));
    if (stop) {
      return true;
    }
  }
  return false;
}

class Heap {
 public:
  // `schema` must outlive the heap. The relation must already exist on its
  // device and be bound in the device switch.
  Heap(Oid rel, const Schema* schema, BufferPool* pool, TxnManager* txns);

  Oid rel() const { return rel_; }
  const Schema& schema() const { return *schema_; }

  // Append a new tuple version stamped xmin=txn. `row_oid` is the logical row
  // oid (catalogs use it; 0 elsewhere).
  Result<Tid> Insert(TxnId txn, const Row& row, Oid row_oid = kInvalidOid);

  // Append a copy of the stored version `tuple`, header and all, so it keeps
  // its original xmin/xmax: vacuum moves versions into the archive with it.
  // `txn` only notes the touched relation for the commit force policy.
  Result<Tid> InsertStored(TxnId txn, std::span<const std::byte> tuple);

  // Mark the version at `tid` deleted by `txn` (sets xmax in place — the one
  // in-place mutation the no-overwrite scheme performs). Fails with
  // AlreadyExists if a live deleter already claimed it (write-write conflict).
  Status Delete(TxnId txn, Tid tid);

  // Replace = delete old version + insert new version, atomically within txn.
  Result<Tid> Replace(TxnId txn, Tid old_tid, const Row& new_row,
                      Oid row_oid = kInvalidOid);

  // Every heap read is one of these. Call `fn(tuple)` with the page's own
  // bytes of the version at `tid` if it is visible under `snap`; returns
  // whether it was, or `fn`'s error. `fn` runs with the page pinned and
  // latched shared: it must copy out what it keeps and must not pin, latch,
  // lock or do I/O.
  template <typename Fn>
  Result<bool> Visit(const Snapshot& snap, Tid tid, Fn&& fn) const {
    return VisitIf([&snap](const TupleMeta& m) { return snap.IsVisible(m); }, tid, fn);
  }
  // Call `fn(tid, tuple) -> Result<bool>` for each version visible under
  // `snap`, in TID order, until it returns true or an error. Pins each page
  // once; `fn` runs under the page latch, with Visit's rules.
  template <typename Fn>
  Status VisitEach(const Snapshot& snap, Fn&& fn) const {
    return VisitEachIf([&snap](const TupleMeta& m) { return snap.IsVisible(m); }, fn);
  }
  // Visit and VisitEach over every stored version, visible or not: vacuum
  // and the reclaim after it.
  template <typename Fn>
  Result<bool> VisitStored(Tid tid, Fn&& fn) const {
    return VisitIf([](const TupleMeta&) { return true; }, tid, fn);
  }
  template <typename Fn>
  Status VisitEachStored(Fn&& fn) const {
    return VisitEachIf([](const TupleMeta&) { return true; }, fn);
  }

  Result<uint32_t> NumBlocks() const { return pool_->NumBlocks(rel_); }

  // Physically remove the versions at `dead` and compact each page that held
  // one, keeping slot numbers (vacuum only; ordinary deletes never do this).
  Status Expunge(std::vector<Tid> dead);

 private:
  // Reserves a fresh slot of `size` bytes and calls `write(bytes)` to fill
  // it under the page's exclusive latch.
  template <typename Write>
  Result<Tid> Place(TxnId txn, uint32_t size, Write write);
  // Pin `block` for a read; nullopt when the block lies past the persisted
  // end of the heap (a dangling TID, see heap.cc).
  Result<std::optional<PageRef>> PinForRead(uint32_t block) const;
  // The engine refuses what the slot rule refuses.
  static Status Refuse(Tid, std::span<const std::byte>, const Status& why) { return why; }
  template <typename Visible, typename Fn>
  Result<bool> VisitIf(Visible visible, Tid tid, Fn& fn) const;
  template <typename Visible, typename Fn>
  Status VisitEachIf(Visible visible, Fn& fn) const;

  Oid rel_;
  const Schema* schema_;
  BufferPool* pool_;
  TxnManager* txns_;
  // Insertion target: last block known to have had space. Atomic because
  // concurrent inserters (distinct transactions under table locks, or the
  // MT stress harness) may race on the hint; it is advisory only.
  mutable std::atomic<uint32_t> hint_block_{0};
};

// The "moved twice" rule. Vacuum copies a dead version's stored bytes into
// the archive and expunges it from the heap only after its commit, so an
// abort or a crash in between, or a second vacuum in one transaction, leaves
// the version in both. A reader of both must meet it once, and a vacuum must
// not copy it again. The rule is byte identity, in three steps: Note the
// heap versions that may have a copy; hand each archive version to CopyOut,
// under the archive page's latch, which keeps those stamped like a note;
// then Pair, after that visit, matches each copy with at most one noted
// version of equal stored bytes. No heap page is pinned under an archive
// latch.
class ArchivePairing {
 public:
  struct Noted {
    Tid tid;
    TxnId xmin = kInvalidTxn;
    TxnId xmax = kInvalidTxn;
    bool paired = false;
  };
  struct Copy {
    Tid tid;  // in the archive
    std::vector<std::byte> bytes;
    bool paired = false;
  };

  // Notes the heap version `tuple` at `tid` if it may have a copy: only a
  // deleted version can.
  void Note(Tid tid, std::span<const std::byte> tuple) {
    if (const TupleMeta meta = GetTupleMeta(tuple); meta.xmax != kInvalidTxn) {
      notes_.push_back(Noted{tid, meta.xmin, meta.xmax});
      sorted_ = false;
    }
  }
  // Keeps a copy of the archive version `tuple` at `tid` if a note shares
  // its xmin and xmax; returns whether it did.
  bool CopyOut(Tid tid, std::span<const std::byte> tuple);
  // Pairs each copy with at most one noted version whose bytes in `heap`
  // equal it; a noted version gone from the heap pairs with nothing.
  Status Pair(const Heap& heap);

  // The notes, in xmin, xmax order once CopyOut ran.
  std::span<const Noted> notes() const { return notes_; }
  std::span<const Copy> copies() const { return copies_; }

 private:
  // An index probe notes a few versions: inline, they allocate nothing.
  InlineVector<Noted, 8> notes_;
  std::vector<Copy> copies_;
  bool sorted_ = true;
};

template <typename Visible, typename Fn>
Result<bool> Heap::VisitIf(Visible visible, Tid tid, Fn& fn) const {
  INV_ASSIGN_OR_RETURN(std::optional<PageRef> ref, PinForRead(tid.block));
  if (!ref.has_value()) {
    return false;
  }
  // Page latch: a concurrent writer may be stamping xmax or appending a
  // slot on this page; readers hold no table lock.
  ReaderMutexLock latch(ref->Latch());
  bool visited = false;
  auto one = [&](Tid, std::span<const std::byte> tuple) -> Result<bool> {
    if (visible(GetTupleMeta(tuple))) {
      INV_RETURN_IF_ERROR(fn(tuple));
      visited = true;
    }
    return true;
  };
  // A slot past the page's last is a dangling entry (see PinForRead).
  INV_RETURN_IF_ERROR(
      WalkHeapPage(ref->page(), tid.block, one, Refuse, tid.slot, tid.slot + 1u).status());
  return visited;
}

template <typename Visible, typename Fn>
Status Heap::VisitEachIf(Visible visible, Fn& fn) const {
  INV_ASSIGN_OR_RETURN(uint32_t nblocks, pool_->NumBlocks(rel_));
  auto each = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    return visible(GetTupleMeta(tuple)) ? fn(tid, tuple) : false;
  };
  for (uint32_t block = 0; block < nblocks; ++block) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, block));
    ReaderMutexLock latch(ref.Latch());
    INV_ASSIGN_OR_RETURN(const bool stop, WalkHeapPage(ref.page(), block, each, Refuse));
    if (stop) {
      return Status::Ok();
    }
  }
  return Status::Ok();
}

}  // namespace invfs

#include "src/access/heap.h"

#include <algorithm>
#include <string>

#include "src/fault/crash_points.h"

namespace invfs {
namespace {

// GetTupleMeta reads the fixed header unchecked; a live slot shorter than it
// can only come from a corrupt page.
Status CheckTupleHeader(std::span<const std::byte> tuple) {
  if (tuple.size() < kTupleFixedHeader) {
    return Status::Corruption("tuple of " + std::to_string(tuple.size()) +
                              " bytes is shorter than the tuple header");
  }
  return Status::Ok();
}

}  // namespace

Heap::Heap(Oid rel, const Schema* schema, BufferPool* pool, TxnManager* txns)
    : rel_(rel), schema_(schema), pool_(pool), txns_(txns) {}

Result<Tid> Heap::Insert(TxnId txn, const Row& row, Oid row_oid) {
  return InsertRaw(txn, row, TupleMeta{row_oid, txn, kInvalidTxn});
}

Result<Tid> Heap::InsertRaw(TxnId txn, const Row& row, const TupleMeta& meta) {
  INV_ASSIGN_OR_RETURN(const uint32_t size, EncodedTupleSize(*schema_, row));
  if (size + kLinePointerSize > kPageSize - kPageHeaderSize) {
    return Status::InvalidArgument("tuple does not fit on one page (" +
                                   std::to_string(size) + " bytes)");
  }
  txns_->NoteTouched(txn, rel_);
  CrashPointRegistry::Hit("heap.insert");
  // Encodes the row straight into a fresh slot of `page`, whose exclusive
  // latch the caller holds.
  auto place = [&](Page page) -> Result<uint16_t> {
    std::span<std::byte> bytes;
    INV_ASSIGN_OR_RETURN(const uint16_t slot, page.ReserveTuple(size, &bytes));
    EncodeTupleInto(*schema_, row, meta, bytes);
    return slot;
  };

  INV_ASSIGN_OR_RETURN(uint32_t nblocks, pool_->NumBlocks(rel_));
  // Try the hint block (normally the last block), then extend.
  if (nblocks > 0) {
    const uint32_t hint = hint_block_.load(std::memory_order_relaxed);
    uint32_t target = hint < nblocks ? hint : nblocks - 1;
    // Also try the true last block if the hint is stale.
    for (uint32_t candidate : {target, nblocks - 1}) {
      INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, candidate));
      std::optional<uint16_t> slot;
      {
        // Page latch: lock-free snapshot readers may be decoding this page.
        WriterMutexLock latch(ref.Latch());
        auto added = place(ref.page());
        if (added.ok()) {
          slot = *added;
          ref.MarkDirty();
        }
      }
      if (slot.has_value()) {
        hint_block_.store(candidate, std::memory_order_relaxed);
        return Tid{candidate, *slot};
      }
      if (candidate == nblocks - 1) {
        break;
      }
    }
  }
  uint32_t new_block = 0;
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Extend(rel_, &new_block));
  uint16_t slot = 0;
  {
    WriterMutexLock latch(ref.Latch());
    INV_ASSIGN_OR_RETURN(slot, place(ref.page()));
    ref.MarkDirty();
  }
  hint_block_.store(new_block, std::memory_order_relaxed);
  return Tid{new_block, slot};
}

Status Heap::Delete(TxnId txn, Tid tid) {
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, tid.block));
  // Page latch across the check-and-stamp: the xmax write is the one
  // in-place mutation of the no-overwrite scheme, and lock-free readers
  // decode this tuple's meta with no table lock held.
  WriterMutexLock latch(ref.Latch());
  Page page = ref.page();
  INV_ASSIGN_OR_RETURN(auto tuple, page.GetMutableTuple(tid.slot));
  if (tuple.empty()) {
    return Status::NotFound("tuple " + tid.ToString() + " is gone");
  }
  INV_RETURN_IF_ERROR(CheckTupleHeader(tuple));
  TupleMeta meta = GetTupleMeta(tuple);
  if (meta.xmax != kInvalidTxn && meta.xmax != txn) {
    // A previous deleter exists. Only an *aborted* deleter may be overridden.
    const TxnStatus st = txns_->log().StatusOf(meta.xmax);
    if (st != TxnStatus::kAborted) {
      return Status::AlreadyExists("tuple " + tid.ToString() +
                                   " already deleted by txn " +
                                   std::to_string(meta.xmax));
    }
  }
  SetTupleXmax(tuple, txn);
  ref.MarkDirty();
  txns_->NoteTouched(txn, rel_);
  return Status::Ok();
}

Result<Tid> Heap::Replace(TxnId txn, Tid old_tid, const Row& new_row, Oid row_oid) {
  INV_RETURN_IF_ERROR(Delete(txn, old_tid));
  return Insert(txn, new_row, row_oid);
}

Result<std::optional<PageRef>> Heap::PinForRead(uint32_t block) const {
  // A TID past the persisted end of the heap is a dangling reference from a
  // write-through index whose heap page never reached disk before a crash.
  // Force-at-commit flushes data pages before the commit record, so the
  // entry's writer never committed: the tuple is invisible by construction,
  // not an error. Checked only on the failure path so fetches that resolve
  // stay zero-overhead.
  auto ref_or = pool_->Pin(rel_, block);
  if (!ref_or.ok()) {
    auto nblocks = pool_->NumBlocks(rel_);
    if (nblocks.ok() && block >= *nblocks) {
      return std::optional<PageRef>();
    }
    return ref_or.status();
  }
  return std::optional<PageRef>(std::move(*ref_or));
}

Result<std::span<const std::byte>> Heap::VisibleTuple(const Page& page, uint16_t slot,
                                                      const Snapshot& snap) {
  if (slot >= page.num_slots()) {
    return std::span<const std::byte>();  // dangling entry; see PinForRead
  }
  INV_ASSIGN_OR_RETURN(auto tuple, page.GetTuple(slot));
  if (tuple.empty()) {
    return tuple;
  }
  INV_RETURN_IF_ERROR(CheckTupleHeader(tuple));
  if (!snap.IsVisible(GetTupleMeta(tuple))) {
    return std::span<const std::byte>();
  }
  return tuple;
}

Result<std::optional<Row>> Heap::Fetch(const Snapshot& snap, Tid tid) const {
  std::optional<Row> row;
  auto decode = [&](std::span<const std::byte> tuple) -> Status {
    INV_ASSIGN_OR_RETURN(row, DecodeTuple(*schema_, tuple));
    return Status::Ok();
  };
  INV_RETURN_IF_ERROR(Visit(snap, tid, decode).status());
  return row;
}

Result<std::pair<TupleMeta, Row>> Heap::FetchAny(Tid tid) const {
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, tid.block));
  ReaderMutexLock latch(ref.Latch());
  Page page = ref.page();
  INV_ASSIGN_OR_RETURN(auto tuple, page.GetTuple(tid.slot));
  if (tuple.empty()) {
    return Status::NotFound("tuple " + tid.ToString() + " is gone");
  }
  INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(*schema_, tuple));
  return std::make_pair(GetTupleMeta(tuple), std::move(row));
}

bool Heap::Iterator::Next() {
  if (!status_.ok()) {
    return false;
  }
  if (!began_) {
    began_ = true;
    auto nb = heap_->pool_->NumBlocks(heap_->rel_);
    if (!nb.ok()) {
      status_ = nb.status();
      return false;
    }
    nblocks_ = *nb;
    block_ = 0;
    slot_ = 0;
  }
  while (block_ < nblocks_) {
    if (!page_.valid()) {
      auto ref = heap_->pool_->Pin(heap_->rel_, block_);
      if (!ref.ok()) {
        status_ = ref.status();
        return false;
      }
      page_ = std::move(*ref);
      slot_ = 0;
    }
    {
      // Page latch for the slot walk: concurrent in-place writers (xmax
      // stamps, appends, vacuum compaction) share this page with lock-free
      // readers. Released before returning a row — row_ is a materialized
      // copy, and slot numbering is stable across vacuum's Compact, so the
      // cursor position survives re-acquisition on the next call.
      ReaderMutexLock latch(page_.Latch());
      Page page(page_.data());
      const uint16_t nslots = page.num_slots();
      while (slot_ < nslots) {
        const uint16_t s = slot_++;
        auto tuple = page.GetTuple(s);
        if (!tuple.ok()) {
          status_ = tuple.status();
          return false;
        }
        if (tuple->empty()) {
          continue;  // expunged slot
        }
        if (Status header = CheckTupleHeader(*tuple); !header.ok()) {
          status_ = header;
          return false;
        }
        meta_ = GetTupleMeta(*tuple);
        if (!include_invisible_ && !snap_.IsVisible(meta_)) {
          continue;
        }
        auto row = DecodeTuple(*heap_->schema_, *tuple);
        if (!row.ok()) {
          status_ = row.status();
          return false;
        }
        row_ = std::move(*row);
        tid_ = Tid{block_, s};
        return true;
      }
    }
    page_.Release();
    ++block_;
  }
  return false;
}

Status Heap::Expunge(std::vector<Tid> dead) {
  std::sort(dead.begin(), dead.end());
  for (auto at = dead.begin(); at != dead.end();) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, at->block));
    // Compact rewrites tuple bytes but preserves slot numbering, so a
    // lock-free reader parked between two pages resumes correctly; the
    // latch makes the byte movement invisible to one parked *on* this page.
    WriterMutexLock latch(ref.Latch());
    Page page = ref.page();
    const uint32_t block = at->block;
    for (; at != dead.end() && at->block == block; ++at) {
      INV_RETURN_IF_ERROR(page.KillSlot(at->slot));
    }
    page.Compact();
    ref.MarkDirty();
  }
  return Status::Ok();
}

}  // namespace invfs

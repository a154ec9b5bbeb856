#include "src/access/heap.h"

#include "src/fault/crash_points.h"

namespace invfs {

Heap::Heap(Oid rel, const Schema* schema, BufferPool* pool, TxnManager* txns)
    : rel_(rel), schema_(schema), pool_(pool), txns_(txns) {}

Result<Tid> Heap::Insert(TxnId txn, const Row& row, Oid row_oid) {
  return InsertRaw(txn, row, TupleMeta{row_oid, txn, kInvalidTxn});
}

Result<Tid> Heap::InsertRaw(TxnId txn, const Row& row, const TupleMeta& meta) {
  INV_ASSIGN_OR_RETURN(auto encoded, EncodeTuple(*schema_, row, meta));
  if (encoded.size() + kLinePointerSize > kPageSize - kPageHeaderSize) {
    return Status::InvalidArgument("tuple does not fit on one page (" +
                                   std::to_string(encoded.size()) + " bytes)");
  }
  txns_->NoteTouched(txn, rel_);
  CrashPointRegistry::Hit("heap.insert");

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
        Page page = ref.page();
        auto added = page.AddTuple(encoded);
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
    Page page = ref.page();
    INV_ASSIGN_OR_RETURN(slot, page.AddTuple(encoded));
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

Result<std::optional<Row>> Heap::Fetch(const Snapshot& snap, Tid tid) const {
  // A TID past the persisted end of the heap is a dangling reference from a
  // write-through index whose heap page never reached disk before a crash.
  // Force-at-commit flushes data pages before the commit record, so the
  // entry's writer never committed: the tuple is invisible by construction,
  // not an error. Checked only on the failure path so fetches that resolve
  // stay zero-overhead.
  auto ref_or = pool_->Pin(rel_, tid.block);
  if (!ref_or.ok()) {
    auto nblocks = pool_->NumBlocks(rel_);
    if (nblocks.ok() && tid.block >= *nblocks) {
      return std::optional<Row>();
    }
    return ref_or.status();
  }
  PageRef ref = std::move(*ref_or);
  // Page latch: a concurrent writer may be stamping xmax or appending a
  // slot on this page; readers hold no table lock.
  ReaderMutexLock latch(ref.Latch());
  Page page = ref.page();
  if (tid.slot >= page.num_slots()) {
    return std::optional<Row>();  // dangling entry; see above
  }
  INV_ASSIGN_OR_RETURN(auto tuple, page.GetTuple(tid.slot));
  if (tuple.empty()) {
    return std::optional<Row>();
  }
  if (!snap.IsVisible(GetTupleMeta(tuple))) {
    return std::optional<Row>();
  }
  INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(*schema_, tuple));
  return std::optional<Row>(std::move(row));
}

Result<std::optional<Value>> Heap::FetchColumn(const Snapshot& snap, Tid tid,
                                               size_t column) const {
  // Dangling post-crash index entries are invisible, not errors; see Fetch.
  auto ref_or = pool_->Pin(rel_, tid.block);
  if (!ref_or.ok()) {
    auto nblocks = pool_->NumBlocks(rel_);
    if (nblocks.ok() && tid.block >= *nblocks) {
      return std::optional<Value>();
    }
    return ref_or.status();
  }
  PageRef ref = std::move(*ref_or);
  ReaderMutexLock latch(ref.Latch());
  Page page = ref.page();
  if (tid.slot >= page.num_slots()) {
    return std::optional<Value>();
  }
  INV_ASSIGN_OR_RETURN(auto tuple, page.GetTuple(tid.slot));
  if (tuple.empty() || !snap.IsVisible(GetTupleMeta(tuple))) {
    return std::optional<Value>();
  }
  INV_ASSIGN_OR_RETURN(Value v, DecodeColumn(*schema_, tuple, column));
  return std::optional<Value>(std::move(v));
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

Status Heap::Expunge(Tid tid) {
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, tid.block));
  WriterMutexLock latch(ref.Latch());
  Page page = ref.page();
  INV_RETURN_IF_ERROR(page.KillSlot(tid.slot));
  ref.MarkDirty();
  return Status::Ok();
}

Status Heap::CompactAllPages() {
  INV_ASSIGN_OR_RETURN(uint32_t nblocks, pool_->NumBlocks(rel_));
  for (uint32_t b = 0; b < nblocks; ++b) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, b));
    // Compact rewrites tuple bytes but preserves slot numbering, so a
    // lock-free reader parked between two pages resumes correctly; the
    // latch makes the byte movement invisible to one parked *on* this page.
    WriterMutexLock latch(ref.Latch());
    Page page = ref.page();
    page.Compact();
    ref.MarkDirty();
  }
  return Status::Ok();
}

}  // namespace invfs

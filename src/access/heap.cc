#include "src/access/heap.h"

#include <algorithm>
#include <string>

#include "src/fault/crash_points.h"

namespace invfs {

Heap::Heap(Oid rel, const Schema* schema, BufferPool* pool, TxnManager* txns)
    : rel_(rel), schema_(schema), pool_(pool), txns_(txns) {}

Result<Tid> Heap::Insert(TxnId txn, const Row& row, Oid row_oid) {
  INV_ASSIGN_OR_RETURN(const uint32_t size, EncodedTupleSize(*schema_, row));
  return Place(txn, size, [&](std::span<std::byte> bytes) {
    EncodeTupleInto(*schema_, row, TupleMeta{row_oid, txn, kInvalidTxn}, bytes);
  });
}

Result<Tid> Heap::InsertStored(TxnId txn, std::span<const std::byte> tuple) {
  return Place(txn, static_cast<uint32_t>(tuple.size()), [&](std::span<std::byte> bytes) {
    std::copy(tuple.begin(), tuple.end(), bytes.begin());
  });
}

template <typename Write>
Result<Tid> Heap::Place(TxnId txn, uint32_t size, Write write) {
  if (size + kLinePointerSize > kPageSize - kPageHeaderSize) {
    return Status::InvalidArgument("tuple does not fit on one page (" +
                                   std::to_string(size) + " bytes)");
  }
  txns_->NoteTouched(txn, rel_);
  CrashPointRegistry::Hit("heap.insert");
  // Fills a fresh slot of `page`, whose exclusive latch the caller holds.
  auto place = [&](Page page) -> Result<uint16_t> {
    std::span<std::byte> bytes;
    INV_ASSIGN_OR_RETURN(const uint16_t slot, page.ReserveTuple(size, &bytes));
    write(bytes);
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

Status CheckTupleHeader(std::span<const std::byte> tuple) {
  // GetTupleMeta reads the fixed header unchecked.
  if (tuple.size() < kTupleFixedHeader) {
    return Status::Corruption("tuple of " + std::to_string(tuple.size()) +
                              " bytes is shorter than the tuple header");
  }
  return Status::Ok();
}

Status Heap::Expunge(std::vector<Tid> dead) {
  std::sort(dead.begin(), dead.end());
  for (auto at = dead.begin(); at != dead.end();) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, at->block));
    // Compact rewrites tuple bytes but keeps slot numbers, so every TID an
    // index holds keeps its meaning; the latch hides the byte movement from
    // lock-free readers, who visit a page only under it.
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

bool ArchivePairing::CopyOut(Tid tid, std::span<const std::byte> tuple) {
  auto by_stamps = [](const Noted& a, const Noted& b) {
    return std::pair(a.xmin, a.xmax) < std::pair(b.xmin, b.xmax);
  };
  if (!sorted_) {
    std::sort(notes_.begin(), notes_.end(), by_stamps);
    sorted_ = true;
  }
  const TupleMeta meta = GetTupleMeta(tuple);
  if (!std::binary_search(notes_.begin(), notes_.end(), Noted{tid, meta.xmin, meta.xmax},
                          by_stamps)) {
    return false;
  }
  copies_.push_back(Copy{tid, std::vector<std::byte>(tuple.begin(), tuple.end())});
  return true;
}

Status ArchivePairing::Pair(const Heap& heap) {
  for (Noted* noted = notes_.begin(); noted != notes_.end() && !copies_.empty(); ++noted) {
    auto stamped_alike = [&](const Copy& copy) {
      const TupleMeta meta = GetTupleMeta(copy.bytes);
      return meta.xmin == noted->xmin && meta.xmax == noted->xmax;
    };
    if (std::none_of(copies_.begin(), copies_.end(), stamped_alike)) {
      continue;
    }
    auto match = [&](std::span<const std::byte> tuple) {
      for (Copy& copy : copies_) {
        if (!copy.paired && std::ranges::equal(copy.bytes, tuple)) {
          copy.paired = noted->paired = true;
          break;
        }
      }
      return Status::Ok();
    };
    INV_RETURN_IF_ERROR(heap.VisitStored(noted->tid, match).status());
  }
  return Status::Ok();
}

}  // namespace invfs

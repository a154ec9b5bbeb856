// Test helpers: a heap's versions, read through Heap::VisitEach (or its
// every-version form), or one through Heap::Visit, and decoded.

#pragma once

#include <optional>
#include <vector>

#include "src/access/heap.h"

namespace invfs {

// One version a test read: its TID, header and row.
struct HeapRow {
  Tid tid;
  TupleMeta meta;
  Row row;
};

// The versions of `heap` visible under `snap` or, with no snapshot, every
// stored version, visible or not; in TID order.
inline Result<std::vector<HeapRow>> HeapRows(const Heap& heap,
                                             const Snapshot* snap = nullptr) {
  std::vector<HeapRow> out;
  auto collect = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    INV_ASSIGN_OR_RETURN(Row row, DecodeTuple(heap.schema(), tuple));
    out.push_back(HeapRow{tid, GetTupleMeta(tuple), std::move(row)});
    return false;
  };
  INV_RETURN_IF_ERROR(snap != nullptr ? heap.VisitEach(*snap, collect)
                                      : heap.VisitEachStored(collect));
  return out;
}

inline Result<std::vector<HeapRow>> HeapRows(const Heap& heap, const Snapshot& snap) {
  return HeapRows(heap, &snap);
}

// The row at `tid` if it is visible under `snap`: Heap::Visit plus a decode.
inline Result<std::optional<Row>> FetchRow(const Heap& heap, const Snapshot& snap, Tid tid) {
  std::optional<Row> row;
  INV_RETURN_IF_ERROR(heap.Visit(snap, tid, [&](std::span<const std::byte> tuple) -> Status {
    INV_ASSIGN_OR_RETURN(row, DecodeTuple(heap.schema(), tuple));
    return Status::Ok();
  }).status());
  return row;
}

}  // namespace invfs

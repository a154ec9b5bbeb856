// On-page tuple format with the POSTGRES no-overwrite MVCC header.
//
// Every tuple carries (oid, xmin, xmax): xmin is the transaction that wrote
// this version, xmax the transaction that deleted/replaced it (0 while the
// version is current). Records are never updated in place — a replace marks
// the old version's xmax and appends a new version — which is precisely the
// mechanism that gives Inversion time travel and log-less crash recovery.
//
// Encoding (little-endian, unaligned):
//   u32 oid | u32 xmin | u32 xmax | u16 natts | null bitmap (ceil(natts/8))
//   then per column in schema order:
//     bool: 1 byte;  int4/oid: 4;  int8/float8/timestamp: 8
//     text/bytea: u32 length + bytes
//   null columns contribute no data bytes.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/storage/common.h"
#include "src/storage/value.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace invfs {

inline constexpr uint32_t kTupleFixedHeader = 14;  // oid + xmin + xmax + natts

struct TupleMeta {
  Oid oid = kInvalidOid;
  TxnId xmin = kInvalidTxn;
  TxnId xmax = kInvalidTxn;
};

// Serialize a row. `row` must match `schema` (same arity, compatible types).
Result<std::vector<std::byte>> EncodeTuple(const Schema& schema, const Row& row,
                                           const TupleMeta& meta);
// Serialize a row in place: `out` is exactly EncodedTupleSize(schema, row)
// bytes, which also checked `row` against `schema`. Writes every byte.
void EncodeTupleInto(const Schema& schema, const Row& row, const TupleMeta& meta,
                     std::span<std::byte> out);

// Decode all columns of a tuple.
Result<Row> DecodeTuple(const Schema& schema, std::span<const std::byte> tuple);

// One column of an encoded tuple, seen in place. `bytes` points into the
// tuple: a fixed-width value's encoding, or a text/bytea payload without its
// length word. Valid only while the tuple's bytes are.
struct ColumnView {
  bool null = true;
  std::span<const std::byte> bytes;

  int32_t Int4() const { return static_cast<int32_t>(GetU32(bytes.data())); }
  int64_t Int8() const { return static_cast<int64_t>(GetU64(bytes.data())); }
  Oid AsOid() const { return GetU32(bytes.data()); }
};

// View every column of `tuple` without copying: views[i] for column i.
// `views` must have one entry per schema column. The hot path for chunk
// reads, which copy the data column once, straight out of the page.
Status ViewColumns(const Schema& schema, std::span<const std::byte> tuple,
                   std::span<ColumnView> views);

// Header accessors (no full decode).
TupleMeta GetTupleMeta(std::span<const std::byte> tuple);
void SetTupleXmax(std::span<std::byte> tuple, TxnId xmax);

// Size in bytes a row will occupy once encoded.
Result<uint32_t> EncodedTupleSize(const Schema& schema, const Row& row);

}  // namespace invfs

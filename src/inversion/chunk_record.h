// The chunk record rule of the file system's chunk reads, header-only so that
// invfs_check applies it without linking the file system: a file's chunk
// table name, its records' schema and geometry, and what a sound record holds.

#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/storage/page.h"
#include "src/storage/tuple.h"

namespace invfs {

// ---- chunk geometry ---------------------------------------------------------
// Chunk record: (chunkno int4, data bytea, selfid int8, rawlen int4-or-null).
// Encoded tuple overhead: 14-byte header + 1-byte null bitmap + 4 (chunkno)
// + 4 (bytea length word) + 8 (selfid) = 31 bytes; page overhead: 24-byte
// page header + 4-byte line pointer. One full chunk record exactly fills a
// page:
inline constexpr uint32_t kInvTupleOverhead = kTupleFixedHeader + 1 + 4 + 4 + 8;
inline constexpr uint32_t kInvChunkSize =
    kPageSize - kPageHeaderSize - kLinePointerSize - kInvTupleOverhead;  // 8133
static_assert(kInvChunkSize > 8000 && kInvChunkSize < kPageSize);

inline Schema ChunkTableSchema() {
  return Schema{{"chunkno", TypeId::kInt4},
                {"data", TypeId::kBytea},
                {"selfid", TypeId::kInt8},
                {"rawlen", TypeId::kInt4}};
}

// "For every file, a uniquely-named table is created": inv<oid>.
inline std::string ChunkTableName(Oid file) { return "inv" + std::to_string(file); }

// The file whose chunk table is named `name`, or kInvalidOid.
inline Oid ChunkTableFile(std::string_view name) {
  Oid file = kInvalidOid;
  const char* end = name.data() + name.size();
  if (name.starts_with("inv")) {
    const auto [last, ec] = std::from_chars(name.data() + 3, end, file);
    return ec == std::errc() && last == end ? file : kInvalidOid;
  }
  return kInvalidOid;
}

// Every chunk record identifies itself as (file oid << 32) | chunkno: a
// record read under another file or chunk was misdirected or cross-linked.
inline int64_t ChunkSelfIdent(Oid file, int64_t chunkno) {
  return (static_cast<int64_t>(file) << 32) | chunkno;
}

// A chunk record's columns as the rule reads them, from the record's column
// views (ViewColumns).
struct ChunkFields {
  std::optional<int32_t> chunkno;
  std::optional<int64_t> selfid;
  bool has_data = false;
  size_t length = 0;  // the chunk's bytes: rawlen when set, else the data's

  static ChunkFields Of(std::span<const ColumnView, 4> c) {
    return {c[0].null ? std::nullopt : std::optional(c[0].Int4()),
            c[2].null ? std::nullopt : std::optional(c[2].Int8()), !c[1].null,
            c[3].null ? c[1].bytes.size() : static_cast<size_t>(c[3].Int4())};
  }
};

// The invariant a chunk record of `file` breaks, or "" when it is sound:
//   chunk-number      no chunk number, or a negative one;
//   chunk-data-null   no data;
//   chunk-length      more bytes than one chunk holds (kInvChunkSize);
//   chunk-self-ident  no self-identifier, or not ChunkSelfIdent's.
inline std::string_view ChunkRecordFault(Oid file, const ChunkFields& f) {
  if (!f.chunkno || *f.chunkno < 0) {
    return "chunk-number";
  }
  if (!f.has_data) {
    return "chunk-data-null";
  }
  if (f.length > kInvChunkSize) {
    return "chunk-length";
  }
  if (!f.selfid || *f.selfid != ChunkSelfIdent(file, *f.chunkno)) {
    return "chunk-self-ident";
  }
  return "";
}

}  // namespace invfs

#include "src/storage/tuple.h"

#include <cstring>

#include "src/util/bytes.h"

namespace invfs {
namespace {

bool IsVarlen(TypeId t) { return t == TypeId::kText || t == TypeId::kBytea; }

uint32_t FixedWidth(TypeId t) {
  switch (t) {
    case TypeId::kBool:
      return 1;
    case TypeId::kInt4:
    case TypeId::kOid:
      return 4;
    case TypeId::kInt8:
    case TypeId::kFloat8:
    case TypeId::kTimestamp:
      return 8;
    case TypeId::kText:
    case TypeId::kBytea:
      return 0;
  }
  return 0;
}

Status CheckRow(const Schema& schema, const Row& row) {
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " != schema arity " +
                                   std::to_string(schema.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && !row[i].HasType(schema.column(i).type)) {
      return Status::InvalidArgument("column " + schema.column(i).name +
                                     " type mismatch: got " + row[i].ToString());
    }
  }
  return Status::Ok();
}

uint32_t ValueDataSize(TypeId t, const Value& v) {
  if (v.is_null()) {
    return 0;
  }
  if (t == TypeId::kText) {
    return 4 + static_cast<uint32_t>(v.AsText().size());
  }
  if (t == TypeId::kBytea) {
    return 4 + static_cast<uint32_t>(v.AsBytes().size());
  }
  return FixedWidth(t);
}

}  // namespace

Result<uint32_t> EncodedTupleSize(const Schema& schema, const Row& row) {
  INV_RETURN_IF_ERROR(CheckRow(schema, row));
  uint32_t size = kTupleFixedHeader + (static_cast<uint32_t>(row.size()) + 7) / 8;
  for (size_t i = 0; i < row.size(); ++i) {
    size += ValueDataSize(schema.column(i).type, row[i]);
  }
  return size;
}

Result<std::vector<std::byte>> EncodeTuple(const Schema& schema, const Row& row,
                                           const TupleMeta& meta) {
  INV_ASSIGN_OR_RETURN(uint32_t size, EncodedTupleSize(schema, row));
  std::vector<std::byte> out(size);
  EncodeTupleInto(schema, row, meta, out);
  return out;
}

void EncodeTupleInto(const Schema& schema, const Row& row, const TupleMeta& meta,
                     std::span<std::byte> out) {
  std::byte* p = out.data();
  PutU32(p, meta.oid);
  PutU32(p + 4, meta.xmin);
  PutU32(p + 8, meta.xmax);
  PutU16(p + 12, static_cast<uint16_t>(row.size()));
  std::byte* bitmap = p + kTupleFixedHeader;
  const uint32_t bitmap_bytes = (static_cast<uint32_t>(row.size()) + 7) / 8;
  std::memset(bitmap, 0, bitmap_bytes);
  std::byte* d = bitmap + bitmap_bytes;
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (v.is_null()) {
      bitmap[i / 8] |= std::byte{static_cast<uint8_t>(1u << (i % 8))};
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kBool:
        *d++ = std::byte{static_cast<uint8_t>(v.AsBool() ? 1 : 0)};
        break;
      case TypeId::kInt4:
        PutU32(d, static_cast<uint32_t>(v.AsInt4()));
        d += 4;
        break;
      case TypeId::kOid:
        PutU32(d, v.AsOid());
        d += 4;
        break;
      case TypeId::kInt8:
        PutU64(d, static_cast<uint64_t>(v.AsInt8()));
        d += 8;
        break;
      case TypeId::kTimestamp:
        PutU64(d, v.AsTimestamp());
        d += 8;
        break;
      case TypeId::kFloat8: {
        double f = v.AsFloat8();
        uint64_t bits;
        std::memcpy(&bits, &f, 8);
        PutU64(d, bits);
        d += 8;
        break;
      }
      case TypeId::kText: {
        const std::string& s = v.AsText();
        PutU32(d, static_cast<uint32_t>(s.size()));
        std::memcpy(d + 4, s.data(), s.size());
        d += 4 + s.size();
        break;
      }
      case TypeId::kBytea: {
        const Blob& b = v.AsBytes();
        PutU32(d, static_cast<uint32_t>(b.size()));
        if (!b.empty()) {
          std::memcpy(d + 4, b.data(), b.size());
        }
        d += 4 + b.size();
        break;
      }
    }
  }
  INV_CHECK(d == out.data() + out.size());
}

namespace {

// Walks the encoded columns, calling `sink(i, view)` for each in schema order.
template <typename Sink>
Status WalkColumns(const Schema& schema, std::span<const std::byte> tuple, Sink&& sink) {
  if (tuple.size() < kTupleFixedHeader) {
    return Status::Corruption("tuple shorter than header");
  }
  const uint16_t natts = GetU16(tuple.data() + 12);
  if (natts != schema.num_columns()) {
    return Status::Corruption("tuple natts mismatch");
  }
  const uint32_t bitmap_bytes = (static_cast<uint32_t>(natts) + 7) / 8;
  if (tuple.size() < kTupleFixedHeader + bitmap_bytes) {
    return Status::Corruption("tuple shorter than null bitmap");
  }
  const std::byte* bitmap = tuple.data() + kTupleFixedHeader;
  const std::byte* d = bitmap + bitmap_bytes;
  const std::byte* end = tuple.data() + tuple.size();
  for (size_t i = 0; i < natts; ++i) {
    const bool is_null =
        (static_cast<uint8_t>(bitmap[i / 8]) >> (i % 8)) & 1;
    if (is_null) {
      sink(i, ColumnView{});
      continue;
    }
    const TypeId t = schema.column(i).type;
    // 64-bit length: a corrupted varlena header of ~4 billion must not wrap
    // to a small value and sneak past the bounds check. Compare against the
    // remaining bytes instead of forming d + len, which could itself
    // overflow past the buffer end (UB).
    uint64_t header = 0;
    uint64_t len;
    if (IsVarlen(t)) {
      if (static_cast<size_t>(end - d) < 4) {
        return Status::Corruption("tuple varlena header past end");
      }
      header = 4;
      len = GetU32(d);
    } else {
      len = FixedWidth(t);
    }
    if (static_cast<uint64_t>(end - d) < header + len) {
      return Status::Corruption("tuple data past end");
    }
    sink(i, ColumnView{false, std::span<const std::byte>(d + header, len)});
    d += header + len;
  }
  return Status::Ok();
}

Value DecodeOne(TypeId t, std::span<const std::byte> bytes) {
  const std::byte* d = bytes.data();
  switch (t) {
    case TypeId::kBool:
      return Value::Bool(static_cast<uint8_t>(*d) != 0);
    case TypeId::kInt4:
      return Value::Int4(static_cast<int32_t>(GetU32(d)));
    case TypeId::kOid:
      return Value::MakeOid(GetU32(d));
    case TypeId::kInt8:
      return Value::Int8(static_cast<int64_t>(GetU64(d)));
    case TypeId::kTimestamp:
      return Value::MakeTimestamp(GetU64(d));
    case TypeId::kFloat8: {
      uint64_t bits = GetU64(d);
      double f;
      std::memcpy(&f, &bits, 8);
      return Value::Float8(f);
    }
    case TypeId::kText:
      return Value::Text(std::string(reinterpret_cast<const char*>(d), bytes.size()));
    case TypeId::kBytea:
      return Value::Bytes(Blob(bytes.begin(), bytes.end()));
  }
  return Value::Null();
}

}  // namespace

Result<Row> DecodeTuple(const Schema& schema, std::span<const std::byte> tuple) {
  Row row(schema.num_columns());
  INV_RETURN_IF_ERROR(WalkColumns(schema, tuple, [&](size_t i, ColumnView v) {
    if (!v.null) {
      row[i] = DecodeOne(schema.column(i).type, v.bytes);
    }
  }));
  return row;
}

Status ViewColumns(const Schema& schema, std::span<const std::byte> tuple,
                   std::span<ColumnView> views) {
  if (views.size() != schema.num_columns()) {
    return Status::InvalidArgument("column view count != schema arity");
  }
  return WalkColumns(schema, tuple, [&](size_t i, ColumnView v) { views[i] = v; });
}

TupleMeta GetTupleMeta(std::span<const std::byte> tuple) {
  TupleMeta m;
  m.oid = GetU32(tuple.data());
  m.xmin = GetU32(tuple.data() + 4);
  m.xmax = GetU32(tuple.data() + 8);
  return m;
}

void SetTupleXmax(std::span<std::byte> tuple, TxnId xmax) {
  PutU32(tuple.data() + 8, xmax);
}

}  // namespace invfs

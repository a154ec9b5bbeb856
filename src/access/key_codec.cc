#include "src/access/key_codec.h"

#include <cstring>

#include "src/util/bytes.h"

namespace invfs {
namespace {

void AppendBe32(uint32_t v, BtreeKey* out) { PutBe32(out->grow(4), v); }

void AppendBe64(uint64_t v, BtreeKey* out) { PutBe64(out->grow(8), v); }

void AppendText(std::string_view s, BtreeKey* out) {
  out->append(std::as_bytes(std::span(s)));
  out->push_back(std::byte{0});
}

}  // namespace

Status AppendTextKeyPart(std::string_view s, BtreeKey* out) {
  if (s.find('\0') != std::string_view::npos) {
    return Status::InvalidArgument("text key contains NUL");
  }
  AppendText(s, out);
  return Status::Ok();
}

Status AppendKeyPart(const Value& v, BtreeKey* out) {
  if (v.is_null()) {
    return Status::InvalidArgument("null values are not indexable");
  }
  if (v.HasType(TypeId::kInt4)) {
    AppendBe32(static_cast<uint32_t>(v.AsInt4()) ^ 0x80000000u, out);
    return Status::Ok();
  }
  if (v.HasType(TypeId::kInt8)) {
    AppendBe64(static_cast<uint64_t>(v.AsInt8()) ^ 0x8000000000000000ull, out);
    return Status::Ok();
  }
  if (v.HasType(TypeId::kOid)) {
    AppendBe32(v.AsOid(), out);
    return Status::Ok();
  }
  if (v.HasType(TypeId::kTimestamp)) {
    AppendBe64(v.AsTimestamp(), out);
    return Status::Ok();
  }
  if (v.HasType(TypeId::kBool)) {
    out->push_back(std::byte{static_cast<uint8_t>(v.AsBool() ? 1 : 0)});
    return Status::Ok();
  }
  if (v.HasType(TypeId::kFloat8)) {
    double d = v.AsFloat8();
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    // Total order: positive floats flip the sign bit; negatives invert all.
    bits = (bits & 0x8000000000000000ull) ? ~bits : bits | 0x8000000000000000ull;
    AppendBe64(bits, out);
    return Status::Ok();
  }
  if (v.HasType(TypeId::kText)) {
    return AppendTextKeyPart(v.AsText(), out);
  }
  return Status::InvalidArgument("type not indexable: " + v.ToString());
}

Result<BtreeKey> EncodeKey(std::span<const Value> values) {
  BtreeKey out;
  for (const Value& v : values) {
    INV_RETURN_IF_ERROR(AppendKeyPart(v, &out));
  }
  return out;
}

Result<BtreeKey> EncodeKey(const Row& row, std::span<const size_t> columns) {
  BtreeKey out;
  for (size_t c : columns) {
    INV_RETURN_IF_ERROR(AppendKeyPart(row[c], &out));
  }
  return out;
}

BtreeKey EncodeInt4Key(int32_t v) {
  BtreeKey out;
  AppendBe32(static_cast<uint32_t>(v) ^ 0x80000000u, &out);
  return out;
}

BtreeKey EncodeOidKey(Oid v) {
  BtreeKey out;
  AppendBe32(v, &out);
  return out;
}

BtreeKey EncodeTextKey(std::string_view s) {
  BtreeKey out;
  AppendText(s, &out);
  return out;
}

size_t FixedKeyWidth(const Schema& schema, std::span<const size_t> key_columns) {
  size_t width = 0;
  for (size_t c : key_columns) {
    switch (schema.column(c).type) {
      case TypeId::kBool:
        width += 1;
        break;
      case TypeId::kInt4:
      case TypeId::kOid:
        width += 4;
        break;
      case TypeId::kInt8:
      case TypeId::kFloat8:
      case TypeId::kTimestamp:
        width += 8;
        break;
      case TypeId::kText:
      case TypeId::kBytea:
        return 0;
    }
  }
  return width;
}

}  // namespace invfs

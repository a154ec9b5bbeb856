#include "src/storage/value.h"

#include <cstring>

namespace invfs {

std::string_view TypeName(TypeId t) {
  switch (t) {
    case TypeId::kBool:
      return "bool";
    case TypeId::kInt4:
      return "int4";
    case TypeId::kInt8:
      return "int8";
    case TypeId::kFloat8:
      return "float8";
    case TypeId::kText:
      return "text";
    case TypeId::kBytea:
      return "bytea";
    case TypeId::kOid:
      return "oid";
    case TypeId::kTimestamp:
      return "timestamp";
  }
  return "?";
}

Result<TypeId> TypeFromName(std::string_view name) {
  for (TypeId t : {TypeId::kBool, TypeId::kInt4, TypeId::kInt8, TypeId::kFloat8,
                   TypeId::kText, TypeId::kBytea, TypeId::kOid, TypeId::kTimestamp}) {
    if (TypeName(t) == name) {
      return t;
    }
  }
  // POSTQUEL aliases used in the paper's schemas.
  if (name == "char[]" || name == "charn") {
    return TypeId::kText;
  }
  if (name == "object_id") {
    return TypeId::kOid;
  }
  if (name == "longlong") {
    return TypeId::kInt8;
  }
  if (name == "time") {
    return TypeId::kTimestamp;
  }
  return Status::NotFound("unknown type: " + std::string(name));
}

Result<double> Value::ToDouble() const {
  if (auto* v = std::get_if<int32_t>(&rep_)) {
    return static_cast<double>(*v);
  }
  if (auto* v = std::get_if<int64_t>(&rep_)) {
    return static_cast<double>(*v);
  }
  if (auto* v = std::get_if<double>(&rep_)) {
    return *v;
  }
  if (auto* v = std::get_if<Oid>(&rep_)) {
    return static_cast<double>(*v);
  }
  if (auto* v = std::get_if<TimestampBox>(&rep_)) {
    return static_cast<double>(v->t);
  }
  return Status::InvalidArgument("value is not numeric: " + ToString());
}

Result<int64_t> Value::ToInt64() const {
  if (auto* v = std::get_if<int32_t>(&rep_)) {
    return static_cast<int64_t>(*v);
  }
  if (auto* v = std::get_if<int64_t>(&rep_)) {
    return *v;
  }
  if (auto* v = std::get_if<double>(&rep_)) {
    return static_cast<int64_t>(*v);
  }
  if (auto* v = std::get_if<Oid>(&rep_)) {
    return static_cast<int64_t>(*v);
  }
  if (auto* v = std::get_if<TimestampBox>(&rep_)) {
    return static_cast<int64_t>(v->t);
  }
  return Status::InvalidArgument("value is not numeric: " + ToString());
}

bool Value::HasType(TypeId t) const {
  switch (t) {
    case TypeId::kBool:
      return std::holds_alternative<bool>(rep_);
    case TypeId::kInt4:
      return std::holds_alternative<int32_t>(rep_);
    case TypeId::kInt8:
      return std::holds_alternative<int64_t>(rep_);
    case TypeId::kFloat8:
      return std::holds_alternative<double>(rep_);
    case TypeId::kText:
      return std::holds_alternative<std::string>(rep_);
    case TypeId::kBytea:
      return std::holds_alternative<Blob>(rep_);
    case TypeId::kOid:
      return std::holds_alternative<Oid>(rep_);
    case TypeId::kTimestamp:
      return std::holds_alternative<TimestampBox>(rep_);
  }
  return false;
}

namespace {
int Cmp3(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }
int Cmp3(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
}  // namespace

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) {
      return 0;
    }
    return is_null() ? -1 : 1;
  }
  // Same-representation fast paths for non-numeric types.
  if (auto* a = std::get_if<std::string>(&rep_)) {
    const auto& b = std::get<std::string>(other.rep_);
    return a->compare(b) < 0 ? -1 : (*a == b ? 0 : 1);
  }
  if (auto* a = std::get_if<Blob>(&rep_)) {
    const auto& b = std::get<Blob>(other.rep_);
    const size_t n = std::min(a->size(), b.size());
    int c = n == 0 ? 0 : std::memcmp(a->data(), b.data(), n);
    if (c != 0) {
      return c < 0 ? -1 : 1;
    }
    return Cmp3(static_cast<int64_t>(a->size()), static_cast<int64_t>(b.size()));
  }
  if (auto* a = std::get_if<bool>(&rep_)) {
    bool b = std::get<bool>(other.rep_);
    return Cmp3(static_cast<int64_t>(*a), static_cast<int64_t>(b));
  }
  // Numeric (possibly cross-width) comparison. Integers compare exactly;
  // mixed with float compares as double.
  const bool lf = std::holds_alternative<double>(rep_);
  const bool rf = std::holds_alternative<double>(other.rep_);
  if (lf || rf) {
    auto a = ToDouble();
    auto b = other.ToDouble();
    INV_CHECK(a.ok() && b.ok());
    return Cmp3(*a, *b);
  }
  auto a = ToInt64();
  auto b = other.ToInt64();
  INV_CHECK(a.ok() && b.ok());
  return Cmp3(*a, *b);
}

std::string Value::ToString() const {
  if (is_null()) {
    return "null";
  }
  if (auto* v = std::get_if<bool>(&rep_)) {
    return *v ? "true" : "false";
  }
  if (auto* v = std::get_if<int32_t>(&rep_)) {
    return std::to_string(*v);
  }
  if (auto* v = std::get_if<int64_t>(&rep_)) {
    return std::to_string(*v);
  }
  if (auto* v = std::get_if<double>(&rep_)) {
    return std::to_string(*v);
  }
  if (auto* v = std::get_if<std::string>(&rep_)) {
    return "\"" + *v + "\"";
  }
  if (auto* v = std::get_if<Blob>(&rep_)) {
    return "<bytea " + std::to_string(v->size()) + "B>";
  }
  if (auto* v = std::get_if<Oid>(&rep_)) {
    return std::to_string(*v);
  }
  if (auto* v = std::get_if<TimestampBox>(&rep_)) {
    std::string out = "@";
    out += std::to_string(v->t);
    return out;
  }
  return "?";
}

Result<size_t> Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i].name == name) {
      return i;
    }
  }
  return Status::NotFound("no column named " + std::string(name));
}

}  // namespace invfs

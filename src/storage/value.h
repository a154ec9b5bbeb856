// Typed values, column descriptors, and relation schemas.
//
// The type set mirrors what Inversion actually stores: OIDs, integers of both
// widths (file sizes are "longlong" in the paper's fileatt schema), text
// names, byte-string file chunks, and timestamps for time travel.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/storage/common.h"
#include "src/util/status.h"

namespace invfs {

enum class TypeId : uint8_t {
  kBool = 1,
  kInt4 = 2,
  kInt8 = 3,
  kFloat8 = 4,
  kText = 5,
  kBytea = 6,   // variable-length byte string (file chunks)
  kOid = 7,
  kTimestamp = 8,
};

std::string_view TypeName(TypeId t);
Result<TypeId> TypeFromName(std::string_view name);

using Blob = std::vector<std::byte>;

// A single typed value. monostate == SQL NULL.
class Value {
 public:
  Value() = default;  // null
  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(std::in_place_type<bool>, v); }
  static Value Int4(int32_t v) { return Value(std::in_place_type<int32_t>, v); }
  static Value Int8(int64_t v) { return Value(std::in_place_type<int64_t>, v); }
  static Value Float8(double v) { return Value(std::in_place_type<double>, v); }
  static Value Text(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }
  static Value Bytes(Blob v) { return Value(std::in_place_type<Blob>, std::move(v)); }
  static Value MakeOid(Oid v) { return Value(std::in_place_type<Oid>, v); }
  static Value MakeTimestamp(Timestamp v) {
    return Value(std::in_place_type<TimestampBox>, TimestampBox{v});
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }

  bool AsBool() const { return std::get<bool>(rep_); }
  int32_t AsInt4() const { return std::get<int32_t>(rep_); }
  int64_t AsInt8() const { return std::get<int64_t>(rep_); }
  double AsFloat8() const { return std::get<double>(rep_); }
  const std::string& AsText() const { return std::get<std::string>(rep_); }
  const Blob& AsBytes() const { return std::get<Blob>(rep_); }
  Blob&& TakeBytes() { return std::get<Blob>(std::move(rep_)); }
  Oid AsOid() const { return std::get<Oid>(rep_); }
  Timestamp AsTimestamp() const { return std::get<TimestampBox>(rep_).t; }

  // Numeric widening for expression evaluation: any numeric type as double /
  // int64. Returns error for non-numeric values.
  Result<double> ToDouble() const;
  Result<int64_t> ToInt64() const;

  // Dynamic type of the stored representation (null has no type).
  bool HasType(TypeId t) const;

  // Three-way comparison for values of the same type. Nulls sort first.
  // Cross-numeric comparisons are widened.
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const { return Compare(other) == 0; }

  std::string ToString() const;

 private:
  // Timestamp wrapped so the variant distinguishes it from Oid/int64.
  struct TimestampBox {
    Timestamp t;
    bool operator==(const TimestampBox&) const = default;
  };
  using Rep = std::variant<std::monostate, bool, int32_t, int64_t, double,
                           std::string, Blob, Oid, TimestampBox>;

  // Builds the alternative in place: no temporary Rep to move from.
  template <typename T>
  Value(std::in_place_type_t<T> type, T v) : rep_(type, std::move(v)) {}

  Rep rep_;
};

struct Column {
  std::string name;
  TypeId type;

  bool operator==(const Column&) const = default;
};

// Relation schema: ordered column list.
class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Column> cols) : cols_(cols) {}
  explicit Schema(std::vector<Column> cols) : cols_(std::move(cols)) {}

  size_t num_columns() const { return cols_.size(); }
  const Column& column(size_t i) const { return cols_[i]; }
  const std::vector<Column>& columns() const { return cols_; }

  // Index of a column by name, or error.
  Result<size_t> ColumnIndex(std::string_view name) const;

 private:
  std::vector<Column> cols_;
};

// A decoded row.
using Row = std::vector<Value>;

}  // namespace invfs

// Order-preserving key encoding for B-tree indices.
//
// Composite keys are encoded column-by-column into a byte string whose
// memcmp order equals the tuple order of the underlying values:
//   * signed integers: big-endian with the sign bit flipped
//   * oid/timestamp:   big-endian unsigned
//   * float8:          IEEE bits, sign-flipped-or-inverted (total order)
//   * text:            raw bytes followed by a 0x00 terminator (text keys may
//                      not contain NUL — enforced at encode time)
//   * bool:            one byte
// Nulls are not indexable (Inversion's key columns are all NOT NULL).

#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string_view>

#include "src/storage/value.h"
#include "src/util/bytes.h"
#include "src/util/inline_vector.h"
#include "src/util/status.h"

namespace invfs {

// An encoded key. Up to 56 bytes live inside the 64-byte object: every
// integer, oid and timestamp key, and a (parent oid, name) naming key for
// names up to 45 bytes, with the B-tree's 6-byte TID suffix (btree.cc) on
// top. Longer keys, from long file names, move to the heap.
using BtreeKey = InlineVector<std::byte, 56>;

// Encode one value, appending to `out`.
Status AppendKeyPart(const Value& v, BtreeKey* out);
// Encode a text value (NUL-free) straight from its bytes, appending to `out`.
Status AppendTextKeyPart(std::string_view s, BtreeKey* out);

// Encode a composite key.
Result<BtreeKey> EncodeKey(std::span<const Value> values);
// Encode the key an index over `columns` holds for `row`.
Result<BtreeKey> EncodeKey(const Row& row, std::span<const size_t> columns);

// Convenience single-column encoders used on hot paths.
BtreeKey EncodeInt4Key(int32_t v);
BtreeKey EncodeOidKey(Oid v);
BtreeKey EncodeTextKey(std::string_view s);

// The length every key of an index over `key_columns` of `schema` encodes to:
// bool 1 byte, int4 and oid 4, int8, float8 and timestamp 8, summed over the
// columns. 0 when a text column (or a type that is not indexable) makes the
// keys vary in length.
size_t FixedKeyWidth(const Schema& schema, std::span<const size_t> key_columns);

// The order of encoded keys: unsigned bytes, a shorter prefix first — memcmp
// order, eight bytes per step through big-endian loads.
inline int CompareKeys(std::span<const std::byte> a, std::span<const std::byte> b) {
  const size_t n = std::min(a.size(), b.size());
  const std::byte* x = a.data();
  const std::byte* y = b.data();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t u = GetBe64(x + i);
    const uint64_t v = GetBe64(y + i);
    if (u != v) {
      return u < v ? -1 : 1;
    }
  }
  if (i + 4 <= n) {
    const uint32_t u = GetBe32(x + i);
    const uint32_t v = GetBe32(y + i);
    if (u != v) {
      return u < v ? -1 : 1;
    }
    i += 4;
  }
  for (; i < n; ++i) {
    const auto u = static_cast<uint8_t>(x[i]);
    const auto v = static_cast<uint8_t>(y[i]);
    if (u != v) {
      return u < v ? -1 : 1;
    }
  }
  return a.size() < b.size() ? -1 : (a.size() == b.size() ? 0 : 1);
}

}  // namespace invfs

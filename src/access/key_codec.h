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

#include <cstddef>
#include <span>
#include <string_view>

#include "src/storage/value.h"
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

}  // namespace invfs

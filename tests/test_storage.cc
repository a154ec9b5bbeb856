// Unit tests: typed values, slotted pages, tuple encoding, chunk geometry.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/inversion/inv_fs.h"
#include "src/storage/page.h"
#include "src/storage/tuple.h"
#include "src/util/bytes.h"
#include "src/storage/value.h"

namespace invfs {
namespace {

// ---------------------------------------------------------------- Value

TEST(Value, NullBehaviour) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.HasType(TypeId::kInt4));
  EXPECT_EQ(v.ToString(), "null");
}

TEST(Value, TypePredicates) {
  EXPECT_TRUE(Value::Int4(1).HasType(TypeId::kInt4));
  EXPECT_FALSE(Value::Int4(1).HasType(TypeId::kInt8));
  EXPECT_TRUE(Value::MakeOid(1).HasType(TypeId::kOid));
  EXPECT_TRUE(Value::MakeTimestamp(1).HasType(TypeId::kTimestamp));
  EXPECT_TRUE(Value::Text("x").HasType(TypeId::kText));
  EXPECT_TRUE(Value::Bytes({}).HasType(TypeId::kBytea));
}

TEST(Value, NumericWidening) {
  EXPECT_EQ(*Value::Int4(-5).ToInt64(), -5);
  EXPECT_EQ(*Value::MakeOid(7).ToInt64(), 7);
  EXPECT_DOUBLE_EQ(*Value::Int8(3).ToDouble(), 3.0);
  EXPECT_FALSE(Value::Text("x").ToInt64().ok());
}

TEST(Value, CompareSameType) {
  EXPECT_LT(Value::Int4(1).Compare(Value::Int4(2)), 0);
  EXPECT_EQ(Value::Text("abc").Compare(Value::Text("abc")), 0);
  EXPECT_GT(Value::Float8(2.5).Compare(Value::Float8(-1)), 0);
}

TEST(Value, CompareCrossNumeric) {
  EXPECT_EQ(Value::Int4(7).Compare(Value::Int8(7)), 0);
  EXPECT_LT(Value::Int4(7).Compare(Value::Float8(7.5)), 0);
  EXPECT_GT(Value::Int8(1'000'000'000'000).Compare(Value::Int4(5)), 0);
}

TEST(Value, NullsSortFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int4(0)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(Value, BlobCompareIsLexicographic) {
  Blob a{std::byte{1}, std::byte{2}};
  Blob b{std::byte{1}, std::byte{2}, std::byte{0}};
  EXPECT_LT(Value::Bytes(a).Compare(Value::Bytes(b)), 0);
}

TEST(TypeNames, RoundtripAndPaperAliases) {
  for (TypeId t : {TypeId::kBool, TypeId::kInt4, TypeId::kInt8, TypeId::kFloat8,
                   TypeId::kText, TypeId::kBytea, TypeId::kOid, TypeId::kTimestamp}) {
    auto back = TypeFromName(TypeName(t));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, t);
  }
  // The paper's schema spellings.
  EXPECT_EQ(*TypeFromName("object_id"), TypeId::kOid);
  EXPECT_EQ(*TypeFromName("longlong"), TypeId::kInt8);
  EXPECT_EQ(*TypeFromName("time"), TypeId::kTimestamp);
  EXPECT_FALSE(TypeFromName("varchar").ok());
}

TEST(Schema, ColumnIndex) {
  Schema s{{"a", TypeId::kInt4}, {"b", TypeId::kText}};
  EXPECT_EQ(*s.ColumnIndex("b"), 1u);
  EXPECT_FALSE(s.ColumnIndex("c").ok());
}

// ---------------------------------------------------------------- Page

class PageTest : public ::testing::Test {
 protected:
  PageTest() : page_(frame_) { page_.Init(/*rel=*/42, /*block=*/7); }
  std::byte frame_[kPageSize] = {};
  Page page_;
};

TEST_F(PageTest, InitializedAndSelfIdentified) {
  EXPECT_TRUE(page_.IsInitialized());
  EXPECT_TRUE(page_.VerifySelfIdent(42, 7).ok());
  EXPECT_FALSE(page_.VerifySelfIdent(42, 8).ok());
  EXPECT_FALSE(page_.VerifySelfIdent(43, 7).ok());
}

TEST_F(PageTest, AddAndGetTuples) {
  std::vector<std::byte> t1(100, std::byte{0xAA});
  std::vector<std::byte> t2(50, std::byte{0xBB});
  ASSERT_EQ(*page_.AddTuple(t1), 0);
  ASSERT_EQ(*page_.AddTuple(t2), 1);
  EXPECT_EQ(page_.num_slots(), 2);
  auto got = page_.GetTuple(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 100u);
  EXPECT_EQ((*got)[0], std::byte{0xAA});
}

TEST_F(PageTest, FillsUntilExactCapacity) {
  // One max-size tuple must fit exactly (the chunk-geometry invariant).
  std::vector<std::byte> big(kPageSize - kPageHeaderSize - kLinePointerSize,
                             std::byte{1});
  ASSERT_TRUE(page_.AddTuple(big).ok());
  EXPECT_EQ(page_.FreeSpace(), 0u);
  std::vector<std::byte> one(1, std::byte{2});
  EXPECT_EQ(page_.AddTuple(one).status().code(), ErrorCode::kResourceExhausted);
}

TEST_F(PageTest, ManySmallTuples) {
  std::vector<std::byte> t(20, std::byte{3});
  int added = 0;
  while (page_.AddTuple(t).ok()) {
    ++added;
  }
  // 8168 usable / 24 per tuple-with-pointer = 340.
  EXPECT_EQ(added, 340);
  EXPECT_EQ(page_.num_slots(), added);
}

TEST_F(PageTest, KillSlotAndCompactPreservesSurvivors) {
  std::vector<std::byte> a(100, std::byte{0xA1});
  std::vector<std::byte> b(100, std::byte{0xB2});
  std::vector<std::byte> c(100, std::byte{0xC3});
  ASSERT_TRUE(page_.AddTuple(a).ok());
  ASSERT_TRUE(page_.AddTuple(b).ok());
  ASSERT_TRUE(page_.AddTuple(c).ok());
  const uint32_t before = page_.FreeSpace();
  ASSERT_TRUE(page_.KillSlot(1).ok());
  EXPECT_TRUE(page_.GetTuple(1)->empty());
  page_.Compact();
  // Slot numbers stable; dead slot remains dead; space reclaimed.
  EXPECT_GT(page_.FreeSpace(), before + 99);
  EXPECT_EQ((*page_.GetTuple(0))[0], std::byte{0xA1});
  EXPECT_TRUE(page_.GetTuple(1)->empty());
  EXPECT_EQ((*page_.GetTuple(2))[0], std::byte{0xC3});
}

TEST_F(PageTest, SlotOutOfRange) {
  EXPECT_FALSE(page_.GetTuple(0).ok());
  EXPECT_FALSE(page_.KillSlot(3).ok());
}

// A frame whose checksum verifies can still carry a line pointer that was
// wrong when written. Neither accessor may hand out bytes outside the frame's
// tuple area [lower, 8192).
TEST_F(PageTest, LinePointersOutsideTheTupleAreaAreCorruption) {
  std::vector<std::byte> t(100, std::byte{0x7E});
  ASSERT_TRUE(page_.AddTuple(t).ok());
  ASSERT_TRUE(page_.AddTuple(t).ok());
  std::byte* lp1 = frame_ + kPageHeaderSize + kLinePointerSize;
  const uint16_t good_off = GetU16(lp1);
  auto expect_corrupt = [&](uint16_t off, uint16_t len) {
    PutU16(lp1, off);
    PutU16(lp1 + 2, len);
    EXPECT_EQ(page_.GetTuple(1).status().code(), ErrorCode::kCorruption)
        << off << "+" << len;
    EXPECT_EQ(page_.GetMutableTuple(1).status().code(), ErrorCode::kCorruption)
        << off << "+" << len;
    EXPECT_TRUE(page_.GetTuple(0).ok());
  };
  expect_corrupt(kPageSize - 50, 100);              // runs past 8 KB
  expect_corrupt(0xFFFF, 0xFFFF);                   // far past it
  expect_corrupt(kPageHeaderSize, 100);             // inside the header
  expect_corrupt(kPageHeaderSize + 2 * kLinePointerSize - 1, 8);  // below lower
  expect_corrupt(kPageSize / 2, 100);  // in the free gap [lower, upper)
  PutU16(lp1, good_off);
  PutU16(lp1 + 2, 100);
  ASSERT_TRUE(page_.GetTuple(1).ok());

  // A slot count past the line pointer array would read pointers out of the
  // tuple bytes, or past the frame.
  PutU16(frame_ + 2, 5000);
  EXPECT_EQ(page_.GetTuple(4999).status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(page_.GetTuple(2).status().code(), ErrorCode::kCorruption);
  EXPECT_TRUE(page_.GetTuple(1).ok());
}

// VerifyGeometry holds `lower` to the slot count and `upper` between it and
// the frame's end.
TEST_F(PageTest, GeometryIsVerified) {
  ASSERT_TRUE(page_.AddTuple(std::vector<std::byte>(100, std::byte{1})).ok());
  EXPECT_TRUE(page_.VerifyGeometry().ok());
  PutU16(frame_ + 2, 2);  // nslots past the line pointer array
  EXPECT_EQ(page_.VerifyGeometry().code(), ErrorCode::kCorruption);
  PutU16(frame_ + 2, 1);
  const uint16_t upper = GetU16(frame_ + 6);
  for (const uint16_t bad : {uint16_t{kPageHeaderSize}, uint16_t{kPageSize + 1}}) {
    PutU16(frame_ + 6, bad);  // below `lower`, past the frame
    EXPECT_EQ(page_.VerifyGeometry().code(), ErrorCode::kCorruption) << bad;
  }
  PutU16(frame_ + 6, upper);
  EXPECT_TRUE(page_.VerifyGeometry().ok());
}

// Pins the on-disk checksum format: the stamped value of one fixed frame
// must never change, whichever CRC32C kernel computes it.
TEST(PageChecksum, GoldenValueAndEveryBitFlipDetected) {
  std::byte frame[kPageSize] = {};
  Page page(frame);
  page.Init(/*rel=*/7, /*block=*/3);
  const std::string text = "Inversion: a file system on top of POSTGRES";
  ASSERT_TRUE(page.AddTuple(std::as_bytes(std::span(text))).ok());
  page.UpdateChecksum();
  EXPECT_EQ(page.StoredChecksum(), 0xF66BAD2Fu);
  ASSERT_TRUE(page.VerifyChecksum().ok());

  // Bytes 0-7 and 12-19 flank the checksum field at 8-11.
  std::vector<uint32_t> offsets;
  for (uint32_t off = 0; off < 20; ++off) {
    if (off < 8 || off >= 12) {
      offsets.push_back(off);
    }
  }
  const auto tuple_start = static_cast<uint32_t>(kPageSize - text.size());
  for (uint32_t off : {24u, 27u, 1000u, 4095u, 4096u, tuple_start, kPageSize - 1}) {
    offsets.push_back(off);
  }
  for (uint32_t off : offsets) {
    for (int bit : {0, 7}) {
      frame[off] ^= std::byte(1u << bit);
      EXPECT_FALSE(page.VerifyChecksum().ok()) << "byte " << off << " bit " << bit;
      frame[off] ^= std::byte(1u << bit);
    }
  }
  EXPECT_TRUE(page.VerifyChecksum().ok());
}

// ---------------------------------------------------------------- Tuple

Schema WideSchema() {
  return Schema{{"b", TypeId::kBool},     {"i4", TypeId::kInt4},
                {"i8", TypeId::kInt8},    {"f8", TypeId::kFloat8},
                {"t", TypeId::kText},     {"blob", TypeId::kBytea},
                {"oid", TypeId::kOid},    {"ts", TypeId::kTimestamp}};
}

Row WideRow() {
  return Row{Value::Bool(true),
             Value::Int4(-7),
             Value::Int8(1ll << 40),
             Value::Float8(2.5),
             Value::Text("hello world"),
             Value::Bytes(Blob{std::byte{9}, std::byte{8}}),
             Value::MakeOid(23114),
             Value::MakeTimestamp(777)};
}

TEST(Tuple, RoundtripAllTypes) {
  const Schema schema = WideSchema();
  const Row row = WideRow();
  auto encoded = EncodeTuple(schema, row, TupleMeta{5, 10, 0});
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeTuple(schema, *encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].Compare((*decoded)[i]), 0) << "column " << i;
  }
}

TEST(Tuple, MetaRoundtripAndXmaxUpdate) {
  const Schema schema = WideSchema();
  auto encoded = EncodeTuple(schema, WideRow(), TupleMeta{23114, 42, 0});
  ASSERT_TRUE(encoded.ok());
  TupleMeta m = GetTupleMeta(*encoded);
  EXPECT_EQ(m.oid, 23114u);
  EXPECT_EQ(m.xmin, 42u);
  EXPECT_EQ(m.xmax, kInvalidTxn);
  SetTupleXmax(*encoded, 99);
  EXPECT_EQ(GetTupleMeta(*encoded).xmax, 99u);
  // Data untouched by the in-place xmax stamp.
  auto decoded = DecodeTuple(schema, *encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[4].AsText(), "hello world");
}

TEST(Tuple, NullsEncodeToNoBytes) {
  const Schema schema = WideSchema();
  Row nulls(schema.num_columns(), Value::Null());
  auto encoded = EncodeTuple(schema, nulls, TupleMeta{});
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->size(), kTupleFixedHeader + 1);  // header + bitmap only
  auto decoded = DecodeTuple(schema, *encoded);
  ASSERT_TRUE(decoded.ok());
  for (const Value& v : *decoded) {
    EXPECT_TRUE(v.is_null());
  }
}

TEST(Tuple, MixedNullsRoundtrip) {
  const Schema schema = WideSchema();
  Row row = WideRow();
  row[1] = Value::Null();
  row[4] = Value::Null();
  auto encoded = EncodeTuple(schema, row, TupleMeta{});
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeTuple(schema, *encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE((*decoded)[1].is_null());
  EXPECT_TRUE((*decoded)[4].is_null());
  EXPECT_EQ((*decoded)[6].AsOid(), 23114u);
}

TEST(Tuple, ViewColumnsSeesEveryColumnInPlace) {
  const Schema schema = WideSchema();
  Row row = WideRow();
  row[3] = Value::Null();
  auto encoded = EncodeTuple(schema, row, TupleMeta{});
  ASSERT_TRUE(encoded.ok());
  std::vector<ColumnView> views(schema.num_columns());
  ASSERT_TRUE(ViewColumns(schema, *encoded, views).ok());
  EXPECT_EQ(views[1].Int4(), -7);
  EXPECT_EQ(views[2].Int8(), 1ll << 40);
  EXPECT_TRUE(views[3].null);
  // Variable-length columns are the payload alone, pointing into the tuple.
  const std::span<const std::byte> tuple(*encoded);
  const std::span<const std::byte> text = views[4].bytes;
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(text.data()), text.size()),
            "hello world");
  EXPECT_GE(text.data(), tuple.data());
  EXPECT_LE(text.data() + text.size(), tuple.data() + tuple.size());
  ASSERT_EQ(views[5].bytes.size(), 2u);
  EXPECT_EQ(views[5].bytes[0], std::byte{9});
  EXPECT_EQ(GetU32(views[6].bytes.data()), 23114u);

  std::vector<ColumnView> too_few(3);
  EXPECT_EQ(ViewColumns(schema, *encoded, too_few).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ViewColumns(schema, tuple.first(kTupleFixedHeader - 1), views).code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(ViewColumns(schema, tuple.first(tuple.size() - 1), views).code(),
            ErrorCode::kCorruption);
}

TEST(Tuple, ArityMismatchRejected) {
  const Schema schema = WideSchema();
  Row short_row{Value::Bool(true)};
  EXPECT_FALSE(EncodeTuple(schema, short_row, TupleMeta{}).ok());
}

TEST(Tuple, TypeMismatchRejected) {
  Schema schema{{"a", TypeId::kInt4}};
  Row row{Value::Text("not an int")};
  EXPECT_FALSE(EncodeTuple(schema, row, TupleMeta{}).ok());
}

TEST(Tuple, CorruptTupleDetected) {
  const Schema schema = WideSchema();
  auto encoded = EncodeTuple(schema, WideRow(), TupleMeta{});
  ASSERT_TRUE(encoded.ok());
  encoded->resize(encoded->size() / 2);  // truncate
  EXPECT_FALSE(DecodeTuple(schema, *encoded).ok());
}

TEST(Tuple, HugeVarlenaLengthRejected) {
  // Regression: a corrupted varlena header near UINT32_MAX must not wrap the
  // "4 + len" bounds arithmetic and decode bytes past the buffer.
  const Schema schema{{"t", TypeId::kText}};
  auto encoded = EncodeTuple(schema, {Value::Text("hello")}, TupleMeta{});
  ASSERT_TRUE(encoded.ok());
  // Layout: 14-byte header, 1 bitmap byte, then the u32 text length.
  PutU32(encoded->data() + kTupleFixedHeader + 1, 0xFFFFFFFFu);
  EXPECT_FALSE(DecodeTuple(schema, *encoded).ok());
  PutU32(encoded->data() + kTupleFixedHeader + 1, 0xFFFFFFFBu);  // 4 + len == 2^32 - 1
  EXPECT_FALSE(DecodeTuple(schema, *encoded).ok());
}

TEST(Tuple, VarlenaHeaderPastEndRejected) {
  const Schema schema{{"t", TypeId::kText}};
  auto encoded = EncodeTuple(schema, {Value::Text("hello")}, TupleMeta{});
  ASSERT_TRUE(encoded.ok());
  // Cut inside the u32 length header itself.
  encoded->resize(kTupleFixedHeader + 1 + 2);
  EXPECT_FALSE(DecodeTuple(schema, *encoded).ok());
}

TEST(Tuple, TruncatedFixedColumnRejected) {
  const Schema schema{{"n", TypeId::kInt8}};
  auto encoded = EncodeTuple(schema, {Value::Int8(7)}, TupleMeta{});
  ASSERT_TRUE(encoded.ok());
  encoded->resize(encoded->size() - 3);  // cut into the int8 payload
  EXPECT_FALSE(DecodeTuple(schema, *encoded).ok());
}

TEST(Tuple, SizePredictionMatches) {
  const Schema schema = WideSchema();
  const Row row = WideRow();
  auto size = EncodedTupleSize(schema, row);
  auto encoded = EncodeTuple(schema, row, TupleMeta{});
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(*size, encoded->size());
}

// ------------------------------------------------------- chunk geometry

TEST(ChunkGeometry, FullChunkRecordExactlyFillsOnePage) {
  // "The size of the chunk is calculated so that a single record will fit
  // exactly on a POSTGRES data manager page."
  Schema chunk_schema{{"chunkno", TypeId::kInt4},
                      {"data", TypeId::kBytea},
                      {"selfid", TypeId::kInt8},
                      {"rawlen", TypeId::kInt4}};
  Row row{Value::Int4(0), Value::Bytes(Blob(kInvChunkSize, std::byte{0x11})),
          Value::Int8(1), Value::Null()};
  auto encoded = EncodeTuple(chunk_schema, row, TupleMeta{});
  ASSERT_TRUE(encoded.ok());
  std::byte frame[kPageSize];
  Page page(frame);
  page.Init(1, 0);
  ASSERT_TRUE(page.AddTuple(*encoded).ok());
  EXPECT_EQ(page.FreeSpace(), 0u) << "chunk record should exactly fill the page";
  // And one byte more would not fit.
  row[1] = Value::Bytes(Blob(kInvChunkSize + 1, std::byte{0x11}));
  auto bigger = EncodeTuple(chunk_schema, row, TupleMeta{});
  ASSERT_TRUE(bigger.ok());
  Page page2(frame);
  page2.Init(1, 0);
  EXPECT_FALSE(page2.AddTuple(*bigger).ok());
}

}  // namespace
}  // namespace invfs

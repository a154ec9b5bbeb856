// Unit + property tests: B-tree access method and the order-preserving key
// codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/access/btree.h"
#include "src/access/btree_layout.h"
#include "src/buffer/buffer_pool.h"
#include "src/util/bytes.h"
#include "src/util/random.h"

namespace invfs {
namespace {

// ---------------------------------------------------------------- key codec

TEST(KeyCodec, IntOrderPreserved) {
  const int32_t values[] = {INT32_MIN, -1000, -1, 0, 1, 42, 1000, INT32_MAX};
  for (size_t i = 1; i < std::size(values); ++i) {
    BtreeKey a = EncodeInt4Key(values[i - 1]);
    BtreeKey b = EncodeInt4Key(values[i]);
    EXPECT_LT(a, b) << values[i - 1] << " vs " << values[i];
  }
}

TEST(KeyCodec, Int8OrderPreserved) {
  const int64_t values[] = {INT64_MIN, -5'000'000'000, -1, 0, 7, 5'000'000'000,
                            INT64_MAX};
  BtreeKey prev;
  for (int64_t v : values) {
    auto key = EncodeKey(std::vector<Value>{Value::Int8(v)});
    ASSERT_TRUE(key.ok());
    if (!prev.empty()) {
      EXPECT_LT(prev, *key) << v;
    }
    prev = *key;
  }
}

TEST(KeyCodec, FloatTotalOrder) {
  const double values[] = {-1e300, -2.5, -0.0, 0.0, 1e-300, 3.14, 1e300};
  BtreeKey prev;
  for (double v : values) {
    auto key = EncodeKey(std::vector<Value>{Value::Float8(v)});
    ASSERT_TRUE(key.ok());
    if (!prev.empty()) {
      EXPECT_LE(prev, *key) << v;
    }
    prev = *key;
  }
}

TEST(KeyCodec, TextOrderPreservedAndNulRejected) {
  EXPECT_LT(EncodeTextKey("abc"), EncodeTextKey("abd"));
  EXPECT_LT(EncodeTextKey("ab"), EncodeTextKey("abc"));  // prefix sorts first
  EXPECT_LT(EncodeTextKey(""), EncodeTextKey("a"));
  BtreeKey out;
  EXPECT_FALSE(AppendKeyPart(Value::Text(std::string("a\0b", 3)), &out).ok());
}

TEST(KeyCodec, CompositeOrderMajorToMinor) {
  auto key = [](Oid parent, const char* name) {
    auto k = EncodeKey(std::vector<Value>{Value::MakeOid(parent), Value::Text(name)});
    EXPECT_TRUE(k.ok());
    return *k;
  };
  EXPECT_LT(key(1, "zzz"), key(2, "aaa")) << "first column dominates";
  EXPECT_LT(key(2, "aaa"), key(2, "aab"));
}

TEST(KeyCodec, NullsNotIndexable) {
  EXPECT_FALSE(EncodeKey(std::vector<Value>{Value::Null()}).ok());
}

// The width of every key an index over a schema's columns holds: per type,
// summed over the columns, 0 once any column is text.
TEST(KeyCodec, FixedKeyWidthPerType) {
  const struct {
    TypeId type;
    Value sample;
    size_t width;
  } cases[] = {
      {TypeId::kBool, Value::Bool(true), 1},
      {TypeId::kInt4, Value::Int4(-3), 4},
      {TypeId::kOid, Value::MakeOid(7), 4},
      {TypeId::kInt8, Value::Int8(-3), 8},
      {TypeId::kFloat8, Value::Float8(2.5), 8},
      {TypeId::kTimestamp, Value::MakeTimestamp(99), 8},
      {TypeId::kText, Value::Text("a"), 0},
  };
  const std::vector<size_t> first{0};
  for (const auto& c : cases) {
    EXPECT_EQ(FixedKeyWidth(Schema{{"c", c.type}}, first), c.width) << TypeName(c.type);
    if (c.width != 0) {
      EXPECT_EQ(EncodeKey(std::vector<Value>{c.sample})->size(), c.width)
          << TypeName(c.type);
    }
  }
  EXPECT_EQ(FixedKeyWidth(Schema{{"c", TypeId::kBytea}}, first), 0u);
  const Schema mixed{
      {"a", TypeId::kOid}, {"b", TypeId::kText}, {"c", TypeId::kInt8}, {"d", TypeId::kBool}};
  EXPECT_EQ(FixedKeyWidth(mixed, std::vector<size_t>{0, 2, 3}), 13u);
  EXPECT_EQ(FixedKeyWidth(mixed, std::vector<size_t>{2, 0}), 12u);
  EXPECT_EQ(FixedKeyWidth(mixed, std::vector<size_t>{0, 1}), 0u);
  EXPECT_EQ(FixedKeyWidth(mixed, std::vector<size_t>{1, 0}), 0u);
}

int MemcmpOrder(std::span<const std::byte> a, std::span<const std::byte> b) {
  const size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (c != 0) {
    return c;
  }
  return a.size() < b.size() ? -1 : (a.size() == b.size() ? 0 : 1);
}

// CompareKeys, eight bytes per step, orders keys as memcmp with the shorter
// prefix first: random strings of 0-80 bytes over all byte values, against
// independent strings, their own prefixes and extensions, and copies that
// differ in one byte at any position of a word or of the tail.
TEST(KeyCodec, CompareKeysMatchesMemcmpOrder) {
  Rng rng(2025);
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  auto random_bytes = [&](size_t n) {
    std::vector<std::byte> out(n);
    for (std::byte& b : out) {
      b = std::byte{static_cast<uint8_t>(rng.Uniform(256))};
    }
    return out;
  };
  for (int i = 0; i < 20000; ++i) {
    const std::vector<std::byte> a = random_bytes(rng.Uniform(81));
    std::vector<std::byte> b;
    switch (rng.Uniform(5)) {
      case 0:
        b = random_bytes(rng.Uniform(81));
        break;
      case 1:
        b.assign(a.begin(), a.begin() + static_cast<ptrdiff_t>(rng.Uniform(a.size() + 1)));
        break;
      case 2:
        b = a;
        if (!b.empty()) {
          b[rng.Uniform(b.size())] = std::byte{static_cast<uint8_t>(rng.Uniform(256))};
        }
        break;
      case 3: {
        b = a;
        const std::vector<std::byte> more = random_bytes(rng.Uniform(10));
        b.insert(b.end(), more.begin(), more.end());
        break;
      }
      default:
        b = a;
        break;
    }
    EXPECT_EQ(sign(CompareKeys(a, b)), sign(MemcmpOrder(a, b))) << i;
    EXPECT_EQ(sign(CompareKeys(b, a)), sign(MemcmpOrder(b, a))) << i;
  }
}

// The encoding as a growing std::vector<std::byte>, byte by byte: the key
// representation before keys were held inline. BtreeKey must match it for
// keys that stay inline and keys that move to the heap.
std::vector<std::byte> ReferenceKey(const std::vector<Value>& values) {
  std::vector<std::byte> out;
  auto be = [&](uint64_t v, int bytes) {
    for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
      out.push_back(std::byte{static_cast<uint8_t>(v >> shift)});
    }
  };
  for (const Value& v : values) {
    if (v.HasType(TypeId::kInt4)) {
      be(static_cast<uint32_t>(v.AsInt4()) ^ 0x80000000u, 4);
    } else if (v.HasType(TypeId::kOid)) {
      be(v.AsOid(), 4);
    } else if (v.HasType(TypeId::kInt8)) {
      be(static_cast<uint64_t>(v.AsInt8()) ^ 0x8000000000000000ull, 8);
    } else {
      for (char c : v.AsText()) {
        out.push_back(static_cast<std::byte>(c));
      }
      out.push_back(std::byte{0});
    }
  }
  return out;
}

std::span<const std::byte> Bytes(const BtreeKey& k) { return {k.data(), k.size()}; }

TEST(KeyCodec, InlineAndHeapKeysMatchTheVectorEncoding) {
  const std::string long_name(230, 'n');  // a naming key far past the inline bytes
  const std::vector<std::vector<Value>> keys = {
      {Value::Int4(-7)},
      {Value::Int4(7)},
      {Value::Int8(-5'000'000'000)},
      {Value::MakeOid(42), Value::Text("passwd")},
      {Value::MakeOid(42), Value::Text(std::string(45, 'x'))},  // fills the inline bytes
      {Value::MakeOid(42), Value::Text(std::string(52, 'x'))},  // one byte past
      {Value::MakeOid(42), Value::Text(long_name)},
      {Value::MakeOid(42), Value::Text(long_name + "a")},
      {Value::MakeOid(43), Value::Text("a")},
  };
  std::vector<BtreeKey> encoded;
  for (const auto& values : keys) {
    auto key = EncodeKey(values);
    ASSERT_TRUE(key.ok());
    const std::vector<std::byte> want = ReferenceKey(values);
    EXPECT_TRUE(std::ranges::equal(Bytes(*key), want));
    EXPECT_EQ(key->on_heap(), want.size() > BtreeKey::kInlineCapacity);
    encoded.push_back(std::move(*key));
  }
  // Same order as the vectors, which compare bytewise like the B-tree.
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      EXPECT_EQ(encoded[i] < encoded[j], ReferenceKey(keys[i]) < ReferenceKey(keys[j]))
          << i << " vs " << j;
      EXPECT_EQ(encoded[i] == encoded[j], i == j) << i << " vs " << j;
    }
  }
  // Copies and moves keep the bytes, inline and on the heap alike.
  for (const BtreeKey& key : encoded) {
    BtreeKey copy = key;
    EXPECT_EQ(copy, key);
    BtreeKey moved = std::move(copy);
    EXPECT_EQ(moved, key);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
    copy = moved;
    moved = BtreeKey(Bytes(encoded[0]));
    EXPECT_EQ(copy, key);
    EXPECT_EQ(moved, encoded[0]);
  }
  // The encoders that build from a held value agree with EncodeKey.
  BtreeKey naming = EncodeOidKey(42);
  ASSERT_TRUE(AppendTextKeyPart(long_name, &naming).ok());
  EXPECT_EQ(naming, encoded[6]);
  EXPECT_EQ(EncodeInt4Key(-7), encoded[0]);
  EXPECT_FALSE(AppendTextKeyPart(std::string("a\0b", 3), &naming).ok());
  const Row row{Value::Text(long_name), Value::MakeOid(42), Value::Int4(1)};
  const std::vector<size_t> columns{1, 0};
  EXPECT_EQ(*EncodeKey(row, columns), encoded[6]);
}

// ---------------------------------------------------------------- B-tree

bool IsCorruption(const Status& s) { return s.code() == ErrorCode::kCorruption; }

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() {
    sw_.Register(kDeviceMagneticDisk, std::make_unique<NvramDevice>(&store_));
    pool_ = std::make_unique<BufferPool>(&sw_, 64, &clock_);
    sw_.BindRelation(1, kDeviceMagneticDisk);
    EXPECT_TRUE(sw_.Get(kDeviceMagneticDisk)->CreateRelation(1).ok());
    auto tree = BTree::Create(1, pool_.get(), /*key_width=*/0);
    EXPECT_TRUE(tree.ok());
    tree_ = std::move(*tree);
  }

  SimClock clock_;
  MemBlockStore store_;
  DeviceSwitch sw_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, InsertAndLookup) {
  ASSERT_TRUE(tree_->Insert(EncodeInt4Key(5), Tid{1, 2}).ok());
  auto tids = tree_->Lookup(EncodeInt4Key(5));
  ASSERT_TRUE(tids.ok());
  ASSERT_EQ(tids->size(), 1u);
  EXPECT_EQ((*tids)[0], (Tid{1, 2}));
  EXPECT_TRUE(tree_->Lookup(EncodeInt4Key(6))->empty());
}

TEST_F(BTreeTest, DuplicateKeysKeepAllTids) {
  for (uint16_t s = 0; s < 5; ++s) {
    ASSERT_TRUE(tree_->Insert(EncodeInt4Key(9), Tid{0, s}).ok());
  }
  auto tids = tree_->Lookup(EncodeInt4Key(9));
  ASSERT_TRUE(tids.ok());
  EXPECT_EQ(tids->size(), 5u);
}

TEST_F(BTreeTest, RemoveSpecificEntry) {
  ASSERT_TRUE(tree_->Insert(EncodeInt4Key(9), Tid{0, 1}).ok());
  ASSERT_TRUE(tree_->Insert(EncodeInt4Key(9), Tid{0, 2}).ok());
  ASSERT_TRUE(tree_->Remove(EncodeInt4Key(9), Tid{0, 1}).ok());
  auto tids = tree_->Lookup(EncodeInt4Key(9));
  ASSERT_TRUE(tids.ok());
  ASSERT_EQ(tids->size(), 1u);
  EXPECT_EQ((*tids)[0], (Tid{0, 2}));
  EXPECT_TRUE(tree_->Remove(EncodeInt4Key(9), Tid{0, 1}).IsNotFound());
}

TEST_F(BTreeTest, SplitsPreserveEverything) {
  // Enough entries to force several leaf and internal splits.
  constexpr int kN = 20000;
  Rng rng(11);
  std::vector<int32_t> keys;
  keys.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    keys.push_back(static_cast<int32_t>(rng.Next() % 1'000'000));
  }
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        tree_->Insert(EncodeInt4Key(keys[i]), Tid{static_cast<uint32_t>(i), 0}).ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_EQ(*tree_->CountEntries(), static_cast<uint64_t>(kN));
  // Spot-check lookups.
  for (int i = 0; i < kN; i += 997) {
    auto tids = tree_->Lookup(EncodeInt4Key(keys[i]));
    ASSERT_TRUE(tids.ok());
    bool found = false;
    for (Tid t : *tids) {
      found |= t.block == static_cast<uint32_t>(i);
    }
    EXPECT_TRUE(found) << "key " << keys[i];
  }
}

TEST_F(BTreeTest, SequentialInsertOrderedScan) {
  for (int32_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree_->Insert(EncodeInt4Key(k), Tid{static_cast<uint32_t>(k), 0}).ok());
  }
  auto it = tree_->Seek({});
  ASSERT_TRUE(it.ok());
  int32_t expected = 0;
  while (it->Valid()) {
    EXPECT_EQ(BtreeKey(it->key()), EncodeInt4Key(expected));
    ++expected;
    ASSERT_TRUE(it->Advance().ok());
  }
  EXPECT_EQ(expected, 5000);
}

TEST_F(BTreeTest, SeekPositionsAtLowerBound) {
  for (int32_t k = 0; k < 100; k += 10) {
    ASSERT_TRUE(tree_->Insert(EncodeInt4Key(k), Tid{0, 0}).ok());
  }
  auto it = tree_->Seek(EncodeInt4Key(35));
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(BtreeKey(it->key()), EncodeInt4Key(40));
}

TEST_F(BTreeTest, TextKeysWork) {
  const char* names[] = {"passwd", "group", "hosts", "fstab", "motd"};
  for (uint16_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(tree_->Insert(EncodeTextKey(names[i]), Tid{0, i}).ok());
  }
  auto tids = tree_->Lookup(EncodeTextKey("hosts"));
  ASSERT_TRUE(tids.ok());
  ASSERT_EQ(tids->size(), 1u);
  EXPECT_EQ((*tids)[0].slot, 2);
}

// Keys past the inline bytes round-trip through the tree: stored with their
// TID suffix, found by Lookup, and surfaced whole by the iterator.
TEST_F(BTreeTest, HeapKeysRoundTrip) {
  std::vector<BtreeKey> keys;
  for (int i = 0; i < 40; ++i) {
    BtreeKey key = EncodeOidKey(7);
    ASSERT_TRUE(AppendTextKeyPart(std::string(200 + i, static_cast<char>('a' + i % 26)),
                                  &key).ok());
    ASSERT_TRUE(key.on_heap());
    ASSERT_TRUE(tree_->Insert(key, Tid{static_cast<uint32_t>(i), 1}).ok());
    ASSERT_TRUE(tree_->Insert(key, Tid{static_cast<uint32_t>(i), 2}).ok());
    keys.push_back(std::move(key));
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto tids = tree_->Lookup(keys[i]);
    ASSERT_TRUE(tids.ok());
    ASSERT_EQ(tids->size(), 2u);
    EXPECT_EQ((*tids)[0], (Tid{static_cast<uint32_t>(i), 1}));
    EXPECT_EQ((*tids)[1], (Tid{static_cast<uint32_t>(i), 2}));
  }
  std::vector<BtreeKey> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  auto it = tree_->Seek(EncodeOidKey(7));
  ASSERT_TRUE(it.ok());
  for (const BtreeKey& want : sorted) {
    for (int copy = 0; copy < 2; ++copy) {
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ(BtreeKey(it->key()), want);
      ASSERT_TRUE(it->Advance().ok());
    }
  }
  EXPECT_FALSE(it->Valid());
}

// A key with more versions than a TidList keeps inline returns them all.
TEST_F(BTreeTest, LookupPastTheInlineVersions) {
  for (uint16_t s = 0; s < 3 * TidList::kInlineCapacity; ++s) {
    ASSERT_TRUE(tree_->Insert(EncodeInt4Key(3), Tid{9, s}).ok());
  }
  auto tids = tree_->Lookup(EncodeInt4Key(3));
  ASSERT_TRUE(tids.ok());
  ASSERT_EQ(tids->size(), 3 * TidList::kInlineCapacity);
  EXPECT_TRUE(tids->on_heap());
  for (uint16_t s = 0; s < tids->size(); ++s) {
    EXPECT_EQ((*tids)[s], (Tid{9, s}));
  }
}

TEST_F(BTreeTest, OversizedKeyRejected) {
  const BtreeKey huge(std::vector<std::byte>(4000, std::byte{1}));
  EXPECT_FALSE(tree_->Insert(huge, Tid{0, 0}).ok());
}

TEST_F(BTreeTest, PersistsThroughPoolFlush) {
  for (int32_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree_->Insert(EncodeInt4Key(k), Tid{static_cast<uint32_t>(k), 0}).ok());
  }
  ASSERT_TRUE(pool_->FlushAndInvalidate().ok());
  auto reopened = BTree::Open(1, pool_.get(), /*key_width=*/0);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->CountEntries(), 3000u);
  auto tids = (*reopened)->Lookup(EncodeInt4Key(2999));
  ASSERT_TRUE(tids.ok());
  EXPECT_EQ(tids->size(), 1u);
}

// Lookups hold the tree latch shared, so they run side by side; an insert
// holds it exclusive. Readers probing keys that exist from the start must
// find each exactly once while a writer's inserts split leaves and the root.
TEST_F(BTreeTest, LookupsShareTheTreeWithASplittingWriter) {
  constexpr int32_t kKeys = 3000;
  for (int32_t k = 0; k < kKeys; k += 2) {
    ASSERT_TRUE(tree_->Insert(EncodeInt4Key(k), Tid{static_cast<uint32_t>(k), 0}).ok());
  }
  std::atomic<bool> writer_done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      int lookups = 0;
      while (!writer_done.load() || lookups < 500) {
        const auto k = static_cast<int32_t>(rng.Uniform(kKeys / 2) * 2);
        auto tids = tree_->Lookup(EncodeInt4Key(k));
        if (!tids.ok() || tids->size() != 1 ||
            (*tids)[0] != Tid{static_cast<uint32_t>(k), 0}) {
          bad.fetch_add(1);
        }
        ++lookups;
      }
    });
  }
  bool inserted = true;
  for (int32_t k = 1; k < kKeys && inserted; k += 2) {
    inserted = tree_->Insert(EncodeInt4Key(k), Tid{static_cast<uint32_t>(k), 0}).ok();
  }
  writer_done.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  ASSERT_TRUE(inserted);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(*tree_->CountEntries(), static_cast<uint64_t>(kKeys));
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

// The root leaf is block 1 (block 0 is the meta page) and, because a split
// moves the upper half right, it stays the leftmost leaf.
constexpr uint32_t kFirstLeaf = 1;

// An entry that claims more key bytes than its node holds must read as
// Corruption, not as bytes past the 8 KB frame (the asan leg checks that).
TEST_F(BTreeTest, CorruptEntryLengthIsCorruption) {
  for (uint32_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(tree_->Insert(EncodeInt4Key(static_cast<int32_t>(k)), Tid{k, 0}).ok());
  }
  {
    auto leaf = pool_->Pin(1, kFirstLeaf);
    ASSERT_TRUE(leaf.ok());
    PutU16(leaf->data() + btree_layout::kOffEntries, 0xFFFF);  // first klen
  }
  EXPECT_TRUE(IsCorruption(tree_->Lookup(EncodeInt4Key(5)).status()));
  EXPECT_TRUE(IsCorruption(tree_->Seek(EncodeInt4Key(5)).status()));
  EXPECT_TRUE(IsCorruption(tree_->Remove(EncodeInt4Key(5), Tid{5, 0})));
  EXPECT_TRUE(IsCorruption(tree_->Insert(EncodeInt4Key(5), Tid{5, 1})));
  EXPECT_TRUE(IsCorruption(tree_->CheckInvariants()));
}

// A `used` count that disagrees with the entries is caught where a walk
// reaches the end of the node.
TEST_F(BTreeTest, UsedCountMismatchIsCorruption) {
  ASSERT_TRUE(tree_->Insert(EncodeInt4Key(1), Tid{1, 0}).ok());
  {
    auto leaf = pool_->Pin(1, kFirstLeaf);
    ASSERT_TRUE(leaf.ok());
    std::byte* used = leaf->data() + btree_layout::kOffUsed;
    PutU16(used, static_cast<uint16_t>(GetU16(used) + 1));
  }
  EXPECT_EQ(tree_->Lookup(EncodeInt4Key(2)).status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(tree_->CheckInvariants().code(), ErrorCode::kCorruption);
}

// CheckInvariants follows the leaf sibling chain: it must thread the leaves
// in tree order and end at the last one.
TEST_F(BTreeTest, CheckInvariantsFollowsTheSiblingChain) {
  for (int32_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree_->Insert(EncodeInt4Key(k), Tid{static_cast<uint32_t>(k), 0}).ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto leaf = pool_->Pin(1, kFirstLeaf);
  ASSERT_TRUE(leaf.ok());
  std::byte* sibling = leaf->data() + btree_layout::kOffRightSib;
  const uint32_t next = GetU32(sibling);
  ASSERT_NE(next, BTree::kNoBlock);
  PutU32(sibling, BTree::kNoBlock);
  EXPECT_EQ(tree_->CheckInvariants().code(), ErrorCode::kCorruption);
  PutU32(sibling, next);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

// Golden node pages: a seeded mix of inserts and removes over long text keys
// (so internal nodes split too) with duplicate runs longer than a leaf holds,
// then a digest over every page of the index as flushed to the device. The
// digest pins the on-disk node bytes: any change to how nodes are searched,
// edited or split must leave every page byte-identical.
TEST_F(BTreeTest, GoldenNodePages) {
  Rng rng(1993);
  auto text_key = [](uint64_t id) {
    std::string name = "inversion/chunk-" + std::to_string(id) + "/";
    name.resize(180 + (id * 37) % 160, static_cast<char>('a' + id % 26));
    return EncodeTextKey(name);
  };
  std::vector<std::pair<BtreeKey, Tid>> live;
  uint32_t next_block = 0;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t roll = rng.Uniform(10);
    if (roll < 3 && !live.empty()) {
      const size_t victim = rng.Uniform(live.size());
      ASSERT_TRUE(tree_->Remove(live[victim].first, live[victim].second).ok());
      live[victim] = std::move(live.back());
      live.pop_back();
      continue;
    }
    // Every 500 steps, a run of 60 equal keys: more than one leaf holds.
    const int copies = step % 500 == 0 ? 60 : 1;
    const BtreeKey key = text_key(roll == 9 ? step % 7 : rng.Uniform(400));
    for (int c = 0; c < copies; ++c) {
      const Tid tid{next_block++, static_cast<uint16_t>(rng.Uniform(64))};
      ASSERT_TRUE(tree_->Insert(key, tid).ok());
      live.emplace_back(key, tid);
    }
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  ASSERT_EQ(*tree_->CountEntries(), live.size());
  ASSERT_TRUE(pool_->FlushAll().ok());

  // The root's first child is internal too: the tree is at least three
  // levels deep, so internal nodes have split.
  namespace bl = btree_layout;
  auto nblocks = store_.NumBlocks(1);
  ASSERT_TRUE(nblocks.ok());
  std::vector<std::byte> page(kPageSize);
  auto node_type = [&](uint32_t block) {
    EXPECT_TRUE(store_.Read(1, block, page).ok());
    return static_cast<uint8_t>(page[bl::kOffType]);
  };
  ASSERT_TRUE(store_.Read(1, 0, page).ok());
  const uint32_t root = GetU32(page.data() + bl::kOffMetaRoot);
  ASSERT_EQ(node_type(root), bl::kNodeInternal);
  ASSERT_EQ(node_type(GetU32(page.data() + bl::kOffLeftChild)), bl::kNodeInternal);

  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over every page
  for (uint32_t b = 0; b < *nblocks; ++b) {
    ASSERT_TRUE(store_.Read(1, b, page).ok());
    for (std::byte x : page) {
      digest = (digest ^ static_cast<uint8_t>(x)) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(digest, 0xa2016805eaf2649aULL);
}

// One B-tree of the given key width in relation 1 of its own store and pool.
struct TreeHarness {
  explicit TreeHarness(size_t key_width, size_t pool_pages = 64) {
    sw.Register(kDeviceMagneticDisk, std::make_unique<NvramDevice>(&store));
    pool = std::make_unique<BufferPool>(&sw, pool_pages, &clock);
    sw.BindRelation(1, kDeviceMagneticDisk);
    EXPECT_TRUE(sw.Get(kDeviceMagneticDisk)->CreateRelation(1).ok());
    auto created = BTree::Create(1, pool.get(), key_width);
    EXPECT_TRUE(created.ok());
    tree = std::move(*created);
  }

  // Inserts int4 keys 0..n-1, key k with TID (k, 0).
  bool InsertInt4Keys(uint32_t n) {
    for (uint32_t k = 0; k < n; ++k) {
      if (!tree->Insert(EncodeInt4Key(static_cast<int32_t>(k)), Tid{k, 0}).ok()) {
        return false;
      }
    }
    return true;
  }

  // Levels from the root down to the leaves.
  int Depth() const {
    auto meta = pool->Pin(1, 0);
    EXPECT_TRUE(meta.ok());
    uint32_t block = GetU32(meta->data() + btree_layout::kOffMetaRoot);
    for (int depth = 1;; ++depth) {
      auto node = pool->Pin(1, block);
      EXPECT_TRUE(node.ok());
      if (static_cast<uint8_t>(node->data()[btree_layout::kOffType]) ==
          btree_layout::kNodeLeaf) {
        return depth;
      }
      block = GetU32(node->data() + btree_layout::kOffLeftChild);
    }
  }

  SimClock clock;
  MemBlockStore store;
  DeviceSwitch sw;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<BTree> tree;
};

// One seeded sequence of inserts and removes fed to a fixed-width tree, whose
// nodes are arrays searched by bisection, and to a width-0 tree, whose nodes
// are walked. The sequence has runs of equal keys longer than a leaf holds
// and grows the trees to at least three levels. Lookups and seeks must agree
// with each other and with a std::multimap, and every page of the two trees
// must be byte-identical: the search changes, the node format does not.
class BTreeDifferential : public ::testing::TestWithParam<TypeId> {};

TEST_P(BTreeDifferential, ArrayAndWalkedNodesAgreeByteForByte) {
  const TypeId type = GetParam();
  const size_t width = FixedKeyWidth(Schema{{"k", type}}, std::vector<size_t>{0});
  ASSERT_GT(width, 0u);
  TreeHarness array(width, 1024);
  TreeHarness walked(0, 1024);
  constexpr int64_t kDistinct = 30000;
  auto encode = [type](int64_t v) {
    const Value value = type == TypeId::kInt4  ? Value::Int4(static_cast<int32_t>(v))
                        : type == TypeId::kOid ? Value::MakeOid(static_cast<Oid>(v + kDistinct))
                                               : Value::Int8(v * 1'000'000'007LL);
    return *EncodeKey(std::vector<Value>{value});
  };

  // Every entry's TID is larger than the last one's, so the trees' order of
  // equal keys (by TID) is the multimap's (by insertion).
  Rng rng(static_cast<uint64_t>(type) * 7919);
  std::multimap<BtreeKey, Tid> reference;
  std::vector<std::pair<BtreeKey, Tid>> live;
  uint32_t next_block = 0;
  for (int step = 0; step < 20000 || step % 1000 != 0 || array.Depth() < 3; ++step) {
    ASSERT_LT(step, 400000) << "the trees never reached three levels";
    if (rng.Uniform(5) == 0 && !live.empty()) {
      const size_t victim = rng.Uniform(live.size());
      const auto [key, tid] = live[victim];
      ASSERT_TRUE(array.tree->Remove(key, tid).ok());
      ASSERT_TRUE(walked.tree->Remove(key, tid).ok());
      auto range = reference.equal_range(key);
      auto it = std::find_if(range.first, range.second,
                             [&](const auto& e) { return e.second == tid; });
      ASSERT_NE(it, range.second);
      reference.erase(it);
      live[victim] = live.back();
      live.pop_back();
      continue;
    }
    // Every 2000 steps, a run of 600 equal keys: more than a leaf holds.
    const int copies = step % 2000 == 0 ? 600 : 1;
    const BtreeKey key = encode(static_cast<int64_t>(rng.Uniform(kDistinct)) - kDistinct / 2);
    for (int c = 0; c < copies; ++c) {
      const Tid tid{next_block++, static_cast<uint16_t>(rng.Uniform(64))};
      ASSERT_TRUE(array.tree->Insert(key, tid).ok());
      ASSERT_TRUE(walked.tree->Insert(key, tid).ok());
      reference.emplace(key, tid);
      live.emplace_back(key, tid);
    }
  }
  ASSERT_TRUE(array.tree->CheckInvariants().ok());
  ASSERT_TRUE(walked.tree->CheckInvariants().ok());

  // Lookups: every key of the domain, present or not, and keys past both ends.
  for (int64_t v = -kDistinct / 2 - 2; v < kDistinct / 2 + 2; ++v) {
    const BtreeKey key = encode(v);
    auto got = array.tree->Lookup(key);
    auto want = walked.tree->Lookup(key);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(std::equal(got->begin(), got->end(), want->begin(), want->end())) << v;
    auto range = reference.equal_range(key);
    ASSERT_EQ(got->size(), static_cast<size_t>(std::distance(range.first, range.second)));
    size_t i = 0;
    for (auto it = range.first; it != range.second; ++it) {
      ASSERT_EQ((*got)[i++], it->second) << v;
    }
  }

  // Seeks: from an empty key over everything, and from sampled keys over the
  // next entries, across leaf boundaries.
  auto seek_matches = [&](const BtreeKey& lo, size_t limit) {
    auto a = array.tree->Seek(lo);
    auto w = walked.tree->Seek(lo);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(w.ok());
    size_t n = 0;
    for (auto it = reference.lower_bound(lo); it != reference.end() && n < limit; ++it, ++n) {
      ASSERT_TRUE(a->Valid());
      ASSERT_TRUE(w->Valid());
      ASSERT_EQ(BtreeKey(a->key()), it->first);
      ASSERT_EQ(BtreeKey(w->key()), it->first);
      ASSERT_EQ(a->tid(), it->second);
      ASSERT_EQ(w->tid(), it->second);
      ASSERT_TRUE(a->Advance().ok());
      ASSERT_TRUE(w->Advance().ok());
    }
    if (n < limit) {
      EXPECT_FALSE(a->Valid());
      EXPECT_FALSE(w->Valid());
    }
  };
  seek_matches(BtreeKey{}, SIZE_MAX);
  for (int i = 0; i < 200; ++i) {
    seek_matches(encode(static_cast<int64_t>(rng.Uniform(kDistinct + 4)) - kDistinct / 2 - 2),
                 1000);
  }

  ASSERT_TRUE(array.pool->FlushAll().ok());
  ASSERT_TRUE(walked.pool->FlushAll().ok());
  auto blocks = array.store.NumBlocks(1);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(*blocks, *walked.store.NumBlocks(1));
  std::vector<std::byte> a_page(kPageSize);
  std::vector<std::byte> w_page(kPageSize);
  for (uint32_t b = 0; b < *blocks; ++b) {
    ASSERT_TRUE(array.store.Read(1, b, a_page).ok());
    ASSERT_TRUE(walked.store.Read(1, b, w_page).ok());
    ASSERT_EQ(a_page, w_page) << "block " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyTypes, BTreeDifferential,
                         ::testing::Values(TypeId::kInt4, TypeId::kOid, TypeId::kInt8),
                         [](const auto& param) { return std::string(TypeName(param.param)); });

constexpr uint32_t kArrayLeaf = 1;        // the root leaf of a one-node tree
constexpr uint32_t kInt4LeafStride = 18;  // u16 length, 4 + 6 key bytes, TID

// A node cycle reads as Corruption on every path, never as a descent that
// does not end: an empty internal node that is its own leftmost child, and
// a root entry whose child is the root.
TEST(BTreeArrayNodes, NodeCycleIsCorruption) {
  namespace bl = btree_layout;
  for (const bool self_loop : {true, false}) {
    SCOPED_TRACE(self_loop ? "empty internal node" : "keyed child is the root");
    TreeHarness h(4);
    ASSERT_TRUE(h.InsertInt4Keys(self_loop ? 10 : 2000));
    ASSERT_TRUE(h.tree->CheckInvariants().ok());
    uint32_t root = 0;
    {
      auto meta = h.pool->Pin(1, 0);
      ASSERT_TRUE(meta.ok());
      root = GetU32(meta->data() + bl::kOffMetaRoot);
      auto node = h.pool->Pin(1, root);
      ASSERT_TRUE(node.ok());
      std::byte* p = node->data();
      if (self_loop) {
        p[bl::kOffType] = std::byte{bl::kNodeInternal};
        PutU16(p + bl::kOffNKeys, 0);
        PutU16(p + bl::kOffUsed, 0);
        PutU32(p + bl::kOffLeftChild, root);
      } else {
        ASSERT_EQ(static_cast<uint8_t>(p[bl::kOffType]), bl::kNodeInternal);
        constexpr uint32_t kInt4InternalStride = 2 + 4 + BTree::kTidSuffix + 4;
        const uint16_t last = GetU16(p + bl::kOffNKeys) - 1;
        PutU32(p + bl::kOffEntries + last * kInt4InternalStride + kInt4InternalStride - 4,
               root);
      }
    }
    EXPECT_TRUE(IsCorruption(h.tree->Lookup(EncodeInt4Key(1999)).status()));
    EXPECT_TRUE(IsCorruption(h.tree->Seek(EncodeInt4Key(1999)).status()));
    EXPECT_TRUE(IsCorruption(h.tree->Insert(EncodeInt4Key(1999), Tid{1, 1})));
    EXPECT_TRUE(IsCorruption(h.tree->Remove(EncodeInt4Key(1999), Tid{1999, 0})));
    EXPECT_TRUE(IsCorruption(h.tree->CheckInvariants()));
  }
}

// A leaf whose right sibling is itself, or the leaf before it: every walk
// along the chain (Lookup past the last key, Remove of an absent entry, Seek
// then Advance) stops with Corruption within as many hops as the relation
// has blocks, never walks the cycle for ever.
TEST(BTreeArrayNodes, SiblingCycleIsCorruption) {
  namespace bl = btree_layout;
  for (const bool self_loop : {true, false}) {
    SCOPED_TRACE(self_loop ? "self-looping leaf" : "two-leaf cycle");
    TreeHarness h(4);
    ASSERT_TRUE(h.InsertInt4Keys(self_loop ? 10 : 2000));
    auto read_u32 = [&](uint32_t block, size_t offset) {
      auto ref = h.pool->Pin(1, block);
      EXPECT_TRUE(ref.ok());
      return GetU32(ref->data() + offset);
    };
    // The last two leaves of the chain, from the leftmost.
    uint32_t last = read_u32(0, bl::kOffMetaRoot);
    for (int level = h.Depth(); level > 1; --level) {
      last = read_u32(last, bl::kOffLeftChild);
    }
    uint32_t prev = last;
    for (uint32_t next; (next = read_u32(last, bl::kOffRightSib)) != BTree::kNoBlock;) {
      prev = std::exchange(last, next);
    }
    ASSERT_EQ(self_loop, prev == last);
    {
      auto ref = h.pool->Pin(1, last);
      ASSERT_TRUE(ref.ok());
      PutU32(ref->data() + bl::kOffRightSib, prev);
    }
    EXPECT_TRUE(IsCorruption(h.tree->Lookup(EncodeInt4Key(5000)).status()));
    EXPECT_TRUE(IsCorruption(h.tree->Remove(EncodeInt4Key(5000), Tid{5000, 0})));
    auto it = h.tree->Seek(EncodeInt4Key(5000));
    Status walk = it.status();
    // A cap far past any legal walk of this tree, so a regression fails
    // rather than hangs.
    for (int step = 0; walk.ok() && it->Valid() && step < 1'000'000; ++step) {
      walk = it->Advance();
    }
    EXPECT_TRUE(IsCorruption(walk)) << walk.ToString();
  }
}

// A width-4 tree's only node holds ten int4 keys. An array node whose `used`
// is not nkeys whole entries, or is whole entries past the entry area, or
// whose middle entry (the one every bisection of its ten entries probes
// first) carries another key length, reads as Corruption on every path that
// searches it, never as bytes past `used` or past the page (the asan leg
// checks that).
TEST(BTreeArrayNodes, CraftedNodesAreCorruption) {
  namespace bl = btree_layout;
  enum Flaw {
    kUsedPlusOne,
    kExtraKey,
    kPastTheEntryArea,
    kMiddleKeyLength,
    kMiddleKeyLengthHuge,
  };
  for (Flaw flaw :
       {kUsedPlusOne, kExtraKey, kPastTheEntryArea, kMiddleKeyLength, kMiddleKeyLengthHuge}) {
    SCOPED_TRACE(flaw);
    TreeHarness h(4);
    ASSERT_TRUE(h.InsertInt4Keys(10));
    {
      auto leaf = h.pool->Pin(1, kArrayLeaf);
      ASSERT_TRUE(leaf.ok());
      std::byte* p = leaf->data();
      ASSERT_EQ(GetU16(p + bl::kOffUsed), 10 * kInt4LeafStride);
      std::byte* middle = p + bl::kOffEntries + 5 * kInt4LeafStride;
      switch (flaw) {
        case kUsedPlusOne:
          PutU16(p + bl::kOffUsed, 10 * kInt4LeafStride + 1);
          break;
        case kExtraKey:
          PutU16(p + bl::kOffNKeys, 11);
          break;
        case kPastTheEntryArea:
          PutU16(p + bl::kOffNKeys, 1000);
          PutU16(p + bl::kOffUsed, 1000 * kInt4LeafStride);
          break;
        case kMiddleKeyLength:
          PutU16(middle, 4 + BTree::kTidSuffix + 1);
          break;
        case kMiddleKeyLengthHuge:
          PutU16(middle, 0xFFFF);
          break;
      }
    }
    EXPECT_TRUE(IsCorruption(h.tree->Lookup(EncodeInt4Key(5)).status()));
    EXPECT_TRUE(IsCorruption(h.tree->Lookup(EncodeInt4Key(0)).status()));
    EXPECT_TRUE(IsCorruption(h.tree->Seek(EncodeInt4Key(5)).status()));
    EXPECT_TRUE(IsCorruption(h.tree->Remove(EncodeInt4Key(5), Tid{5, 0})));
    EXPECT_TRUE(IsCorruption(h.tree->Insert(EncodeInt4Key(5), Tid{5, 1})));
    EXPECT_TRUE(IsCorruption(h.tree->CheckInvariants()));
  }
}

// A wrong key length anywhere in an array node is either probed (Corruption)
// or off the search's path (the right answer); it never sends a probe past
// the node's entries.
TEST(BTreeArrayNodes, AnyBadKeyLengthIsCorruptionOrUnread) {
  namespace bl = btree_layout;
  for (uint32_t victim = 0; victim < 10; ++victim) {
    for (uint16_t bad_len : {uint16_t{0}, uint16_t{9}, uint16_t{11}, uint16_t{0xFFFF}}) {
      SCOPED_TRACE(::testing::Message() << "entry " << victim << " length " << bad_len);
      TreeHarness h(4);
      ASSERT_TRUE(h.InsertInt4Keys(10));
      {
        auto leaf = h.pool->Pin(1, kArrayLeaf);
        ASSERT_TRUE(leaf.ok());
        PutU16(leaf->data() + bl::kOffEntries + victim * kInt4LeafStride, bad_len);
      }
      for (int32_t k = -1; k <= 10; ++k) {
        auto tids = h.tree->Lookup(EncodeInt4Key(k));
        if (!tids.ok()) {
          EXPECT_TRUE(IsCorruption(tids.status())) << k;
          continue;
        }
        EXPECT_NE(k, static_cast<int32_t>(victim)) << "the bad entry was returned";
        EXPECT_EQ(tids->size(), k >= 0 && k < 10 ? 1u : 0u) << k;
      }
      EXPECT_TRUE(IsCorruption(h.tree->CheckInvariants()));
    }
  }
}

// The width is the reader's, not the page's: a width-0 tree of int8 keys
// reads as the same tree opened with width 8, and as Corruption with width 4.
TEST(BTreeArrayNodes, TreeOpenedWithAnotherWidthIsCorruption) {
  TreeHarness h(0);
  for (int64_t k = 0; k < 2000; ++k) {
    const BtreeKey key = *EncodeKey(std::vector<Value>{Value::Int8(k)});
    ASSERT_TRUE(h.tree->Insert(key, Tid{static_cast<uint32_t>(k), 0}).ok());
  }
  const BtreeKey probe = *EncodeKey(std::vector<Value>{Value::Int8(1234)});
  auto as_eight = BTree::Open(1, h.pool.get(), 8);
  ASSERT_TRUE(as_eight.ok());
  EXPECT_TRUE((*as_eight)->CheckInvariants().ok());
  EXPECT_EQ(*(*as_eight)->CountEntries(), 2000u);
  auto tids = (*as_eight)->Lookup(probe);
  ASSERT_TRUE(tids.ok());
  ASSERT_EQ(tids->size(), 1u);
  EXPECT_EQ((*tids)[0], (Tid{1234, 0}));

  auto as_four = BTree::Open(1, h.pool.get(), 4);
  ASSERT_TRUE(as_four.ok());
  EXPECT_TRUE(IsCorruption((*as_four)->CheckInvariants()));
  EXPECT_TRUE(IsCorruption((*as_four)->Lookup(probe).status()));
}

// A fixed-width tree refuses a key of any other length, so its nodes stay
// arrays. Rows never get here: they are type-checked before any index insert.
TEST(BTreeArrayNodes, WrongWidthInsertRefused) {
  TreeHarness h(4);
  ASSERT_TRUE(h.tree->Insert(EncodeInt4Key(1), Tid{1, 0}).ok());
  const BtreeKey wrong[] = {
      BtreeKey{},
      *EncodeKey(std::vector<Value>{Value::Int8(1)}),
      EncodeTextKey("ab"),
      EncodeTextKey("abcd"),
  };
  for (const BtreeKey& key : wrong) {
    EXPECT_EQ(h.tree->Insert(key, Tid{2, 0}).code(), ErrorCode::kInvalidArgument)
        << key.size();
  }
  EXPECT_EQ(*h.tree->CountEntries(), 1u);
  EXPECT_TRUE(h.tree->CheckInvariants().ok());
}

// Property test: random interleaved inserts/removes vs a reference multimap.
class BTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeProperty, MatchesReferenceModel) {
  TreeHarness h(/*key_width=*/0);
  BTree* tree = h.tree.get();

  Rng rng(GetParam());
  std::multimap<int32_t, Tid> reference;
  uint16_t next_slot = 0;
  for (int step = 0; step < 4000; ++step) {
    const int32_t key = static_cast<int32_t>(rng.Uniform(200));
    if (rng.Uniform(3) != 0 || reference.empty()) {
      Tid tid{static_cast<uint32_t>(step), next_slot++};
      ASSERT_TRUE(tree->Insert(EncodeInt4Key(key), tid).ok());
      reference.emplace(key, tid);
    } else {
      auto range = reference.equal_range(key);
      if (range.first != range.second) {
        Tid victim = range.first->second;
        ASSERT_TRUE(tree->Remove(EncodeInt4Key(key), victim).ok());
        reference.erase(range.first);
      }
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "step " << step;
    }
  }
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(*tree->CountEntries(), reference.size());
  for (int32_t key = 0; key < 200; ++key) {
    auto tids = tree->Lookup(EncodeInt4Key(key));
    ASSERT_TRUE(tids.ok());
    std::multiset<uint64_t> got, want;
    for (Tid t : *tids) {
      got.insert((static_cast<uint64_t>(t.block) << 16) | t.slot);
    }
    auto range = reference.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      want.insert((static_cast<uint64_t>(it->second.block) << 16) | it->second.slot);
    }
    EXPECT_EQ(got, want) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeProperty, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace invfs

// Unit + property tests: B-tree access method and the order-preserving key
// codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
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

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() {
    sw_.Register(kDeviceMagneticDisk, std::make_unique<NvramDevice>(&store_));
    pool_ = std::make_unique<BufferPool>(&sw_, 64, &clock_);
    sw_.BindRelation(1, kDeviceMagneticDisk);
    EXPECT_TRUE(sw_.Get(kDeviceMagneticDisk)->CreateRelation(1).ok());
    auto tree = BTree::Create(1, pool_.get());
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
  auto reopened = BTree::Open(1, pool_.get());
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
  auto is_corruption = [](const Status& s) {
    return s.code() == ErrorCode::kCorruption;
  };
  EXPECT_TRUE(is_corruption(tree_->Lookup(EncodeInt4Key(5)).status()));
  EXPECT_TRUE(is_corruption(tree_->Seek(EncodeInt4Key(5)).status()));
  EXPECT_TRUE(is_corruption(tree_->Remove(EncodeInt4Key(5), Tid{5, 0})));
  EXPECT_TRUE(is_corruption(tree_->Insert(EncodeInt4Key(5), Tid{5, 1})));
  EXPECT_TRUE(is_corruption(tree_->CheckInvariants()));
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

// Property test: random interleaved inserts/removes vs a reference multimap.
class BTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeProperty, MatchesReferenceModel) {
  SimClock clock;
  MemBlockStore store;
  DeviceSwitch sw;
  sw.Register(kDeviceMagneticDisk, std::make_unique<NvramDevice>(&store));
  BufferPool pool(&sw, 64, &clock);
  sw.BindRelation(1, kDeviceMagneticDisk);
  ASSERT_TRUE(sw.Get(kDeviceMagneticDisk)->CreateRelation(1).ok());
  auto tree = BTree::Create(1, &pool);
  ASSERT_TRUE(tree.ok());

  Rng rng(GetParam());
  std::multimap<int32_t, Tid> reference;
  uint16_t next_slot = 0;
  for (int step = 0; step < 4000; ++step) {
    const int32_t key = static_cast<int32_t>(rng.Uniform(200));
    if (rng.Uniform(3) != 0 || reference.empty()) {
      Tid tid{static_cast<uint32_t>(step), next_slot++};
      ASSERT_TRUE((*tree)->Insert(EncodeInt4Key(key), tid).ok());
      reference.emplace(key, tid);
    } else {
      auto range = reference.equal_range(key);
      if (range.first != range.second) {
        Tid victim = range.first->second;
        ASSERT_TRUE((*tree)->Remove(EncodeInt4Key(key), victim).ok());
        reference.erase(range.first);
      }
    }
    if (step % 500 == 0) {
      ASSERT_TRUE((*tree)->CheckInvariants().ok()) << "step " << step;
    }
  }
  ASSERT_TRUE((*tree)->CheckInvariants().ok());
  EXPECT_EQ(*(*tree)->CountEntries(), reference.size());
  for (int32_t key = 0; key < 200; ++key) {
    auto tids = (*tree)->Lookup(EncodeInt4Key(key));
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

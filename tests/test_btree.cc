// Unit + property tests: B-tree access method and the order-preserving key
// codec.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/access/btree.h"
#include "src/buffer/buffer_pool.h"
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
    EXPECT_EQ(it->key(), EncodeInt4Key(expected));
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
  EXPECT_EQ(it->key(), EncodeInt4Key(40));
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

TEST_F(BTreeTest, OversizedKeyRejected) {
  BtreeKey huge(4000, std::byte{1});
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

#include "src/access/btree.h"

#include <algorithm>
#include <cstring>

#include "src/access/btree_layout.h"
#include "src/fault/crash_points.h"
#include "src/storage/page.h"
#include "src/util/bytes.h"

namespace invfs {
namespace {

// Node and meta-page byte layout lives in btree_layout.h, shared with the
// offline verifier.
using namespace btree_layout;  // NOLINT(google-build-using-namespace)

int CompareKeys(std::span<const std::byte> a, std::span<const std::byte> b) {
  const size_t n = std::min(a.size(), b.size());
  const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (c != 0) {
    return c;
  }
  return a.size() < b.size() ? -1 : (a.size() == b.size() ? 0 : 1);
}

// Stored node keys are the user key with the TID appended (big-endian, so
// memcmp order is preserved). This makes every stored key unique, which keeps
// duplicate user keys contiguous across leaf splits — without it, a split in
// the middle of an equal-key run would strand entries left of the separator
// where descent can no longer find them.
BtreeKey CombineKey(const BtreeKey& key, Tid tid) {
  BtreeKey out = key;
  out.push_back(std::byte{static_cast<uint8_t>(tid.block >> 24)});
  out.push_back(std::byte{static_cast<uint8_t>(tid.block >> 16)});
  out.push_back(std::byte{static_cast<uint8_t>(tid.block >> 8)});
  out.push_back(std::byte{static_cast<uint8_t>(tid.block)});
  out.push_back(std::byte{static_cast<uint8_t>(tid.slot >> 8)});
  out.push_back(std::byte{static_cast<uint8_t>(tid.slot)});
  return out;
}

std::span<const std::byte> UserPart(const BtreeKey& stored) {
  return std::span(stored.data(), stored.size() - kTidSuffix);
}

struct Entry {
  BtreeKey key;
  // Leaf payload:
  Tid tid;
  // Internal payload:
  uint32_t child = 0;
};

size_t EntryBytes(const Entry& e, bool leaf) {
  return 2 + e.key.size() + (leaf ? 6 : 4);
}

// Read/write helpers over a raw node frame.
struct NodeView {
  std::byte* p;

  bool leaf() const { return static_cast<uint8_t>(p[kOffType]) == kNodeLeaf; }
  void set_type(bool is_leaf) {
    p[kOffType] = std::byte{is_leaf ? kNodeLeaf : kNodeInternal};
  }
  uint32_t right_sibling() const { return GetU32(p + kOffRightSib); }
  void set_right_sibling(uint32_t b) { PutU32(p + kOffRightSib, b); }
  uint16_t nkeys() const { return GetU16(p + kOffNKeys); }
  uint32_t leftmost_child() const { return GetU32(p + kOffLeftChild); }
  void set_leftmost_child(uint32_t b) { PutU32(p + kOffLeftChild, b); }
  uint16_t used() const { return GetU16(p + kOffUsed); }

  void InitNode(bool is_leaf) {
    set_type(is_leaf);
    set_right_sibling(BTree::kNoBlock);
    PutU16(p + kOffNKeys, 0);
    set_leftmost_child(BTree::kNoBlock);
    PutU16(p + kOffUsed, 0);
  }

  std::vector<Entry> Decode() const {
    const bool is_leaf = leaf();
    std::vector<Entry> out;
    out.reserve(nkeys());
    const std::byte* d = p + kOffEntries;
    for (uint16_t i = 0; i < nkeys(); ++i) {
      Entry e;
      const uint16_t klen = GetU16(d);
      d += 2;
      e.key.assign(d, d + klen);
      d += klen;
      if (is_leaf) {
        e.tid.block = GetU32(d);
        e.tid.slot = GetU16(d + 4);
        d += 6;
      } else {
        e.child = GetU32(d);
        d += 4;
      }
      out.push_back(std::move(e));
    }
    return out;
  }

  static size_t TotalBytes(const std::vector<Entry>& entries, bool is_leaf) {
    size_t total = 0;
    for (const Entry& e : entries) {
      total += EntryBytes(e, is_leaf);
    }
    return total;
  }

  // Returns false (and writes nothing) if the entries do not fit.
  bool Encode(const std::vector<Entry>& entries) {
    const bool is_leaf = leaf();
    const size_t total = TotalBytes(entries, is_leaf);
    if (total > kEntryArea) {
      return false;
    }
    std::byte* d = p + kOffEntries;
    for (const Entry& e : entries) {
      PutU16(d, static_cast<uint16_t>(e.key.size()));
      d += 2;
      std::memcpy(d, e.key.data(), e.key.size());
      d += e.key.size();
      if (is_leaf) {
        PutU32(d, e.tid.block);
        PutU16(d + 4, e.tid.slot);
        d += 6;
      } else {
        PutU32(d, e.child);
        d += 4;
      }
    }
    PutU16(p + kOffNKeys, static_cast<uint16_t>(entries.size()));
    PutU16(p + kOffUsed, static_cast<uint16_t>(total));
    return true;
  }

  // In-place descent: child covering `key` (internal nodes only).
  uint32_t ChildFor(std::span<const std::byte> key) const {
    uint32_t child = leftmost_child();
    const std::byte* d = p + kOffEntries;
    for (uint16_t i = 0; i < nkeys(); ++i) {
      const uint16_t klen = GetU16(d);
      std::span<const std::byte> ekey(d + 2, klen);
      const uint32_t echild = GetU32(d + 2 + klen);
      if (CompareKeys(key, ekey) >= 0) {
        child = echild;
      } else {
        break;
      }
      d += 2 + klen + 4;
    }
    return child;
  }
};

}  // namespace

Result<std::unique_ptr<BTree>> BTree::Create(Oid rel, BufferPool* pool) {
  auto tree = std::unique_ptr<BTree>(new BTree(rel, pool));
  uint32_t meta_block = 0;
  INV_ASSIGN_OR_RETURN(PageRef meta, pool->Extend(rel, &meta_block));
  if (meta_block != 0) {
    return Status::Internal("btree meta must be block 0");
  }
  uint32_t root_block = 0;
  INV_ASSIGN_OR_RETURN(PageRef root, pool->Extend(rel, &root_block));
  NodeView view{root.data()};
  view.InitNode(/*is_leaf=*/true);
  root.MarkDirty();
  PutU32(meta.data() + kOffMetaMagic, kBtreeMetaMagic);
  PutU32(meta.data() + kOffMetaRoot, root_block);
  meta.MarkDirty();
  return tree;
}

Result<std::unique_ptr<BTree>> BTree::Open(Oid rel, BufferPool* pool) {
  auto tree = std::unique_ptr<BTree>(new BTree(rel, pool));
  // Single-threaded open, but RootBlock carries REQUIRES_SHARED(mu_) and a
  // static member gets no constructor exemption from the analysis.
  ReaderMutexLock lock(tree->mu_);
  INV_ASSIGN_OR_RETURN(uint32_t root, tree->RootBlock());
  (void)root;
  return tree;
}

Result<uint32_t> BTree::RootBlock() const {
  INV_ASSIGN_OR_RETURN(PageRef meta, pool_->Pin(rel_, 0));
  if (GetU32(meta.data() + kOffMetaMagic) != kBtreeMetaMagic) {
    return Status::Corruption("btree meta page magic mismatch in rel " +
                              std::to_string(rel_));
  }
  return GetU32(meta.data() + kOffMetaRoot);
}

Status BTree::SetRootBlock(uint32_t root) {
  INV_ASSIGN_OR_RETURN(PageRef meta, pool_->Pin(rel_, 0));
  PutU32(meta.data() + kOffMetaRoot, root);
  meta.MarkDirty();
  return Status::Ok();
}

Result<uint32_t> BTree::NewNode(bool leaf) {
  uint32_t block = 0;
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Extend(rel_, &block));
  NodeView view{ref.data()};
  view.InitNode(leaf);
  ref.MarkDirty();
  return block;
}

Result<BTree::SplitResult> BTree::InsertRec(uint32_t block, const BtreeKey& key,
                                            Tid tid) {
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, block));
  NodeView view{ref.data()};

  if (view.leaf()) {
    std::vector<Entry> entries = view.Decode();
    // Insert after any run of equal keys (stable for duplicate keys).
    auto pos = std::upper_bound(
        entries.begin(), entries.end(), key,
        [](const BtreeKey& k, const Entry& e) { return CompareKeys(k, e.key) < 0; });
    Entry e;
    e.key = key;
    e.tid = tid;
    entries.insert(pos, std::move(e));
    if (view.Encode(entries)) {
      ref.MarkDirty();
      return SplitResult{};
    }
    // Split: move the upper half to a fresh right sibling.
    CrashPointRegistry::Hit("btree.split");
    const size_t m = entries.size() / 2;
    std::vector<Entry> right_entries(entries.begin() + static_cast<ptrdiff_t>(m),
                                     entries.end());
    entries.resize(m);
    INV_ASSIGN_OR_RETURN(uint32_t right_block, NewNode(/*leaf=*/true));
    INV_ASSIGN_OR_RETURN(PageRef right_ref, pool_->Pin(rel_, right_block));
    NodeView right{right_ref.data()};
    right.set_right_sibling(view.right_sibling());
    view.set_right_sibling(right_block);
    INV_CHECK(right.Encode(right_entries));
    INV_CHECK(view.Encode(entries));
    right_ref.MarkDirty();
    ref.MarkDirty();
    SplitResult result;
    result.split = true;
    result.separator = right_entries.front().key;
    result.right_block = right_block;
    return result;
  }

  // Internal node: descend.
  const uint32_t child = view.ChildFor(key);
  INV_ASSIGN_OR_RETURN(SplitResult child_split, InsertRec(child, key, tid));
  if (!child_split.split) {
    return SplitResult{};
  }
  std::vector<Entry> entries = view.Decode();
  auto pos = std::upper_bound(entries.begin(), entries.end(), child_split.separator,
                              [](const BtreeKey& k, const Entry& e) {
                                return CompareKeys(k, e.key) < 0;
                              });
  Entry e;
  e.key = child_split.separator;
  e.child = child_split.right_block;
  entries.insert(pos, std::move(e));
  if (view.Encode(entries)) {
    ref.MarkDirty();
    return SplitResult{};
  }
  // Split internal node: the middle key moves up (not copied).
  const size_t m = entries.size() / 2;
  SplitResult result;
  result.split = true;
  result.separator = entries[m].key;
  INV_ASSIGN_OR_RETURN(uint32_t right_block, NewNode(/*leaf=*/false));
  INV_ASSIGN_OR_RETURN(PageRef right_ref, pool_->Pin(rel_, right_block));
  NodeView right{right_ref.data()};
  right.set_leftmost_child(entries[m].child);
  right.set_right_sibling(view.right_sibling());
  view.set_right_sibling(right_block);
  std::vector<Entry> right_entries(entries.begin() + static_cast<ptrdiff_t>(m) + 1,
                                   entries.end());
  entries.resize(m);
  INV_CHECK(right.Encode(right_entries));
  INV_CHECK(view.Encode(entries));
  right_ref.MarkDirty();
  ref.MarkDirty();
  result.right_block = right_block;
  return result;
}

Status BTree::Insert(const BtreeKey& key, Tid tid) {
  if (key.size() > kEntryArea / 4) {
    return Status::InvalidArgument("btree key too large");
  }
  WriterMutexLock lock(mu_);
  const BtreeKey stored = CombineKey(key, tid);
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  INV_ASSIGN_OR_RETURN(SplitResult split, InsertRec(root, stored, tid));
  if (!split.split) {
    return Status::Ok();
  }
  INV_ASSIGN_OR_RETURN(uint32_t new_root, NewNode(/*leaf=*/false));
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, new_root));
  NodeView view{ref.data()};
  view.set_leftmost_child(root);
  Entry e;
  e.key = split.separator;
  e.child = split.right_block;
  std::vector<Entry> entries;
  entries.push_back(std::move(e));
  INV_CHECK(view.Encode(entries));
  ref.MarkDirty();
  return SetRootBlock(new_root);
}

Result<uint32_t> BTree::FindLeaf(uint32_t block, const BtreeKey& key) const {
  uint32_t current = block;
  for (;;) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, current));
    NodeView view{ref.data()};
    if (view.leaf()) {
      return current;
    }
    current = view.ChildFor(key);
    if (current == kNoBlock) {
      return Status::Corruption("btree internal node with no child");
    }
  }
}

Result<uint32_t> BTree::LeftmostLeaf(uint32_t block) const {
  uint32_t current = block;
  for (;;) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, current));
    NodeView view{ref.data()};
    if (view.leaf()) {
      return current;
    }
    current = view.leftmost_child();
  }
}

Status BTree::Remove(const BtreeKey& key, Tid tid) {
  WriterMutexLock lock(mu_);
  const BtreeKey stored = CombineKey(key, tid);
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  INV_ASSIGN_OR_RETURN(uint32_t leaf, FindLeaf(root, stored));
  uint32_t current = leaf;
  while (current != kNoBlock) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, current));
    NodeView view{ref.data()};
    std::vector<Entry> entries = view.Decode();
    bool past = false;
    for (size_t i = 0; i < entries.size(); ++i) {
      const int c = CompareKeys(entries[i].key, stored);
      if (c > 0) {
        past = true;
        break;
      }
      if (c == 0) {
        entries.erase(entries.begin() + static_cast<ptrdiff_t>(i));
        INV_CHECK(view.Encode(entries));
        ref.MarkDirty();
        return Status::Ok();
      }
    }
    if (past) {
      break;
    }
    current = view.right_sibling();
  }
  return Status::NotFound("btree entry not found");
}

Result<std::vector<Tid>> BTree::Lookup(const BtreeKey& key) const {
  ReaderMutexLock lock(mu_);
  // Position at the first stored key with user part >= key.
  const BtreeKey lower = CombineKey(key, Tid{0, 0});
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  INV_ASSIGN_OR_RETURN(uint32_t leaf, FindLeaf(root, lower));
  std::vector<Tid> out;
  uint32_t current = leaf;
  while (current != kNoBlock) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, current));
    NodeView view{ref.data()};
    std::vector<Entry> entries = view.Decode();
    bool past = false;
    for (const Entry& e : entries) {
      if (e.key.size() < kTidSuffix) {
        return Status::Corruption("stored btree key shorter than TID suffix");
      }
      const int c = CompareKeys(UserPart(e.key), key);
      if (c > 0) {
        past = true;
        break;
      }
      if (c == 0 && e.key.size() == key.size() + kTidSuffix) {
        out.push_back(e.tid);
      }
    }
    if (past) {
      break;
    }
    current = view.right_sibling();
  }
  return out;
}

Status BTree::Iterator::LoadLeaf(uint32_t block, const BtreeKey* lo) {
  entries_.clear();
  pos_ = 0;
  INV_ASSIGN_OR_RETURN(PageRef ref, tree_->pool_->Pin(tree_->rel_, block));
  NodeView view{ref.data()};
  for (Entry& e : view.Decode()) {
    if (e.key.size() < kTidSuffix) {
      return Status::Corruption("stored btree key shorter than TID suffix");
    }
    // Surface the user key (strip the uniquifying TID suffix).
    BtreeKey user(UserPart(e.key).begin(), UserPart(e.key).end());
    if (lo == nullptr || CompareKeys(user, *lo) >= 0) {
      entries_.emplace_back(std::move(user), e.tid);
    }
  }
  next_leaf_ = view.right_sibling();
  return Status::Ok();
}

Status BTree::Iterator::Advance() {
  if (pos_ < entries_.size()) {
    ++pos_;
  }
  while (pos_ >= entries_.size() && next_leaf_ != kNoBlock) {
    INV_RETURN_IF_ERROR(LoadLeaf(next_leaf_, nullptr));
  }
  return Status::Ok();
}

Result<BTree::Iterator> BTree::Seek(const BtreeKey& lo) const {
  ReaderMutexLock lock(mu_);
  Iterator it;
  it.tree_ = this;
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  uint32_t leaf;
  if (lo.empty()) {
    INV_ASSIGN_OR_RETURN(leaf, LeftmostLeaf(root));
    INV_RETURN_IF_ERROR(it.LoadLeaf(leaf, nullptr));
  } else {
    INV_ASSIGN_OR_RETURN(leaf, FindLeaf(root, lo));
    INV_RETURN_IF_ERROR(it.LoadLeaf(leaf, &lo));
  }
  // Skip empty leaves.
  while (it.entries_.empty() && it.next_leaf_ != kNoBlock) {
    INV_RETURN_IF_ERROR(it.LoadLeaf(it.next_leaf_, nullptr));
  }
  return it;
}

Result<uint64_t> BTree::CountEntries() const {
  INV_ASSIGN_OR_RETURN(Iterator it, Seek({}));
  uint64_t count = 0;
  while (it.Valid()) {
    ++count;
    INV_RETURN_IF_ERROR(it.Advance());
  }
  return count;
}

Status BTree::CheckInvariants() const {
  ReaderMutexLock lock(mu_);
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  // Recursive bound check; collect leaf depth.
  int leaf_depth = -1;
  // (block, depth, lower bound exclusive-or-inclusive simplification: keys
  // must be >= lower and < upper when bounds present)
  struct Item {
    uint32_t block;
    int depth;
    std::optional<BtreeKey> lower;
    std::optional<BtreeKey> upper;
  };
  std::vector<Item> stack{{root, 0, std::nullopt, std::nullopt}};
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, item.block));
    NodeView view{ref.data()};
    std::vector<Entry> entries = view.Decode();
    for (size_t i = 1; i < entries.size(); ++i) {
      if (CompareKeys(entries[i - 1].key, entries[i].key) > 0) {
        return Status::Corruption("btree node keys out of order");
      }
    }
    for (const Entry& e : entries) {
      if (item.lower && CompareKeys(e.key, *item.lower) < 0) {
        return Status::Corruption("btree key below lower bound");
      }
      if (item.upper && CompareKeys(e.key, *item.upper) >= 0) {
        return Status::Corruption("btree key above upper bound");
      }
    }
    if (view.leaf()) {
      if (leaf_depth == -1) {
        leaf_depth = item.depth;
      } else if (leaf_depth != item.depth) {
        return Status::Corruption("btree leaves at unequal depth");
      }
    } else {
      if (view.leftmost_child() == kNoBlock) {
        return Status::Corruption("internal node missing leftmost child");
      }
      std::optional<BtreeKey> prev = item.lower;
      for (size_t i = 0; i <= entries.size(); ++i) {
        const uint32_t child =
            i == 0 ? view.leftmost_child() : entries[i - 1].child;
        std::optional<BtreeKey> lo = i == 0 ? item.lower : std::optional(entries[i - 1].key);
        std::optional<BtreeKey> hi =
            i == entries.size() ? item.upper : std::optional(entries[i].key);
        stack.push_back(Item{child, item.depth + 1, std::move(lo), std::move(hi)});
      }
      (void)prev;
    }
  }
  return Status::Ok();
}

}  // namespace invfs

#include "src/access/btree.h"

#include <cstring>
#include <optional>

#include "src/access/btree_layout.h"
#include "src/fault/crash_points.h"
#include "src/storage/page.h"
#include "src/util/bytes.h"

namespace invfs {
namespace {

// Node and meta-page byte layout lives in btree_layout.h; this file is its
// only reader outside tests.
using namespace btree_layout;  // NOLINT(google-build-using-namespace)

constexpr size_t kTidSuffix = BTree::kTidSuffix;

// Every internal node holds at least one key: a new root is born with one;
// three entries of the largest key (kEntryArea / 4) fit a node, so a split
// takes four or more entries and leaves each half at least one; and removes
// never touch internal nodes. So an internal node has at least two
// children, and a node d levels above the leaves stands over at least 2^d
// leaves, each a block of its own. A relation has fewer than 2^32 blocks,
// so no legal descent takes more than kMaxDepth steps; one that does is
// walking a node cycle.
constexpr int kMaxDepth = 31;

// Counts one hop of a walk along right siblings. A legal chain visits each
// block at most once, so a walk of more hops than the relation has blocks is
// walking a sibling cycle. `*limit` is read at the first hop, so a walk that
// stays in its leaf reads nothing more. A walk that reaches it reads it
// again before failing: a reader with no table lock may see the tree grow.
Status CountHop(BufferPool* pool, Oid rel, uint32_t* hops, uint32_t* limit) {
  if (*hops == 0 || *hops >= *limit) {
    INV_ASSIGN_OR_RETURN(*limit, pool->NumBlocks(rel));
  }
  if (++*hops > *limit) {
    return Status::Corruption("btree sibling chain longer than the relation: a cycle");
  }
  return Status::Ok();
}

// Stored node keys are the user key with the TID appended (big-endian, so
// memcmp order is preserved). This makes every stored key unique, which keeps
// duplicate user keys contiguous across leaf splits — without it, a split in
// the middle of an equal-key run would strand entries left of the separator
// where descent can no longer find them.
BtreeKey CombineKey(const BtreeKey& key, Tid tid) {
  BtreeKey out;
  out.reserve(key.size() + kTidSuffix);
  out.append(key);
  std::byte* suffix = out.grow(kTidSuffix);
  PutBe32(suffix, tid.block);
  PutBe16(suffix + 4, tid.slot);
  return out;
}

struct Entry {
  BtreeKey key;
  Tid tid;             // leaf payload
  uint32_t child = 0;  // internal payload
};

// Where a search lands in a node: the entry's index and entry-area offset
// (nkeys and `used` past the last entry), and the offset of the entry before
// it, whose child an internal node descends to (unset at index 0).
struct Slot {
  uint16_t index = 0;
  uint32_t offset = 0;
  uint32_t prev = 0;
};

// Bound's two searches: the first entry that sorts at or after the key, or
// the first that sorts after it.
enum class BoundKind { kLower, kUpper };

// Bounds-checked walk over a node's packed entries, in key order, from a
// slot on. The node's `used` must fit the entry area, every entry must end
// within `used` and carry a stored key long enough for its TID suffix (on a
// fixed-width tree, exactly the tree's stored key length), and the last
// entry must end exactly at `used`. A node that breaks a rule stops the walk
// with Corruption rather than letting it read past the frame.
struct EntryCursor {
  const std::byte* area;
  uint32_t used;
  uint16_t left;        // entries not yet visited
  uint32_t payload;     // 6 (leaf TID) or 4 (internal child)
  uint32_t fixed_klen;  // every stored key's length, or 0 when they vary
  uint32_t end;         // the current entry's bytes are [begin, end) of the area
  bool bad = used > kEntryArea;
  uint32_t begin = 0;
  uint16_t klen = 0;

  // Steps onto the next entry. False at the end of the node, or at a
  // malformed entry, which status() then reports.
  bool Next() {
    if (bad) {
      return false;
    }
    begin = end;
    if (left == 0) {
      bad = end != used;
      return false;
    }
    --left;
    klen = used - begin < 2 ? 0 : GetU16(area + begin);
    bad = used - begin < 2 + klen + payload || klen < kTidSuffix ||
          (fixed_klen != 0 && klen != fixed_klen);
    end = begin + 2 + klen + payload;
    return !bad;
  }
  Status status() const {
    return bad ? Status::Corruption("btree node entries disagree with its used "
                                    "byte count")
               : Status::Ok();
  }

  // The stored key, and the user key it carries (TID suffix stripped).
  std::span<const std::byte> key() const { return {area + begin + 2, klen}; }
  std::span<const std::byte> user_key() const {
    return key().first(klen - kTidSuffix);
  }
  Tid tid() const {  // leaves
    const std::byte* d = area + begin + 2 + klen;
    return Tid{GetU32(d), GetU16(d + 4)};
  }
  uint32_t child() const { return GetU32(area + begin + 2 + klen); }  // internal
};

// Read/write helpers over a raw node frame. Searches and single-entry edits
// work on the page bytes in place; only splits and WalkBtree materialize
// entries (Decode/Encode).
struct NodeView {
  std::byte* p;
  size_t key_width;  // the tree's; 0 when its keys vary

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
  void set_counts(size_t nkeys, size_t used) {
    PutU16(p + kOffNKeys, static_cast<uint16_t>(nkeys));
    PutU16(p + kOffUsed, static_cast<uint16_t>(used));
  }

  void InitNode(bool is_leaf) {
    set_type(is_leaf);
    set_right_sibling(BTree::kNoBlock);
    set_leftmost_child(BTree::kNoBlock);
    set_counts(0, 0);
  }

  uint32_t payload() const { return leaf() ? 6 : 4; }
  uint32_t fixed_klen() const {
    return key_width == 0 ? 0 : static_cast<uint32_t>(key_width + kTidSuffix);
  }

  EntryCursor EntriesFrom(Slot at) const {
    return EntryCursor{p + kOffEntries, used(),
                       static_cast<uint16_t>(nkeys() - at.index), payload(),
                       fixed_klen(), at.offset};
  }
  EntryCursor Entries() const { return EntriesFrom(Slot{}); }

  Result<std::vector<Entry>> Decode() const {
    std::vector<Entry> out;
    out.reserve(nkeys());
    EntryCursor c = Entries();
    while (c.Next()) {
      Entry e;
      e.key = BtreeKey(c.key());
      if (leaf()) {
        e.tid = c.tid();
      } else {
        e.child = c.child();
      }
      out.push_back(std::move(e));
    }
    INV_RETURN_IF_ERROR(c.status());
    return out;
  }

  // Rewrites the node to hold exactly `entries`, which must fit.
  void Encode(const std::vector<Entry>& entries) {
    set_counts(0, 0);
    for (const Entry& e : entries) {
      INV_CHECK(InsertAt(used(), e.key, e.tid, e.child));
    }
  }

  // The one positioned search over a node's stored keys: the first entry
  // that sorts at or after `key` (kLower) or after it (kUpper), or the end of
  // the node. On a fixed-width tree the node is an array and is bisected:
  // an O(1) check that `used` fits the entry area and is exactly nkeys
  // entries, and a key-length check at every probe, keep each probe inside
  // `used`. A variable-width node is walked from its first entry.
  Result<Slot> Bound(std::span<const std::byte> key, BoundKind kind) const {
    auto at_or_past = [&](std::span<const std::byte> stored) {
      const int c = CompareKeys(stored, key);
      return kind == BoundKind::kLower ? c >= 0 : c > 0;
    };
    if (key_width == 0) {
      Slot s;
      EntryCursor c = Entries();
      while (c.Next()) {
        if (at_or_past(c.key())) {
          s.offset = c.begin;
          return s;
        }
        s.prev = c.begin;
        ++s.index;
      }
      INV_RETURN_IF_ERROR(c.status());
      s.offset = used();
      return s;
    }
    const uint32_t klen = fixed_klen();
    const uint32_t stride = 2 + klen + payload();
    const uint32_t n = nkeys();
    if (used() > kEntryArea || used() != n * stride) {
      return Status::Corruption("btree node used byte count is not a whole number "
                                "of its fixed-width entries");
    }
    const std::byte* area = p + kOffEntries;
    uint32_t lo = 0;
    uint32_t hi = n;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      const std::byte* e = area + mid * stride;
      if (GetU16(e) != klen) {
        return Status::Corruption("btree entry key length disagrees with the "
                                  "tree's key width");
      }
      if (at_or_past({e + 2, klen})) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return Slot{static_cast<uint16_t>(lo), lo * stride, lo == 0 ? 0 : (lo - 1) * stride};
  }

  // Inserts an entry at entry-area offset `at` by shifting the tail right.
  // Returns false (and writes nothing) if the node has no room for it.
  bool InsertAt(uint32_t at, std::span<const std::byte> key, Tid tid,
                uint32_t child) {
    const size_t size = 2 + key.size() + (leaf() ? 6 : 4);
    if (used() + size > kEntryArea) {
      return false;
    }
    std::byte* d = p + kOffEntries + at;
    std::memmove(d + size, d, used() - at);
    PutU16(d, static_cast<uint16_t>(key.size()));
    std::memcpy(d + 2, key.data(), key.size());
    d += 2 + key.size();
    if (leaf()) {
      PutU32(d, tid.block);
      PutU16(d + 4, tid.slot);
    } else {
      PutU32(d, child);
    }
    set_counts(nkeys() + 1, used() + size);
    return true;
  }

  // Removes the entry at entry-area bytes [begin, end) by shifting the tail
  // left.
  void EraseAt(uint32_t begin, uint32_t end) {
    std::byte* area = p + kOffEntries;
    std::memmove(area + begin, area + end, used() - end);
    set_counts(nkeys() - 1, used() - (end - begin));
  }

  // In-place descent: child covering `key` (internal nodes only), the child
  // of the last entry that sorts at or before it.
  Result<uint32_t> ChildFor(std::span<const std::byte> key) const {
    INV_ASSIGN_OR_RETURN(const Slot s, Bound(key, BoundKind::kUpper));
    if (s.index == 0) {
      return leftmost_child();
    }
    const std::byte* e = p + kOffEntries + s.prev;  // validated by Bound
    return GetU32(e + 2 + GetU16(e));
  }
};

}  // namespace

Result<std::unique_ptr<BTree>> BTree::Create(Oid rel, BufferPool* pool,
                                             size_t key_width) {
  auto tree = std::unique_ptr<BTree>(new BTree(rel, pool, key_width));
  uint32_t meta_block = 0;
  INV_ASSIGN_OR_RETURN(PageRef meta, pool->Extend(rel, &meta_block));
  if (meta_block != 0) {
    return Status::Internal("btree meta must be block 0");
  }
  uint32_t root_block = 0;
  INV_ASSIGN_OR_RETURN(PageRef root, pool->Extend(rel, &root_block));
  NodeView view{root.data(), key_width};
  view.InitNode(/*is_leaf=*/true);
  root.MarkDirty();
  PutU32(meta.data() + kOffMetaMagic, kBtreeMetaMagic);
  PutU32(meta.data() + kOffMetaRoot, root_block);
  meta.MarkDirty();
  return tree;
}

Result<std::unique_ptr<BTree>> BTree::Open(Oid rel, BufferPool* pool,
                                           size_t key_width) {
  auto tree = std::unique_ptr<BTree>(new BTree(rel, pool, key_width));
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
  NodeView view{ref.data(), key_width_};
  view.InitNode(leaf);
  ref.MarkDirty();
  return block;
}

Status BTree::InsertRec(uint32_t block, int depth, const BtreeKey& key, Tid tid,
                        SplitResult* result) {
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, block));
  NodeView view{ref.data(), key_width_};
  const bool leaf = view.leaf();

  // A leaf takes the new entry itself; an internal node descends, and takes
  // the separator of the child's split if there is one.
  SplitResult child_split;
  if (!leaf) {
    if (depth == kMaxDepth) {
      return Status::Corruption("btree descent deeper than any legal tree");
    }
    INV_ASSIGN_OR_RETURN(uint32_t child, view.ChildFor(key));
    INV_RETURN_IF_ERROR(InsertRec(child, depth + 1, key, tid, &child_split));
    if (!child_split.split) {
      return Status::Ok();
    }
  }
  const BtreeKey& new_key = leaf ? key : child_split.separator;
  // After any run of equal keys (stable for duplicate keys).
  INV_ASSIGN_OR_RETURN(const Slot at, view.Bound(new_key, BoundKind::kUpper));
  if (view.InsertAt(at.offset, new_key, tid, child_split.right_block)) {
    ref.MarkDirty();
    return Status::Ok();
  }

  // The node is full: materialize its entries with the new one in place.
  INV_ASSIGN_OR_RETURN(std::vector<Entry> entries, view.Decode());
  entries.insert(entries.begin() + at.index, Entry{new_key, tid, child_split.right_block});

  // Split: the upper half moves to a fresh right sibling. A leaf copies that
  // half's first key up as the separator; an internal node moves its middle
  // key up (the key's child becomes the sibling's leftmost child).
  if (leaf) {
    CrashPointRegistry::Hit("btree.split");
  }
  const size_t m = entries.size() / 2;
  result->split = true;
  result->separator = entries[m].key;
  INV_ASSIGN_OR_RETURN(result->right_block, NewNode(leaf));
  INV_ASSIGN_OR_RETURN(PageRef right_ref, pool_->Pin(rel_, result->right_block));
  NodeView right{right_ref.data(), key_width_};
  if (!leaf) {
    right.set_leftmost_child(entries[m].child);
  }
  right.set_right_sibling(view.right_sibling());
  view.set_right_sibling(result->right_block);
  std::vector<Entry> right_entries(
      entries.begin() + static_cast<ptrdiff_t>(leaf ? m : m + 1), entries.end());
  entries.resize(m);
  right.Encode(right_entries);
  view.Encode(entries);
  right_ref.MarkDirty();
  ref.MarkDirty();
  return Status::Ok();
}

Status BTree::Insert(const BtreeKey& key, Tid tid) {
  if (key.size() > kEntryArea / 4) {
    return Status::InvalidArgument("btree key too large");
  }
  if (key_width_ != 0 && key.size() != key_width_) {
    return Status::InvalidArgument("btree key of " + std::to_string(key.size()) +
                                   " bytes in a tree of " + std::to_string(key_width_) +
                                   "-byte keys");
  }
  WriterMutexLock lock(mu_);
  const BtreeKey stored = CombineKey(key, tid);
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  SplitResult split;
  INV_RETURN_IF_ERROR(InsertRec(root, 0, stored, tid, &split));
  if (!split.split) {
    return Status::Ok();
  }
  INV_ASSIGN_OR_RETURN(uint32_t new_root, NewNode(/*leaf=*/false));
  INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, new_root));
  NodeView view{ref.data(), key_width_};
  view.set_leftmost_child(root);
  INV_CHECK(view.InsertAt(0, split.separator, Tid{}, split.right_block));
  ref.MarkDirty();
  return SetRootBlock(new_root);
}

Result<uint32_t> BTree::FindLeaf(uint32_t block, const BtreeKey& key) const {
  uint32_t current = block;
  for (int depth = 0;; ++depth) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, current));
    NodeView view{ref.data(), key_width_};
    if (view.leaf()) {
      return current;
    }
    if (depth == kMaxDepth) {
      return Status::Corruption("btree descent deeper than any legal tree");
    }
    INV_ASSIGN_OR_RETURN(current, view.ChildFor(key));
    if (current == kNoBlock) {
      return Status::Corruption("btree internal node with no child");
    }
  }
}

Status BTree::Remove(const BtreeKey& key, Tid tid) {
  WriterMutexLock lock(mu_);
  const BtreeKey stored = CombineKey(key, tid);
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  INV_ASSIGN_OR_RETURN(uint32_t current, FindLeaf(root, stored));
  uint32_t hops = 0;
  uint32_t limit = 0;
  while (current != kNoBlock) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, current));
    NodeView view{ref.data(), key_width_};
    INV_ASSIGN_OR_RETURN(const Slot at, view.Bound(stored, BoundKind::kLower));
    EntryCursor c = view.EntriesFrom(at);
    if (c.Next()) {
      if (CompareKeys(c.key(), stored) != 0) {
        return Status::NotFound("btree entry not found");
      }
      view.EraseAt(c.begin, c.end);
      ref.MarkDirty();
      return Status::Ok();
    }
    INV_RETURN_IF_ERROR(c.status());
    current = view.right_sibling();
    if (current != kNoBlock) {
      INV_RETURN_IF_ERROR(CountHop(pool_, rel_, &hops, &limit));
    }
  }
  return Status::NotFound("btree entry not found");
}

Result<TidList> BTree::Lookup(const BtreeKey& key) const {
  ReaderMutexLock lock(mu_);
  // Position at the first stored key with user part >= key.
  const BtreeKey lower = CombineKey(key, Tid{0, 0});
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  INV_ASSIGN_OR_RETURN(uint32_t current, FindLeaf(root, lower));
  TidList out;
  uint32_t hops = 0;
  uint32_t limit = 0;
  while (current != kNoBlock) {
    INV_ASSIGN_OR_RETURN(PageRef ref, pool_->Pin(rel_, current));
    NodeView view{ref.data(), key_width_};
    // Every entry before the bound holds a smaller user key.
    INV_ASSIGN_OR_RETURN(const Slot at, view.Bound(lower, BoundKind::kLower));
    EntryCursor c = view.EntriesFrom(at);
    while (c.Next()) {
      const int cmp = CompareKeys(c.user_key(), key);
      if (cmp > 0) {
        return out;
      }
      if (cmp == 0) {
        out.push_back(c.tid());
      }
    }
    INV_RETURN_IF_ERROR(c.status());
    current = view.right_sibling();
    if (current != kNoBlock) {
      INV_RETURN_IF_ERROR(CountHop(pool_, rel_, &hops, &limit));
    }
  }
  return out;
}

std::span<const std::byte> BTree::Iterator::key() const {
  const uint16_t klen = GetU16(leaf_.data() + pos_);
  return {leaf_.data() + pos_ + 2, klen - kTidSuffix};
}

Tid BTree::Iterator::tid() const {
  const std::byte* d = leaf_.data() + pos_ + 2 + GetU16(leaf_.data() + pos_);
  return Tid{GetU32(d), GetU16(d + 4)};
}

Status BTree::Iterator::LoadLeaf(uint32_t block, const BtreeKey* lo) {
  leaf_.clear();
  pos_ = 0;
  INV_ASSIGN_OR_RETURN(PageRef ref, tree_->pool_->Pin(tree_->rel_, block));
  NodeView view{ref.data(), tree_->key_width_};
  if (!view.leaf()) {
    return Status::Corruption("btree sibling chain reaches an internal node");
  }
  // The first entry in range: its stored key sorts at or after lo, as its
  // user key does for any lo no longer than the keys. Every entry from it on
  // is validated before any is copied: key() and Advance() then walk the
  // copy unchecked.
  Slot first;
  if (lo != nullptr) {
    INV_ASSIGN_OR_RETURN(first, view.Bound(*lo, BoundKind::kLower));
  }
  EntryCursor c = view.EntriesFrom(first);
  while (c.Next()) {
  }
  INV_RETURN_IF_ERROR(c.status());
  const std::byte* area = ref.data() + kOffEntries;
  leaf_.assign(area + first.offset, area + view.used());
  next_leaf_ = view.right_sibling();
  return Status::Ok();
}

Status BTree::Iterator::Advance() {
  if (pos_ < leaf_.size()) {
    pos_ += 2 + GetU16(leaf_.data() + pos_) + 6;  // key length, key, TID
  }
  while (pos_ >= leaf_.size() && next_leaf_ != kNoBlock) {
    INV_RETURN_IF_ERROR(NextLeaf());
  }
  return Status::Ok();
}

Status BTree::Iterator::NextLeaf() {
  INV_RETURN_IF_ERROR(CountHop(tree_->pool_, tree_->rel_, &hops_, &hop_limit_));
  return LoadLeaf(next_leaf_, nullptr);
}

Result<BTree::Iterator> BTree::Seek(const BtreeKey& lo) const {
  ReaderMutexLock lock(mu_);
  Iterator it;
  it.tree_ = this;
  INV_ASSIGN_OR_RETURN(uint32_t root, RootBlock());
  // An empty `lo` sorts before every stored key: descent takes each node's
  // leftmost child and the leaf keeps all its entries.
  INV_ASSIGN_OR_RETURN(uint32_t leaf, FindLeaf(root, lo));
  INV_RETURN_IF_ERROR(it.LoadLeaf(leaf, &lo));
  // Skip empty leaves.
  while (it.leaf_.empty() && it.next_leaf_ != kNoBlock) {
    INV_RETURN_IF_ERROR(it.NextLeaf());
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
  INV_ASSIGN_OR_RETURN(const uint32_t nblocks, pool_->NumBlocks(rel_));
  Status first;  // the first pin error or violation
  auto fail = [&](Status s) {
    if (first.ok()) {
      first = std::move(s);
    }
    return false;
  };
  auto pages = [&](uint32_t block, const std::function<void(std::span<const std::byte>)>& use) {
    auto ref = pool_->Pin(rel_, block);
    if (!ref.ok()) {
      return fail(ref.status());
    }
    use({ref->data(), kPageSize});
    return true;
  };
  auto violation = [&](std::string_view invariant, uint32_t block, std::string detail) {
    return fail(Status::Corruption(std::string(invariant) + " at block " +
                                   std::to_string(block) + ": " + detail));
  };
  WalkBtree(nblocks, key_width_, pages, {violation, nullptr});
  return first;
}

void WalkBtree(uint32_t nblocks, size_t key_width, const BtreePageSource& pages,
               const BtreeWalkVisitor& visitor) {
  bool stopped = false;
  auto report = [&](std::string_view invariant, uint32_t block, std::string detail) {
    stopped = stopped || !visitor.violation(invariant, block, std::move(detail));
  };
  if (nblocks == 0) {
    report("btree-meta", 0, "index has no meta page");
    return;
  }
  uint32_t root = 0;
  pages(0, [&](std::span<const std::byte> meta) {
    const uint32_t magic = GetU32(meta.data() + kOffMetaMagic);
    root = GetU32(meta.data() + kOffMetaRoot);
    if (magic != kBtreeMetaMagic || root == 0 || root >= nblocks) {
      report("btree-meta", 0,
             "magic " + std::to_string(magic) + ", root block " + std::to_string(root) +
                 " of " + std::to_string(nblocks));
      root = 0;
    }
  });
  // Depth-first in key order. Every key under a node lies in the
  // [lower, upper) its parent's separators give it.
  struct Item {
    uint32_t block;
    int depth;
    std::optional<BtreeKey> lower;
    std::optional<BtreeKey> upper;
  };
  std::vector<Item> stack;
  if (root != 0) {
    stack.push_back(Item{root, 0, std::nullopt, std::nullopt});
  }
  std::vector<bool> reached(nblocks);
  std::vector<std::pair<uint32_t, uint32_t>> leaves;  // (block, right sibling)
  int leaf_depth = -1;
  while (!stack.empty() && !stopped) {
    const Item item = std::move(stack.back());
    stack.pop_back();
    const uint32_t block = item.block;
    if (block >= nblocks) {
      report("btree-child-range", block,
             "child past the index's " + std::to_string(nblocks) + " blocks");
      continue;
    }
    if (reached[block]) {
      report("btree-cycle", block, "node reached twice");
      continue;
    }
    reached[block] = true;
    pages(block, [&](std::span<const std::byte> frame) {
      const auto type = static_cast<uint8_t>(frame[kOffType]);
      if (type != kNodeLeaf && type != kNodeInternal) {
        report("btree-node-type", block, "node type byte " + std::to_string(type));
        return;
      }
      // Read only. Decode copies the entries out through the cursor every
      // search trusts, so a node it refuses is one the engine refuses.
      const NodeView view{const_cast<std::byte*>(frame.data()), key_width};
      auto entries = view.Decode();
      if (!entries.ok()) {
        report("btree-node-encoding", block,
               entries.status().message() + " (nkeys " + std::to_string(view.nkeys()) +
                   ", used " + std::to_string(view.used()) + ")");
        return;
      }
      const size_t n = entries->size();
      for (size_t i = 0; i < n; ++i) {
        const BtreeKey& key = (*entries)[i].key;
        if (i > 0 && CompareKeys((*entries)[i - 1].key, key) >= 0) {
          report("btree-key-order", block,
                 "entry " + std::to_string(i) + " not above its predecessor");
        }
        if ((item.lower && CompareKeys(key, *item.lower) < 0) ||
            (item.upper && CompareKeys(key, *item.upper) >= 0)) {
          report("btree-key-bounds", block,
                 "entry " + std::to_string(i) + " outside its parent's separators");
        }
      }
      if (view.leaf()) {
        if (leaf_depth == -1) {
          leaf_depth = item.depth;
        } else if (leaf_depth != item.depth) {
          report("btree-depth", block,
                 "leaf at depth " + std::to_string(item.depth) + ", expected " +
                     std::to_string(leaf_depth));
        }
        leaves.emplace_back(block, view.right_sibling());
        for (size_t i = 0; i < n && visitor.leaf_entry && !stopped; ++i) {
          visitor.leaf_entry(block, i, (*entries)[i].key, (*entries)[i].tid);
        }
        return;
      }
      if (n == 0) {
        report("btree-node-encoding", block, "internal node with no keys");
        return;
      }
      // Children go on the stack right to left, so they come off in key
      // order: child i covers [separator i - 1, separator i).
      for (size_t i = n + 1; i-- > 0;) {
        stack.push_back(
            Item{i == 0 ? view.leftmost_child() : (*entries)[i - 1].child, item.depth + 1,
                 i == 0 ? item.lower : std::optional((*entries)[i - 1].key),
                 i == n ? item.upper : std::optional((*entries)[i].key)});
      }
    });
  }
  // The sibling chain threads the leaves in tree order and ends at the last.
  for (size_t i = 0; i < leaves.size(); ++i) {
    const uint32_t next = i + 1 < leaves.size() ? leaves[i + 1].first : BTree::kNoBlock;
    if (leaves[i].second != next) {
      report("btree-sibling", leaves[i].first,
             "right sibling is " + std::to_string(leaves[i].second) + ", expected " +
                 std::to_string(next));
    }
  }
}

}  // namespace invfs

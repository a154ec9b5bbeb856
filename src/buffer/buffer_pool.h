// Shared buffer pool of 8 KB pages, sharded for concurrency.
//
// Mirrors POSTGRES 4.0.1's semantics: "an in-memory shared cache of recently
// used 8 KByte data pages. The size of this cache is tunable ...; as shipped,
// the system uses 64 buffers, but the version in use locally uses 300. Data
// pages are kicked out of this cache ... regardless of the device from which
// they came. Dirty pages are written to backing store before being deleted
// from the cache."
//
// POSTGRES 4.0.1 serialized the whole pool behind one spinlock and scanned
// all buffers for an LRU victim. We keep the semantics but not the
// bottleneck:
//   * The (rel, block) -> frame mapping is split across N independently
//     locked shards; a buffer *hit* — the hot path of every scan — touches
//     only its shard's mutex.
//   * Per-frame pin counts, dirty bits and clock-sweep reference bits are
//     atomics, so MarkDirty and Unpin take no lock at all, and a pin taken on
//     one thread may be released on another (frames, not threads, own pins).
//   * Victim selection is a clock sweep (second-chance) over the frame array
//     instead of an O(n) LRU scan; misses, evictions, extensions and flushes
//     serialize on one eviction/IO mutex, which also gives the pending-
//     extension bookkeeping a stable world to reason about.
//
// Because POSTGRES has no write-ahead log, commit durability comes from
// forcing the dirty pages of every relation the transaction touched
// (FlushRelation), plus persisting the commit-log entry. That force policy —
// not a WAL — is what the paper's write benchmarks measure.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/device/device.h"
#include "src/obs/metrics.h"
#include "src/sim/cost_params.h"
#include "src/storage/page.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace invfs {

inline constexpr size_t kDefaultBuffers = 64;   // as shipped
inline constexpr size_t kBerkeleyBuffers = 300; // Berkeley's local config

// Mapping shards used when the constructor is told to pick (partitions = 0).
inline constexpr size_t kDefaultPoolPartitions = 16;

class BufferPool;

// RAII pin on a buffered page. The frame cannot be evicted while pinned.
// Pins are frame-owned: a PageRef may be moved to and released on a different
// thread than the one that pinned it without corrupting any accounting.
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, size_t frame, std::byte* data, std::atomic<int>* pinner);
  ~PageRef();
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  Page page() { return Page(data_); }
  const std::byte* data() const { return data_; }
  std::byte* data() { return data_; }
  // Must be called after modifying page contents. Lock-free: sets the
  // frame's atomic dirty bit without touching any pool mutex.
  void MarkDirty();
  // The frame's page latch. Snapshot-isolation readers share heap pages with
  // in-place writers (xmax stamping, slot appends, vacuum compaction) with
  // no table lock between them; both sides bracket their access to the page
  // *bytes* with this latch, readers shared and writers exclusive.
  // Leaf-level: holders must not take pool mutexes, table locks, or another
  // page latch. Flushers deliberately skip it — a frame being written back
  // is either unpinned (eviction) or belongs to a relation whose writer
  // already quiesced (commit force under 2PL).
  SharedMutex& Latch();
  bool valid() const { return pool_ != nullptr; }
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  std::byte* data_ = nullptr;
  // Per-thread pin counter of the thread that took the pin (for the lock
  // manager's latch-vs-lock inversion check). Counters live as long as the
  // process, so one stays valid even if the pinning thread exits before the
  // release.
  std::atomic<int>* pinner_ = nullptr;
};

class BufferPool {
 public:
  // `partitions` is the number of mapping shards; 0 picks the default
  // (kDefaultPoolPartitions). 1 degenerates to the old single-lock pool —
  // benchmarks use that as the contention baseline. `metrics` is the registry
  // the pool publishes its buffer.* counters into (the owning Database's);
  // nullptr gives the pool a private registry so standalone pools in tests
  // and benches never mix their numbers.
  BufferPool(DeviceSwitch* devices, size_t num_buffers, SimClock* clock,
             CpuParams cpu = {}, size_t partitions = 0,
             MetricsRegistry* metrics = nullptr);
  ~BufferPool();

  // Pin block `block` of `rel`, reading it from its device if not cached.
  Result<PageRef> Pin(Oid rel, uint32_t block) EXCLUDES(io_mu_);

  // Extend `rel` by one block; returns the new block pinned and initialized.
  // The new page is dirty; it reaches the device at flush/eviction.
  Result<PageRef> Extend(Oid rel, uint32_t* new_block) EXCLUDES(io_mu_);

  // Logical size of the relation: device blocks plus unflushed extensions.
  Result<uint32_t> NumBlocks(Oid rel) EXCLUDES(io_mu_);

  // Write all dirty pages of `rel` to its device (commit force policy).
  Status FlushRelation(Oid rel) EXCLUDES(io_mu_);
  Status FlushAll() EXCLUDES(io_mu_);

  // Flush everything and invalidate every frame; the next access reads from
  // the device. Used by benchmarks ("all caches were flushed before each
  // test") and by DropRelation. Requires a quiesced pool (no pins held);
  // the requirement is enforced by rechecking pin counts while holding every
  // shard mutex, so a racing Pin either completes before the invalidation or
  // misses cleanly after it — never holds a ref to an invalidated frame.
  Status FlushAndInvalidate() EXCLUDES(io_mu_);

  // Drop all frames of `rel` without writing them (relation being deleted).
  void DiscardRelation(Oid rel) EXCLUDES(io_mu_);

  // Crash simulation: throw away all volatile state, including dirty pages.
  void DiscardAll() EXCLUDES(io_mu_);

  size_t num_buffers() const { return num_frames_; }
  size_t num_partitions() const { return shards_.size(); }
  // Thin reads over the registry counters (buffer.hits / buffer.misses /
  // buffer.evictions / buffer.write_backs): sums over the counter stripes.
  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  uint64_t evictions() const { return evictions_->Value(); }
  uint64_t write_backs() const { return write_backs_->Value(); }

  // Number of pins the calling thread currently holds (across all pools).
  // Used by the lock manager's debug-invariants mode to flag threads that
  // block on a table lock while holding page latches. A pin released on a
  // different thread is debited from the thread that took it, so the count
  // stays balanced even when PageRefs migrate across threads.
  static int ThreadPinCount();

 private:
  friend class PageRef;

  struct Tag {
    Oid rel = kInvalidOid;
    uint32_t block = 0;
    auto operator<=>(const Tag&) const = default;
  };
  struct TagHash {
    size_t operator()(const Tag& t) const {
      uint64_t v = (static_cast<uint64_t>(t.rel) << 32) | t.block;
      // 64-bit mix (splitmix64 finalizer) so consecutive blocks spread
      // across shards instead of clustering.
      v ^= v >> 30;
      v *= 0xbf58476d1ce4e5b9ULL;
      v ^= v >> 27;
      v *= 0x94d049bb133111ebULL;
      v ^= v >> 31;
      return static_cast<size_t>(v);
    }
  };

  // Frame metadata. `tag`/`valid` change only under io_mu_ *and* the tag's
  // shard mutex; `pins` is incremented only under the shard mutex, shared or
  // exclusive (so a sweep holding it exclusively can trust pins == 0), but
  // decremented anywhere; `dirty` and `ref` are free-running atomics.
  // (`tag`/`valid` carry no GUARDED_BY: a nested struct cannot name the
  // pool's io_mu_, and their guard is the *conjunction* of two capabilities,
  // which the analysis cannot express — the protocol comment above is
  // normative and TSan still checks it dynamically.) Flushers *claim* the
  // dirty bit (exchange to false) before reading page data, and restore it if
  // the device write fails: a MarkDirty racing with the snapshot re-dirties
  // the frame, so a mid-mutation image is never the last one written and no
  // modification is ever silently marked clean.
  struct Frame {
    Tag tag;
    std::unique_ptr<std::byte[]> data;
    bool valid = false;
    std::atomic<bool> dirty{false};
    std::atomic<bool> ref{false};
    std::atomic<int> pins{0};
    // Index of this frame in rel_frames_[tag.rel] while valid (io_mu_).
    size_t rel_pos = 0;
    // Page latch (see PageRef::Latch). Belongs to the frame, not the page:
    // remapping the frame to a different (rel, block) is fine because a
    // latch is only ever held by a pin holder, and remapping requires
    // pins == 0.
    SharedMutex latch;
  };

  // One mapping shard: tag -> frame index for tags that hash here. The hit
  // path holds `mu` shared; every change to the mapping holds it exclusive.
  // Lock order: io_mu_ strictly before any shard mu (misses hold io_mu_ while
  // completing the mapping under the shard mutex); a thread holding a shard
  // mutex must never perform device I/O or take io_mu_ (invfs_lint rule
  // shard-lock-io).
  struct Shard {
    SharedMutex mu;
    std::unordered_map<Tag, size_t, TagHash> table GUARDED_BY(mu);
  };

  Shard& ShardFor(const Tag& tag) {
    return *shards_[TagHash{}(tag) & shard_mask_];
  }

  void Unpin(size_t frame);
  // Clock sweep: pick a victim frame (unpinned, reference bit clear), write
  // it back if dirty, and return it invalid and unmapped. The write-back
  // happens while the victim is still mapped, so a failed device write
  // leaves the dirty page reachable and retryable; frames pinned or
  // re-dirtied during the write-back are skipped.
  Result<size_t> EvictOne() REQUIRES(io_mu_);
  // Write frame's page to its device, honoring extension ordering (a block
  // beyond the device's current size forces lower pending blocks out first).
  // Must not be called with any shard mutex held.
  Status WriteFrame(size_t frame) REQUIRES(io_mu_);
  // Flush the dirty frames among `frames` in ascending (rel, block) order.
  Status FlushFrames(std::vector<size_t> frames) REQUIRES(io_mu_);
  Result<uint32_t> DeviceBlocks(Oid rel) REQUIRES(io_mu_);
  // Add a frame just mapped to its relation's list; drop one being unmapped.
  void TrackFrame(size_t frame) REQUIRES(io_mu_);
  void UntrackFrame(size_t frame) REQUIRES(io_mu_);
  // The invalidation tail of FlushAndInvalidate: recheck quiescence and clear
  // every mapping while holding every shard mutex.
  Status InvalidateAllQuiesced() REQUIRES(io_mu_);

  DeviceSwitch* devices_;
  SimClock* clock_;
  CpuParams cpu_;

  size_t num_frames_ = 0;
  std::unique_ptr<Frame[]> frames_;
  std::vector<std::unique_ptr<Shard>> shards_;  // power-of-two count
  size_t shard_mask_ = 0;

  // Serializes everything that changes the mapping or performs device I/O:
  // miss handling, eviction, extension, flushes and discards. Also guards
  // pending_extensions_ and the clock hand. Hits never take it. Acquired
  // strictly before any Shard::mu (see Shard).
  Mutex io_mu_;
  // rel -> blocks past device size
  std::map<Oid, uint32_t> pending_extensions_ GUARDED_BY(io_mu_);
  size_t hand_ GUARDED_BY(io_mu_) = 0;  // clock-sweep position
  // rel -> its valid frames, in no order. Every mapping change updates it, so
  // FlushRelation and DiscardRelation visit only their relation's frames
  // instead of scanning the pool.
  std::unordered_map<Oid, std::vector<size_t>> rel_frames_ GUARDED_BY(io_mu_);

  // buffer.* metrics. Cached registry pointers: an increment is one striped
  // relaxed fetch_add, so the hit path stays as cheap as the raw atomics the
  // counters replaced. Owned registry only when none was supplied.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* hits_ = nullptr;
  Counter* misses_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* write_backs_ = nullptr;
  Counter* sweep_steps_ = nullptr;
};

}  // namespace invfs

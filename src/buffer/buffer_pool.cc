#include "src/buffer/buffer_pool.h"

#include <algorithm>

#include "src/fault/crash_points.h"
#include "src/obs/span.h"

namespace invfs {

namespace {

// Pins held by the current thread, across all pools. Maintained so the lock
// manager can assert (under debug invariants) that no thread blocks on a
// table lock while holding page latches — the latch-vs-lock inversion that
// starves eviction. The counter is heap-allocated and shared into every
// PageRef the thread creates: a pin released on another thread debits the
// *pinning* thread's counter (it no longer holds the pin), and the counter
// outlives the thread if refs migrate past its exit.
std::shared_ptr<std::atomic<int>>& LocalPinCounter() {
  thread_local std::shared_ptr<std::atomic<int>> counter =
      std::make_shared<std::atomic<int>>(0);
  return counter;
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// RAII over a dynamic set of mutexes, for the one path that must hold every
// shard mutex at once (InvalidateAllQuiesced). The analysis cannot model a
// variable-length capability set, so acquisition and release are exempt; the
// sole user is itself analysis-exempt with a justifying comment.
class ScopedLockAll {
 public:
  explicit ScopedLockAll(std::vector<SharedMutex*> mus) NO_THREAD_SAFETY_ANALYSIS
      : mus_(std::move(mus)) {
    for (SharedMutex* m : mus_) {
      m->lock();
    }
  }
  ~ScopedLockAll() NO_THREAD_SAFETY_ANALYSIS {
    for (SharedMutex* m : mus_) {
      m->unlock();
    }
  }
  ScopedLockAll(const ScopedLockAll&) = delete;
  ScopedLockAll& operator=(const ScopedLockAll&) = delete;

 private:
  std::vector<SharedMutex*> mus_;
};

}  // namespace

int BufferPool::ThreadPinCount() {
  return LocalPinCounter()->load(std::memory_order_relaxed);
}

// -------------------------------------------------------------------- PageRef

PageRef::PageRef(BufferPool* pool, size_t frame, std::byte* data,
                 std::shared_ptr<std::atomic<int>> pinner)
    : pool_(pool), frame_(frame), data_(data), pinner_(std::move(pinner)) {}

PageRef::~PageRef() { Release(); }

PageRef::PageRef(PageRef&& other) noexcept
    : pool_(other.pool_),
      frame_(other.frame_),
      data_(other.data_),
      pinner_(std::move(other.pinner_)) {
  other.pool_ = nullptr;
  other.data_ = nullptr;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    data_ = other.data_;
    pinner_ = std::move(other.pinner_);
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    if (pinner_) {
      pinner_->fetch_sub(1, std::memory_order_relaxed);
      pinner_.reset();
    }
    pool_ = nullptr;
    data_ = nullptr;
  }
}

void PageRef::MarkDirty() {
  INV_CHECK(pool_ != nullptr);
  pool_->frames_[frame_].dirty.store(true, std::memory_order_release);
}

SharedMutex& PageRef::Latch() {
  INV_CHECK(pool_ != nullptr);
  return pool_->frames_[frame_].latch;
}

// ----------------------------------------------------------------- BufferPool

BufferPool::BufferPool(DeviceSwitch* devices, size_t num_buffers, SimClock* clock,
                       CpuParams cpu, size_t partitions, MetricsRegistry* metrics)
    : devices_(devices), clock_(clock), cpu_(cpu) {
  INV_CHECK(num_buffers > 0);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  hits_ = metrics->GetCounter("buffer.hits");
  misses_ = metrics->GetCounter("buffer.misses");
  evictions_ = metrics->GetCounter("buffer.evictions");
  write_backs_ = metrics->GetCounter("buffer.write_backs");
  sweep_steps_ = metrics->GetCounter("buffer.sweep_steps");
  num_frames_ = num_buffers;
  frames_ = std::make_unique<Frame[]>(num_frames_);
  for (size_t i = 0; i < num_frames_; ++i) {
    frames_[i].data = std::make_unique<std::byte[]>(kPageSize);
  }
  const size_t n = RoundUpPow2(partitions == 0 ? kDefaultPoolPartitions : partitions);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = n - 1;
}

BufferPool::~BufferPool() = default;

void BufferPool::Unpin(size_t frame) {
  const int prev = frames_[frame].pins.fetch_sub(1, std::memory_order_acq_rel);
  INV_CHECK(prev > 0);
}

Result<uint32_t> BufferPool::DeviceBlocks(Oid rel) {
  INV_ASSIGN_OR_RETURN(DeviceManager * mgr, devices_->ManagerFor(rel));
  return mgr->NumBlocks(rel);
}

Result<uint32_t> BufferPool::NumBlocks(Oid rel) {
  MutexLock lock(io_mu_);
  auto it = pending_extensions_.find(rel);
  const uint32_t pending = it == pending_extensions_.end() ? 0 : it->second;
  INV_ASSIGN_OR_RETURN(uint32_t dev, DeviceBlocks(rel));
  return dev + pending;
}

Result<size_t> BufferPool::EvictOne() {
  ScopedSpan span(&metrics_->spans(), "buffer.evict");
  // Clock sweep with second chance. Two full revolutions clear every
  // reference bit; the third catches frames unpinned mid-sweep. Pin counts
  // are rechecked under the victim's shard mutex, because that mutex is what
  // pin-hits hold while incrementing.
  for (size_t step = 0; step < 3 * num_frames_; ++step) {
    sweep_steps_->Add();
    const size_t i = hand_;
    hand_ = (hand_ + 1) % num_frames_;
    Frame& f = frames_[i];
    if (!f.valid) {
      return i;  // free frame (never mapped, or discarded)
    }
    if (f.pins.load(std::memory_order_acquire) > 0) {
      continue;
    }
    if (f.ref.exchange(false, std::memory_order_acq_rel)) {
      continue;  // second chance
    }
    // Write back while the frame is still mapped: a WriteBlock failure must
    // leave the dirty page reachable and retryable, so the mapping is erased
    // only after the data is safely on the device.
    if (f.dirty.load(std::memory_order_acquire)) {
      CrashPointRegistry::Hit("buffer.eviction");
      INV_RETURN_IF_ERROR(WriteFrame(i));
    }
    {
      Shard& s = ShardFor(f.tag);
      WriterMutexLock shard_lock(s.mu);
      if (f.pins.load(std::memory_order_acquire) > 0) {
        continue;  // pinned during the sweep or the write-back
      }
      if (f.dirty.load(std::memory_order_acquire)) {
        continue;  // re-dirtied during the write-back; stays cached
      }
      s.table.erase(f.tag);
      f.valid = false;
    }
    evictions_->Add();
    metrics_->trace().Record(TraceEvent::kPageEvict, f.tag.rel, f.tag.block);
    return i;
  }
  return Status::ResourceExhausted("all buffers pinned");
}

Status BufferPool::WriteFrame(size_t frame) {
  Frame& f = frames_[frame];
  ScopedSpan span(&metrics_->spans(), "buffer.write_back", f.tag.rel,
                  f.tag.block);
  INV_ASSIGN_OR_RETURN(DeviceManager * mgr, devices_->ManagerFor(f.tag.rel));
  INV_ASSIGN_OR_RETURN(uint32_t dev_size, mgr->NumBlocks(f.tag.rel));
  // Devices cannot hold holes: if this block extends past the device's
  // current size, force the intervening pending blocks (which must still be
  // buffered — they were never written) out first, in order.
  for (uint32_t b = dev_size; b < f.tag.block; ++b) {
    const Tag tag{f.tag.rel, b};
    size_t gi = num_frames_;
    {
      Shard& s = ShardFor(tag);
      WriterMutexLock shard_lock(s.mu);
      auto it = s.table.find(tag);
      if (it != s.table.end()) {
        gi = it->second;
      }
    }
    if (gi == num_frames_) {
      return Status::Internal("pending extension block " + std::to_string(b) +
                              " of rel " + std::to_string(f.tag.rel) +
                              " missing from buffer pool");
    }
    // Holding io_mu_ pins the mapping: the frame cannot be evicted or
    // remapped underneath us, so its data may be read without its shard lock.
    // The dirty bit is *claimed* (cleared) before the data is read: a
    // concurrent pinner's MarkDirty during or after our snapshot re-dirties
    // the frame, so an image taken mid-mutation is never the last one written
    // — the frame stays dirty and a later flush writes the settled page.
    Frame& g = frames_[gi];
    if (g.dirty.exchange(false, std::memory_order_acq_rel)) {
      Page gpage(g.data.get());
      if (gpage.IsInitialized()) {
        gpage.UpdateChecksum();
      }
      CrashPointRegistry::Hit("buffer.write_back");
      Status ws = mgr->WriteBlock(g.tag.rel, g.tag.block, {g.data.get(), kPageSize});
      if (!ws.ok()) {
        g.dirty.store(true, std::memory_order_release);  // still unwritten
        return ws;
      }
      write_backs_->Add();
      metrics_->trace().Record(TraceEvent::kPageWriteBack, g.tag.rel, g.tag.block);
    }
  }
  // Same claim-before-read protocol for the frame itself.
  if (f.dirty.exchange(false, std::memory_order_acq_rel)) {
    Page fpage(f.data.get());
    if (fpage.IsInitialized()) {
      fpage.UpdateChecksum();
    }
    CrashPointRegistry::Hit("buffer.write_back");
    Status ws = mgr->WriteBlock(f.tag.rel, f.tag.block, {f.data.get(), kPageSize});
    if (!ws.ok()) {
      f.dirty.store(true, std::memory_order_release);  // still unwritten
      return ws;
    }
    write_backs_->Add();
    metrics_->trace().Record(TraceEvent::kPageWriteBack, f.tag.rel, f.tag.block);
  }
  // Recompute pending extensions for this relation.
  INV_ASSIGN_OR_RETURN(uint32_t new_dev_size, mgr->NumBlocks(f.tag.rel));
  auto pit = pending_extensions_.find(f.tag.rel);
  if (pit != pending_extensions_.end()) {
    const uint32_t logical = pit->second + dev_size;
    pit->second = logical > new_dev_size ? logical - new_dev_size : 0;
    if (pit->second == 0) {
      pending_extensions_.erase(pit);
    }
  }
  return Status::Ok();
}

Result<PageRef> BufferPool::Pin(Oid rel, uint32_t block) {
  clock_->Advance(cpu_.page_cpu_us);
  const Tag tag{rel, block};
  Shard& s = ShardFor(tag);
  {
    // Shared: hits on one shard proceed side by side. The pin taken here
    // still excludes eviction, which rechecks pins under the exclusive latch.
    ReaderMutexLock shard_lock(s.mu);
    const auto& table = s.table;
    auto it = table.find(tag);
    if (it != table.end()) {
      Frame& f = frames_[it->second];
      f.pins.fetch_add(1, std::memory_order_acq_rel);
      f.ref.store(true, std::memory_order_release);
      hits_->Add();
      LocalPinCounter()->fetch_add(1, std::memory_order_relaxed);
      return PageRef(this, it->second, f.data.get(), LocalPinCounter());
    }
  }
  // Misses leave the hot path, so the trace record's cost is invisible. The
  // span covers the whole miss: io_mu_ queueing, eviction, and the read.
  misses_->Add();
  metrics_->trace().Record(TraceEvent::kPageMiss, rel, block);
  ScopedSpan span(&metrics_->spans(), "buffer.miss", rel, block);
  MutexLock lock(io_mu_);
  {
    // Another thread may have completed the same miss while we waited.
    WriterMutexLock shard_lock(s.mu);
    auto it = s.table.find(tag);
    if (it != s.table.end()) {
      Frame& f = frames_[it->second];
      f.pins.fetch_add(1, std::memory_order_acq_rel);
      f.ref.store(true, std::memory_order_release);
      LocalPinCounter()->fetch_add(1, std::memory_order_relaxed);
      return PageRef(this, it->second, f.data.get(), LocalPinCounter());
    }
  }
  INV_ASSIGN_OR_RETURN(size_t frame, EvictOne());
  Frame& f = frames_[frame];
  INV_ASSIGN_OR_RETURN(DeviceManager * mgr, devices_->ManagerFor(rel));
  INV_RETURN_IF_ERROR(mgr->ReadBlock(rel, block, {f.data.get(), kPageSize}));
  // Self-identification + checksum check on every read from backing store:
  // detects media corruption and misdirected writes (paper's reserved-space
  // design, extended with a whole-frame CRC32C).
  Page page(f.data.get());
  if (page.IsInitialized()) {
    INV_RETURN_IF_ERROR(page.VerifyChecksum());
    INV_RETURN_IF_ERROR(page.VerifySelfIdent(rel, block));
  }
  {
    WriterMutexLock shard_lock(s.mu);
    f.tag = tag;
    f.valid = true;
    f.dirty.store(false, std::memory_order_release);
    f.pins.store(1, std::memory_order_release);
    f.ref.store(true, std::memory_order_release);
    s.table[tag] = frame;
  }
  LocalPinCounter()->fetch_add(1, std::memory_order_relaxed);
  return PageRef(this, frame, f.data.get(), LocalPinCounter());
}

Result<PageRef> BufferPool::Extend(Oid rel, uint32_t* new_block) {
  clock_->Advance(cpu_.page_cpu_us);
  MutexLock lock(io_mu_);
  INV_ASSIGN_OR_RETURN(uint32_t dev, DeviceBlocks(rel));
  uint32_t& pending = pending_extensions_[rel];
  const uint32_t block = dev + pending;
  ++pending;
  INV_ASSIGN_OR_RETURN(size_t frame, EvictOne());
  Frame& f = frames_[frame];
  const Tag tag{rel, block};
  Page page(f.data.get());
  page.Init(rel, block);
  {
    Shard& s = ShardFor(tag);
    WriterMutexLock shard_lock(s.mu);
    f.tag = tag;
    f.valid = true;
    f.dirty.store(true, std::memory_order_release);
    f.pins.store(1, std::memory_order_release);
    f.ref.store(true, std::memory_order_release);
    s.table[tag] = frame;
  }
  LocalPinCounter()->fetch_add(1, std::memory_order_relaxed);
  if (new_block != nullptr) {
    *new_block = block;
  }
  return PageRef(this, frame, f.data.get(), LocalPinCounter());
}

Status BufferPool::FlushFrames(std::vector<size_t> frames) {
  std::sort(frames.begin(), frames.end(), [this](size_t a, size_t b) {
    return frames_[a].tag < frames_[b].tag;
  });
  for (size_t i : frames) {
    if (frames_[i].dirty.load(std::memory_order_acquire)) {
      INV_RETURN_IF_ERROR(WriteFrame(i));
    }
  }
  return Status::Ok();
}

Status BufferPool::FlushRelation(Oid rel) {
  MutexLock lock(io_mu_);
  // valid/tag are stable under io_mu_: mapping changes all hold it.
  std::vector<size_t> dirty;
  for (size_t i = 0; i < num_frames_; ++i) {
    const Frame& f = frames_[i];
    if (f.valid && f.tag.rel == rel && f.dirty.load(std::memory_order_acquire)) {
      dirty.push_back(i);
    }
  }
  return FlushFrames(std::move(dirty));
}

Status BufferPool::FlushAll() {
  MutexLock lock(io_mu_);
  std::vector<size_t> dirty;
  for (size_t i = 0; i < num_frames_; ++i) {
    const Frame& f = frames_[i];
    if (f.valid && f.dirty.load(std::memory_order_acquire)) {
      dirty.push_back(i);
    }
  }
  return FlushFrames(std::move(dirty));
}

Status BufferPool::FlushAndInvalidate() {
  MutexLock lock(io_mu_);
  std::vector<size_t> dirty;
  for (size_t i = 0; i < num_frames_; ++i) {
    Frame& f = frames_[i];
    if (f.pins.load(std::memory_order_acquire) > 0) {
      return Status::Internal("cannot invalidate pinned buffer");
    }
    if (f.valid && f.dirty.load(std::memory_order_acquire)) {
      dirty.push_back(i);
    }
  }
  INV_RETURN_IF_ERROR(FlushFrames(std::move(dirty)));
  return InvalidateAllQuiesced();
}

// Pins are only ever taken under a shard mutex, so holding *every* shard
// mutex makes the pin recheck and the table clear one atomic step against
// the hit path: no PageRef can be handed out for a frame we invalidate.
// (WriteFrame takes shard mutexes, which is why FlushAndInvalidate flushes
// first, outside this region.) The analysis cannot express acquiring a
// variable-length set of capabilities, so the body is exempt; the REQUIRES
// on io_mu_ is still enforced at call sites, and TSan covers the rest.
Status BufferPool::InvalidateAllQuiesced() NO_THREAD_SAFETY_ANALYSIS {
  std::vector<SharedMutex*> shard_mus;
  shard_mus.reserve(shards_.size());
  for (auto& shard : shards_) {
    shard_mus.push_back(&shard->mu);
  }
  ScopedLockAll shard_locks(std::move(shard_mus));
  for (size_t i = 0; i < num_frames_; ++i) {
    Frame& f = frames_[i];
    if (f.pins.load(std::memory_order_acquire) > 0) {
      return Status::Internal("cannot invalidate pinned buffer");
    }
    if (f.valid && f.dirty.load(std::memory_order_acquire)) {
      // A pin slipped in after the flush, dirtied the page and released it:
      // the caller broke the quiesced-pool contract. Refuse rather than
      // silently discard the write.
      return Status::Internal("buffer dirtied during invalidation");
    }
  }
  for (auto& shard : shards_) {
    shard->table.clear();
  }
  for (size_t i = 0; i < num_frames_; ++i) {
    frames_[i].valid = false;
    frames_[i].dirty.store(false, std::memory_order_release);
    frames_[i].ref.store(false, std::memory_order_release);
  }
  pending_extensions_.clear();
  return Status::Ok();
}

void BufferPool::DiscardRelation(Oid rel) {
  MutexLock lock(io_mu_);
  for (size_t i = 0; i < num_frames_; ++i) {
    Frame& f = frames_[i];
    if (!f.valid || f.tag.rel != rel) {
      continue;
    }
    INV_CHECK(f.pins.load(std::memory_order_acquire) == 0);
    Shard& s = ShardFor(f.tag);
    WriterMutexLock shard_lock(s.mu);
    s.table.erase(f.tag);
    f.valid = false;
    f.dirty.store(false, std::memory_order_release);
  }
  pending_extensions_.erase(rel);
}

void BufferPool::DiscardAll() {
  MutexLock lock(io_mu_);
  for (auto& shard : shards_) {
    WriterMutexLock shard_lock(shard->mu);
    shard->table.clear();
  }
  for (size_t i = 0; i < num_frames_; ++i) {
    Frame& f = frames_[i];
    f.valid = false;
    f.dirty.store(false, std::memory_order_release);
    f.ref.store(false, std::memory_order_release);
    f.pins.store(0, std::memory_order_release);
  }
  pending_extensions_.clear();
}

}  // namespace invfs

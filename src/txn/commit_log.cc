#include "src/txn/commit_log.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <optional>

#include "src/fault/crash_points.h"
#include "src/obs/span.h"
#include "src/util/bytes.h"

namespace invfs {

namespace {

uint64_t NextLogId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool IsInProgress(const std::atomic<uint32_t>& status) {
  return status.load(std::memory_order_relaxed) ==
         static_cast<uint32_t>(TxnStatus::kInProgress);
}

}  // namespace

CommitLog::CommitLog(DeviceManager* device, MetricsRegistry* metrics)
    : device_(device), id_(NextLogId()) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  persist_requests_ = metrics->GetCounter("log.persist_requests");
  persist_batches_ = metrics->GetCounter("log.persist_batches");
  device_page_writes_ = metrics->GetCounter("log.device_page_writes");
  horizon_hits_ = metrics->GetCounter("log.horizon_hits");
  batch_transitions_ = metrics->GetHistogram("log.batch_transitions");
  flush_us_ = metrics->GetHistogram("log.flush_us");
}

Result<std::unique_ptr<CommitLog>> CommitLog::Open(DeviceManager* device,
                                                   MetricsRegistry* metrics) {
  auto log = std::unique_ptr<CommitLog>(new CommitLog(device, metrics));
  if (!device->RelationExists(kCommitLogRelOid)) {
    INV_RETURN_IF_ERROR(device->CreateRelation(kCommitLogRelOid));
  }
  // Open is single-threaded, but the log's state is guarded and a static
  // member gets no constructor exemption from the analysis, so hold mu_ for
  // the setup.
  MutexLock lock(log->mu_);
  INV_RETURN_IF_ERROR(log->LoadFromDevice());
  // The bootstrap transaction is always committed at time zero.
  log->GrowTo(kBootstrapTxn + 1);
  log->EntryAt(kBootstrapTxn).Set(TxnStatus::kCommitted, 0, 0);
  return log;
}

CommitLog::Entry& CommitLog::EntryAt(TxnId xid) const {
  const uint64_t i = uint64_t{xid} + kFirstSegment;
  const int seg = std::bit_width(i) - 1 - kFirstSegmentBits;
  return segments_[seg][i - (uint64_t{kFirstSegment} << seg)];
}

void CommitLog::GrowTo(TxnId n) {
  if (n <= size_.load(std::memory_order_relaxed)) {
    return;
  }
  const uint64_t last = uint64_t{n} - 1 + kFirstSegment;
  const int last_seg = std::bit_width(last) - 1 - kFirstSegmentBits;
  for (int k = 0; k <= last_seg; ++k) {
    if (segments_[k] == nullptr) {
      segments_[k] = std::make_unique<Entry[]>(size_t{kFirstSegment} << k);
    }
  }
  size_.store(n, std::memory_order_release);
}

Status CommitLog::LoadFromDevice() {
  INV_ASSIGN_OR_RETURN(uint32_t nblocks, device_->NumBlocks(kCommitLogRelOid));
  std::vector<std::byte> buf(kPageSize);
  // Log pages whose entries recovery rewrites; persisted below so the
  // converted aborts reach the raw image, not just memory.
  std::set<uint32_t> converted_blocks;
  for (uint32_t b = 0; b < nblocks; ++b) {
    INV_RETURN_IF_ERROR(device_->ReadBlock(kCommitLogRelOid, b, buf));
    if (b == 0) {
      // Entry 0 (xid 0 is invalid) holds the persisted xid horizon in its
      // timestamp field.
      xid_horizon_ = GetU64(buf.data() + 8);
    }
    for (uint32_t i = b == 0 ? 1 : 0; i < kEntriesPerPage; ++i) {
      const std::byte* p = buf.data() + i * kEntrySize;
      TxnStatus status = static_cast<TxnStatus>(GetU32(p));
      const TxnId xid = b * kEntriesPerPage + i;
      if (status != TxnStatus::kUnused) {
        GrowTo(xid + 1);
        // Crash recovery: an in-progress entry means the writer died before
        // commit. It never happened.
        if (status == TxnStatus::kInProgress) {
          status = TxnStatus::kAborted;
          converted_blocks.insert(b);
        }
        EntryAt(xid).Set(status, GetU64(p + 8), 0);
      }
    }
  }
  // Every xid at or below the horizon may have been handed out without a
  // persisted begin record (begin only waits on the device when it advances
  // the horizon). Whatever is still unused after a crash is burned: record it
  // aborted so the xid can never be reused and offline readers agree.
  if (xid_horizon_ > 0) {
    GrowTo(xid_horizon_ + 1);
    for (TxnId x = kBootstrapTxn + 1; x <= xid_horizon_; ++x) {
      Entry& e = EntryAt(x);
      if (e.status.load(std::memory_order_relaxed) ==
          static_cast<uint32_t>(TxnStatus::kUnused)) {
        e.Set(TxnStatus::kAborted, 0, 0);
        converted_blocks.insert(static_cast<uint32_t>(x / kEntriesPerPage));
      }
    }
  }
  // Persist the conversions: without this, a second crash before the next
  // group flush would leave the entries in-progress (or unused) on disk
  // forever, and any offline reader of the raw image would disagree with us
  // about their fate.
  for (uint32_t b : converted_blocks) {
    INV_RETURN_IF_ERROR(WriteLogBlock(b, BuildPageImage(b)));
  }
  return Status::Ok();
}

std::vector<std::byte> CommitLog::BuildPageImage(uint32_t block) const {
  std::vector<std::byte> buf(kPageSize, std::byte{0});
  const TxnId first = block * kEntriesPerPage;
  for (uint32_t i = 0; i < kEntriesPerPage; ++i) {
    const TxnId x = first + i;
    std::byte* p = buf.data() + i * kEntrySize;
    if (x == 0) {
      // xid 0 is invalid; its entry carries the xid horizon instead.
      PutU64(p + 8, xid_horizon_);
    } else if (const Entry* e = Find(x)) {
      PutU32(p, e->status.load(std::memory_order_relaxed));
      PutU32(p + 4, 0);
      PutU64(p + 8, e->commit_ts.load(std::memory_order_relaxed));
    }
  }
  return buf;
}

Status CommitLog::WriteLogBlock(uint32_t block, const std::vector<std::byte>& image) {
  INV_ASSIGN_OR_RETURN(uint32_t nblocks, device_->NumBlocks(kCommitLogRelOid));
  if (block > nblocks) {
    // Zero-fill intermediate pages. They can hold no registered xid: every
    // xid's begin record is persisted before the xid becomes visible, which
    // extends the device past its page first.
    std::vector<std::byte> zero(kPageSize, std::byte{0});
    for (uint32_t b = nblocks; b < block; ++b) {
      INV_RETURN_IF_ERROR(device_->WriteBlock(kCommitLogRelOid, b, zero));
      device_page_writes_->Add();
    }
  }
  INV_RETURN_IF_ERROR(device_->WriteBlock(kCommitLogRelOid, block, image));
  device_page_writes_->Add();
  return Status::Ok();
}

uint64_t CommitLog::EnqueueTransition(TxnId xid) {
  persist_requests_->Add();
  dirty_blocks_.insert(xid / kEntriesPerPage);
  return ++enqueue_seq_;
}

Status CommitLog::WaitPersisted(uint64_t seq) {
  // One span per waiter: a transition that rides someone else's flush still
  // spent this wall time blocked on group commit, so the shared flush cost is
  // attributed to every member of the batch, not just the leader.
  ScopedSpan wait_span(&metrics_->spans(), "log.flush.wait", seq);
  while (sticky_error_.ok() &&
         persisted_seq_.load(std::memory_order_relaxed) < seq) {
    if (flush_in_progress_) {
      flush_cv_.Wait(mu_);
      continue;
    }
    // Leader: snapshot page images for every queued page under mu_, then
    // write them with mu_ released so new transitions can keep enqueueing
    // (they form the next group).
    flush_in_progress_ = true;
    const uint64_t covers = enqueue_seq_;
    const uint64_t batch_size =
        covers - persisted_seq_.load(std::memory_order_relaxed);
    std::vector<uint32_t> blocks(dirty_blocks_.begin(), dirty_blocks_.end());
    dirty_blocks_.clear();
    std::vector<std::vector<std::byte>> images;
    images.reserve(blocks.size());
    for (uint32_t b : blocks) {
      images.push_back(BuildPageImage(b));
    }
    mu_.unlock();
    // The leader's device-write scope; ends before mu_ is retaken so the span
    // measures I/O, not lock handoff.
    std::optional<ScopedSpan> flush_span;
    flush_span.emplace(&metrics_->spans(), "log.flush", batch_size,
                       blocks.size());
    CrashPointRegistry::Hit("commitlog.pre_flush");
    const auto flush_start = std::chrono::steady_clock::now();
    Status s = Status::Ok();
    // A transient device hiccup must not poison the log: page writes are
    // idempotent images, so the whole batch is simply retried from the top.
    // (With the ErrorPolicyDevice stacked below, transients are normally
    // retried there and never reach this loop; this guards logs opened on a
    // bare device.)
    for (int attempt = 0; attempt < 3; ++attempt) {
      s = Status::Ok();
      for (size_t i = 0; i < blocks.size() && s.ok(); ++i) {
        if (i > 0) {
          CrashPointRegistry::Hit("commitlog.mid_batch");
        }
        s = WriteLogBlock(blocks[i], images[i]);
      }
      if (!s.IsTransientIo()) {
        break;
      }
    }
    if (s.ok()) {
      CrashPointRegistry::Hit("commitlog.post_flush");
    }
    flush_us_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - flush_start)
            .count()));
    batch_transitions_->Observe(batch_size);
    metrics_->trace().Record(TraceEvent::kGroupCommitFlush, batch_size,
                             blocks.size(), s.ok() ? 1 : 0);
    flush_span.reset();
    mu_.lock();
    persist_batches_->Add();
    if (s.ok()) {
      // Only a successful flush makes the covered transitions durable (and
      // therefore visible: see VisibleStatus). On failure persisted_seq_
      // stays put and the sticky error poisons the log, so an unflushed
      // commit can never be observed by readers. The capture version moves
      // first, so a thread that sees the commit also misses its old capture.
      BumpCaptureVersion();
      persisted_seq_.store(
          std::max(persisted_seq_.load(std::memory_order_relaxed), covers),
          std::memory_order_release);
    } else if (sticky_error_.ok()) {
      sticky_error_ = s;
      metrics_->trace().Record(TraceEvent::kLogPoisoned,
                               static_cast<uint64_t>(s.code()));
    }
    flush_in_progress_ = false;
    flush_cv_.NotifyAll();
  }
  return FailStopLocked();
}

Status CommitLog::FailStopLocked() const {
  if (sticky_error_.ok()) {
    return Status::Ok();
  }
  return Status::ReadOnlyDevice(
      "commit log poisoned; database is fail-stop read-only (cause: " +
      sticky_error_.ToString() + ")");
}

bool CommitLog::poisoned() const {
  MutexLock lock(mu_);
  return !sticky_error_.ok();
}

TxnStatus CommitLog::VisibleStatus(const Entry& e) const {
  // A committed entry whose covering group flush has not landed must read as
  // still in progress: a crash before the flush recovers it as aborted, and
  // snapshot visibility (StatusOf / CommittedBefore) must never show a
  // commit that recovery could take back.
  const auto status =
      static_cast<TxnStatus>(e.status.load(std::memory_order_acquire));
  if (status == TxnStatus::kCommitted &&
      e.durable_seq.load(std::memory_order_relaxed) >
          persisted_seq_.load(std::memory_order_acquire)) {
    return TxnStatus::kInProgress;
  }
  return status;
}

Result<TxnId> CommitLog::BeginTxn() {
  MutexLock lock(mu_);
  const TxnId xid = size_.load(std::memory_order_relaxed);
  BumpCaptureVersion();
  GrowTo(xid + 1);
  EntryAt(xid).Set(TxnStatus::kInProgress, 0, 0);
  unresolved_.insert(xid);
  dirty_blocks_.insert(static_cast<uint32_t>(xid / kEntriesPerPage));
  // The begin record exists to prevent xid reuse after a crash. Persisting
  // one per begin would cost a device write per transaction, so begins are
  // covered in batches by the xid horizon: while xid <= horizon, recovery
  // already knows to burn the xid (unused-below-horizon reads as aborted) and
  // the in-progress entry can ride out with the next group flush. Only a
  // begin that crosses the horizon advances it — one device wait per
  // kXidHorizonBatch transactions.
  if (xid <= xid_horizon_) {
    horizon_hits_->Add();
    INV_RETURN_IF_ERROR(FailStopLocked());
    return xid;
  }
  xid_horizon_ = xid + kXidHorizonBatch;
  dirty_blocks_.insert(0);  // the horizon record lives in log page 0
  INV_RETURN_IF_ERROR(WaitPersisted(EnqueueTransition(xid)));
  return xid;
}

Status CommitLog::CommitTxn(TxnId xid, Timestamp commit_ts) {
  MutexLock lock(mu_);
  const Entry* e = Find(xid);
  if (e == nullptr || !IsInProgress(e->status)) {
    return Status::Internal("commit of unknown xid " + std::to_string(xid));
  }
  const uint64_t seq = EnqueueTransition(xid);
  // durable_seq hides the commit from readers until the covering flush lands
  // (entries are read without mu_, so the entry is observable before the
  // device write completes). Until then the capture is unchanged too.
  EntryAt(xid).Set(TxnStatus::kCommitted, commit_ts, seq);
  const Status s = WaitPersisted(seq);
  if (s.ok()) {
    // The covering flush landed: the commit is durable and can never again
    // read as in-progress, so snapshot capture need not track the xid.
    unresolved_.erase(xid);
  }
  return s;
}

Status CommitLog::CommitTxnReadOnly(TxnId xid, Timestamp commit_ts) {
  MutexLock lock(mu_);
  const Entry* e = Find(xid);
  if (e == nullptr || !IsInProgress(e->status)) {
    return Status::Internal("commit of unknown xid " + std::to_string(xid));
  }
  // durable_seq 0 makes the commit visible immediately: there is nothing a
  // crash could take back, because no tuple bears this xid (recovery simply
  // burns it as aborted, which nothing observes). Deliberately no
  // FailStopLocked check — read-only commits must keep succeeding after the
  // log has poisoned, or in-flight readers would fail on a degraded device.
  BumpCaptureVersion();
  EntryAt(xid).Set(TxnStatus::kCommitted, commit_ts, 0);
  unresolved_.erase(xid);
  dirty_blocks_.insert(xid / kEntriesPerPage);
  return Status::Ok();
}

Status CommitLog::AbortTxn(TxnId xid) {
  MutexLock lock(mu_);
  const Entry* e = Find(xid);
  if (e == nullptr || !IsInProgress(e->status)) {
    return Status::Internal("abort of unknown xid " + std::to_string(xid));
  }
  BumpCaptureVersion();
  EntryAt(xid).status.store(static_cast<uint32_t>(TxnStatus::kAborted),
                            std::memory_order_release);
  // Aborted xids leave the unresolved set even though the abort record is
  // not yet durable: an aborted entry can never become visible, so excluding
  // it from captured snapshots is always correct (in-view + never-committed
  // still reads as invisible).
  unresolved_.erase(xid);
  // No waiting: the abort rides out with the next group flush, and an
  // unpersisted abort reads back as in-progress, which recovery aborts.
  dirty_blocks_.insert(xid / kEntriesPerPage);
  return Status::Ok();
}

TxnStatus CommitLog::StatusOf(TxnId xid) const {
  const Entry* e = Find(xid);
  return e == nullptr ? TxnStatus::kUnused : VisibleStatus(*e);
}

Timestamp CommitLog::CommitTimeOf(TxnId xid) const {
  const Entry* e = Find(xid);
  if (e == nullptr || VisibleStatus(*e) != TxnStatus::kCommitted) {
    return 0;
  }
  return e->commit_ts.load(std::memory_order_relaxed);
}

bool CommitLog::CommittedBefore(TxnId xid, Timestamp as_of) const {
  const Entry* e = Find(xid);
  return e != nullptr && VisibleStatus(*e) == TxnStatus::kCommitted &&
         e->commit_ts.load(std::memory_order_relaxed) <= as_of;
}

TxnId CommitLog::MaxTxnId() const {
  const TxnId size = size_.load(std::memory_order_acquire);
  return size == 0 ? 0 : size - 1;
}

std::shared_ptr<const SnapshotState> CommitLog::CaptureState() {
  // The calling thread's previous capture, reused while no change that could
  // alter it has happened in this log since.
  struct LastCapture {
    uint64_t log_id = 0;
    uint64_t version = 0;
    std::shared_ptr<const SnapshotState> state;
  };
  thread_local LastCapture last;
  if (last.log_id == id_ &&
      last.version == capture_version_.load(std::memory_order_acquire)) {
    return last.state;
  }
  MutexLock lock(mu_);
  auto state = std::make_shared<SnapshotState>();
  state->xmax = size_.load(std::memory_order_relaxed);
  for (auto it = unresolved_.begin(); it != unresolved_.end();) {
    const TxnId xid = *it;
    if (xid < state->xmax && VisibleStatus(EntryAt(xid)) == TxnStatus::kInProgress) {
      state->xip.push_back(xid);  // set order: ascending, as InView expects
      ++it;
    } else {
      // Resolved without passing through an eager erase: prune here so the
      // set stays proportional to live transactions.
      it = unresolved_.erase(it);
    }
  }
  last = LastCapture{id_, capture_version_.load(std::memory_order_relaxed), state};
  return state;
}

}  // namespace invfs

#include "src/txn/txn_manager.h"

#include "src/obs/span.h"

namespace invfs {

TxnManager::TxnManager(CommitLog* log, BufferPool* buffers, LockManager* locks,
                       SimClock* clock, MetricsRegistry* metrics)
    : log_(log), buffers_(buffers), locks_(locks), clock_(clock) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  begins_ = metrics->GetCounter("txn.begins");
  ro_begins_ = metrics->GetCounter("txn.read_only_begins");
  commits_ = metrics->GetCounter("txn.commits");
  aborts_ = metrics->GetCounter("txn.aborts");
}

TxnManager::ReadOnlyTxn* TxnManager::ReadOnlyStripe::Find(TxnId xid) {
  for (ReadOnlyTxn& t : active) {
    if (t.xid == xid) {
      return &t;
    }
  }
  return nullptr;
}

Result<TxnId> TxnManager::BeginReadOnly() {
  const TxnId stripe = ThreadStripe();
  ReadOnlyStripe& s = ro_[stripe];
  MutexLock lock(s.mu);
  // Sequence numbers wrap within the stripe's share of the virtual xid
  // space; skip any still held by a long-lived transaction.
  constexpr TxnId kSeqLimit = (~TxnId{0} - kReadOnlyXidBase) / kReadOnlyStripes;
  TxnId xid;
  do {
    xid = kReadOnlyXidBase + s.next_seq * kReadOnlyStripes + stripe;
    s.next_seq = s.next_seq + 1 < kSeqLimit ? s.next_seq + 1 : 1;
  } while (s.Find(xid) != nullptr);
  // Capture inside the stripe lock: OldestActiveXmin scans the stripe under
  // the same lock, so it sees either this pin or a capture taken after the
  // scan.
  s.active.push_back(ReadOnlyTxn{xid, log_->CaptureState()});
  return xid;
}

bool TxnManager::EndReadOnly(TxnId xid, bool* dirtied) {
  ReadOnlyStripe& s = StripeOf(xid);
  MutexLock lock(s.mu);
  ReadOnlyTxn* t = s.Find(xid);
  if (t == nullptr) {
    return false;
  }
  *dirtied = t->dirtied;
  std::swap(*t, s.active.back());
  s.active.pop_back();
  return true;
}

Result<TxnId> TxnManager::Begin(TxnMode mode) {
  ScopedSpan span(&metrics_->spans(), "txn.begin");
  if (mode == TxnMode::kReadOnly) {
    // Virtual xid: no commit-log record at all. The only cost of beginning a
    // reader is capturing the unresolved-xid set — no device I/O, no lock
    // manager state, and it works even after the log has poisoned.
    INV_ASSIGN_OR_RETURN(TxnId xid, BeginReadOnly());
    span.set_a(xid);
    ro_begins_->Add();
    metrics_->trace().Record(TraceEvent::kTxnBegin, xid);
    return xid;
  }
  // The log allocates the xid and registers it in one step. Concurrent Begin
  // calls reach it together so its group-commit protocol can coalesce their
  // page writes into one flush. (A failed begin burns the xid; ids are not
  // reused by design.)
  INV_ASSIGN_OR_RETURN(TxnId xid, log_->BeginTxn());
  span.set_a(xid);
  // Capture after BeginTxn so our own xid is inside the captured horizon
  // (it lands in xip, which is harmless: a snapshot's self-check precedes
  // the frozen-view check).
  auto pinned = log_->CaptureState();
  {
    MutexLock lock(mu_);
    active_[xid] = ActiveTxn{{}, std::move(pinned), false};
  }
  begins_->Add();
  metrics_->trace().Record(TraceEvent::kTxnBegin, xid);
  return xid;
}

Status TxnManager::Commit(TxnId txn) {
  ScopedSpan span(&metrics_->spans(), "txn.commit", txn);
  if (IsReadOnlyTxn(txn)) {
    // Nothing to decide: the xid stamped no tuples and has no log entry.
    // No ReleaseAll either — a read-only transaction never acquires locks
    // (Database::LockTable refuses it), so skipping the call keeps the lock
    // manager's per-txn bookkeeping for real writers only.
    bool dirtied = false;
    if (!EndReadOnly(txn, &dirtied)) {
      return Status::TxnAborted("commit of inactive txn " + std::to_string(txn));
    }
    if (dirtied) {
      return Status::Internal("read-only txn " + std::to_string(txn) +
                              " dirtied relations");
    }
    commits_->Add();
    metrics_->trace().Record(TraceEvent::kTxnCommit, txn, 0);
    return Status::Ok();
  }
  std::set<Oid> touched;
  {
    MutexLock lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::TxnAborted("commit of inactive txn " + std::to_string(txn));
    }
    touched = std::move(it->second.touched);
    active_.erase(it);
  }
  if (touched.empty()) {
    // Read-only transaction: no tuple bears this xid, so the commit decision
    // needs no durability. Skipping the forced log write keeps pure-read
    // workloads free of commit I/O, and keeps reads committing on a device
    // that permanent write errors have tripped read-only.
    INV_RETURN_IF_ERROR(log_->CommitTxnReadOnly(txn, clock_->Now()));
  } else {
    // Force policy: all data this transaction changed must be durable before
    // the commit record.
    for (Oid rel : touched) {
      INV_RETURN_IF_ERROR(buffers_->FlushRelation(rel));
    }
    INV_RETURN_IF_ERROR(log_->CommitTxn(txn, clock_->Now()));
  }
  locks_->ReleaseAll(txn);
  commits_->Add();
  metrics_->trace().Record(TraceEvent::kTxnCommit, txn, touched.size());
  return Status::Ok();
}

Status TxnManager::Abort(TxnId txn) {
  ScopedSpan span(&metrics_->spans(), "txn.abort", txn);
  if (IsReadOnlyTxn(txn)) {
    bool dirtied = false;
    if (!EndReadOnly(txn, &dirtied)) {
      return Status::TxnAborted("abort of inactive txn " + std::to_string(txn));
    }
    aborts_->Add();
    metrics_->trace().Record(TraceEvent::kTxnAbort, txn);
    return Status::Ok();
  }
  {
    MutexLock lock(mu_);
    if (active_.erase(txn) == 0) {
      return Status::TxnAborted("abort of inactive txn " + std::to_string(txn));
    }
  }
  // Nothing to undo: tuples stamped with this xid are invisible to every
  // snapshot because the xid never commits. (Space is reclaimed by vacuum.)
  INV_RETURN_IF_ERROR(log_->AbortTxn(txn));
  locks_->ReleaseAll(txn);
  aborts_->Add();
  metrics_->trace().Record(TraceEvent::kTxnAbort, txn);
  return Status::Ok();
}

bool TxnManager::IsActive(TxnId txn) const {
  if (IsReadOnlyTxn(txn)) {
    ReadOnlyStripe& s = StripeOf(txn);
    MutexLock lock(s.mu);
    return s.Find(txn) != nullptr;
  }
  MutexLock lock(mu_);
  return active_.contains(txn);
}

void TxnManager::NoteTouched(TxnId txn, Oid rel) {
  if (IsReadOnlyTxn(txn)) {
    ReadOnlyStripe& s = StripeOf(txn);
    MutexLock lock(s.mu);
    if (ReadOnlyTxn* t = s.Find(txn)) {
      t->dirtied = true;
    }
    return;
  }
  MutexLock lock(mu_);
  auto it = active_.find(txn);
  if (it != active_.end()) {
    it->second.touched.insert(rel);
    it->second.written = true;
  }
}

void TxnManager::MarkWritten(TxnId txn) {
  MutexLock lock(mu_);
  auto it = active_.find(txn);
  if (it != active_.end()) {
    it->second.written = true;
  }
}

Snapshot TxnManager::SnapshotFor(TxnId txn) const {
  return Snapshot{kTimestampNow, txn, log_, nullptr};
}

Snapshot TxnManager::SnapshotAt(Timestamp t) const {
  // Pin historical reads too: without the frozen view, a transaction that
  // was in flight at the SnapshotAt call but commits with commit_ts <= t
  // mid-scan would flip from invisible to visible between two fetches of
  // the same historical scan.
  return Snapshot{t, kInvalidTxn, log_, log_->CaptureState()};
}

Snapshot TxnManager::ReadSnapshot(TxnId txn) const {
  if (IsReadOnlyTxn(txn)) {
    ReadOnlyStripe& s = StripeOf(txn);
    MutexLock lock(s.mu);
    if (const ReadOnlyTxn* t = s.Find(txn)) {
      return Snapshot{kTimestampNow, txn, log_, t->pinned};
    }
    return SnapshotFor(txn);
  }
  {
    MutexLock lock(mu_);
    auto it = active_.find(txn);
    if (it != active_.end() && !it->second.written &&
        it->second.pinned != nullptr) {
      return Snapshot{kTimestampNow, txn, log_, it->second.pinned};
    }
  }
  return SnapshotFor(txn);
}

TxnId TxnManager::OldestActiveXmin() const {
  TxnId oldest = kInvalidTxn;
  auto consider = [&](const SnapshotState& pinned) {
    const TxnId h = pinned.HorizonXid();
    if (oldest == kInvalidTxn || h < oldest) {
      oldest = h;
    }
  };
  {
    MutexLock lock(mu_);
    for (const auto& [xid, at] : active_) {
      // Written transactions read live state: committed deletions are
      // already invisible to them, so their pin no longer constrains vacuum.
      if (!at.written && at.pinned != nullptr) {
        consider(*at.pinned);
      }
    }
  }
  for (ReadOnlyStripe& s : ro_) {
    MutexLock lock(s.mu);
    for (const ReadOnlyTxn& t : s.active) {
      consider(*t.pinned);
    }
  }
  return oldest;
}

size_t TxnManager::ActiveTxnCount() const {
  size_t n = 0;
  {
    MutexLock lock(mu_);
    n = active_.size();
  }
  for (ReadOnlyStripe& s : ro_) {
    MutexLock lock(s.mu);
    n += s.active.size();
  }
  return n;
}

}  // namespace invfs

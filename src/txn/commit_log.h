// CommitLog: POSTGRES' transaction status file (the TIME relation).
//
// The no-overwrite storage manager needs exactly two facts about any
// transaction to decide tuple visibility: did it commit, and when. Both are
// recorded here, persisted to a reserved relation on the default device. At
// crash recovery there is *nothing to replay*: a transaction whose entry is
// not "committed" simply never happened, and every tuple it wrote is dead on
// arrival. This is the paper's "file system recovery is essentially
// instantaneous".
//
// Persistence uses *group commit*: every status transition that must be
// durable (begin, commit) enqueues its containing log page and joins a flush
// group. The first thread to find no flush in progress becomes the leader,
// snapshots page images for every queued page and performs one device write
// per page; followers whose transition those images cover simply wait for
// the leader's flush to land. Under concurrent commit traffic this turns one
// read-modify-write + one device write *per transition* (the POSTGRES 4.0.1
// behavior Hellerstein calls out as the known bottleneck of the no-overwrite
// commit path) into one write per batch. Because the leader releases the log
// mutex during the device write, each committed entry carries the flush
// sequence that makes it durable, and readers (StatusOf, CommittedBefore,
// CommitTimeOf) report it as still in-progress until that flush lands —
// commit *visibility* always implies commit *durability*, exactly as when
// the mutex was held across the write. Aborts piggyback: they only dirty
// the page in memory and ride out with the next group flush, because an
// unpersisted abort reads back as in-progress, which recovery also treats as
// aborted. Begins batch through the *xid horizon*: entry 0 of the log holds a
// durable high-water mark; a begin below it needs no device wait because
// recovery burns every unused xid at or below the horizon as aborted, so the
// xid can never be reused even if its begin record dies with the process.
// Only one begin in kXidHorizonBatch advances (and persists) the horizon.
//
// On-disk layout: raw pages (no slotting) of 16-byte entries indexed by xid:
//   u32 status (0 unused / 1 in-progress / 2 committed / 3 aborted)
//   u32 reserved
//   u64 commit timestamp (valid when committed)

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "src/device/device.h"
#include "src/obs/metrics.h"
#include "src/storage/common.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace invfs {

// Reserved relation oid for the commit log.
inline constexpr Oid kCommitLogRelOid = 2;

enum class TxnStatus : uint32_t {
  kUnused = 0,
  kInProgress = 1,
  kCommitted = 2,
  kAborted = 3,
};

// A frozen view of which transactions were unresolved at a single instant:
// the Postgres-style (xmax, xip) pair that makes a snapshot immune to
// commits landing mid-scan. An xid is *in view* when the capture had already
// decided its fate — everything at or past `xmax` had not begun, and
// everything in `xip` was still in flight (in-progress, or committed but not
// yet durable, which visibility must treat identically because a crash could
// still take the commit back). A snapshot that carries one of these never
// changes its mind about any xid, no matter what the live commit log does.
struct SnapshotState {
  TxnId xmax = 0;          // first xid beyond the captured log
  std::vector<TxnId> xip;  // unresolved xids < xmax, ascending

  bool InView(TxnId xid) const {
    return xid < xmax && !std::binary_search(xip.begin(), xip.end(), xid);
  }

  // Lowest xid whose commit a snapshot pinned on this state might not see.
  // Versions whose deleter committed below every active snapshot's horizon
  // are invisible to all of them: vacuum's reclamation criterion.
  TxnId HorizonXid() const { return xip.empty() ? xmax : xip.front(); }
};

class CommitLog {
 public:
  // Opens (or creates) the log on `device`. Existing entries are loaded; any
  // in-progress entries found at open are from a crashed process and are
  // marked aborted — that *is* the entire recovery procedure. The converted
  // entries are persisted immediately, so a second crash (or an offline
  // invfs_check run over the raw image) sees them as aborted too. `metrics`
  // receives the log.* counters/histograms; nullptr gives the log a private
  // registry.
  static Result<std::unique_ptr<CommitLog>> Open(DeviceManager* device,
                                                 MetricsRegistry* metrics = nullptr);

  // Allocate the next transaction id and register it as in-progress, in one
  // step under the log mutex: xids reach the log in allocation order, so a
  // capture never sees a later xid begun while an earlier one has not (which
  // would put the earlier one in view and let its commit flip a pinned
  // answer). A crash can never lead to xid reuse: either the begin record
  // itself is persisted (when it advances the xid horizon) or the previously
  // persisted horizon covers the xid and recovery burns it as aborted.
  Result<TxnId> BeginTxn();

  // Persist the commit decision (forces the containing log page to stable
  // storage — possibly via another thread's group flush — before returning).
  Status CommitTxn(TxnId xid, Timestamp commit_ts);
  // Commit a transaction that stamped no tuples. Its status never gates any
  // snapshot, so the decision needs no durability: recorded in memory only,
  // queued to ride out with the next flush, no device wait. This is what
  // keeps pure-read transactions committing (with zero log I/O) on a device
  // that has tripped read-only — and even on a poisoned log.
  Status CommitTxnReadOnly(TxnId xid, Timestamp commit_ts);
  // Aborts are recorded in memory and queued for the next group flush;
  // waiting is unnecessary because an unpersisted abort reads as
  // in-progress, which is equally invisible.
  Status AbortTxn(TxnId xid);

  // Status reads take no lock: entries live in segments that never move,
  // and each field is an atomic the writers publish status-last.
  TxnStatus StatusOf(TxnId xid) const;
  // Commit timestamp; 0 unless committed.
  Timestamp CommitTimeOf(TxnId xid) const;

  // True iff `xid` committed at or before `as_of`.
  bool CommittedBefore(TxnId xid, Timestamp as_of) const;

  // Highest xid ever registered.
  TxnId MaxTxnId() const;

  // Freeze the set of currently unresolved xids. Snapshots built on the
  // returned state keep one immutable answer for every xid's visibility even
  // as transactions commit underneath them. O(active transactions), not
  // O(log size): the unresolved set is maintained incrementally and pruned
  // lazily here. Every change that can alter a capture bumps a version, and
  // a thread gets its previous capture back, without the log mutex, while
  // the version has not moved.
  std::shared_ptr<const SnapshotState> CaptureState();

  // True once a group flush failed permanently. The log refuses durable
  // transitions from then on (fail-stop): callers see kReadOnlyDevice, and
  // Database surfaces the whole engine as read-only. Reads (StatusOf,
  // CommittedBefore, CommitTimeOf) keep working over what already persisted.
  bool poisoned() const;

  // --- group-commit telemetry ---------------------------------------------
  // Thin reads over the registry counters (log.persist_requests etc.).
  // Durable transitions requested (begin + commit calls).
  uint64_t persist_requests() const { return persist_requests_->Value(); }
  // Flush groups executed. With concurrency, batches < requests: that delta
  // is the device writes group commit saved.
  uint64_t persist_batches() const { return persist_batches_->Value(); }
  // Raw device page writes issued by the log (including zero-fill extension).
  uint64_t device_page_writes() const { return device_page_writes_->Value(); }
  // Begins whose xid the persisted horizon already covered (no device wait).
  uint64_t horizon_hits() const { return horizon_hits_->Value(); }

  // A stored log page, decoded. Each entry is 16 bytes: the status word,
  // four reserved bytes and the commit timestamp. Entry 0 of block 0 (xid 0
  // is invalid) carries the persisted xid horizon instead.
  struct DecodedPage {
    struct Entry {
      TxnId xid;
      TxnStatus status;
      Timestamp commit_ts;
    };
    uint64_t horizon = 0;          // block 0 only
    std::vector<Entry> used;       // the entries not kUnused
    std::vector<Status> invalid;   // Corruption naming each xid whose status
                                   // word is above kAborted
  };
  // The one decoder of a stored log page, shared by Open and invfs_check.
  static DecodedPage DecodePage(uint32_t block, std::span<const std::byte> page);
  // The status crash recovery gives `xid`, stored as `stored` in a log whose
  // persisted horizon is `horizon`. An entry left in progress belonged to a
  // writer that died before commit; an xid at or below the horizon that is
  // still unused was handed out without a persisted begin record and burned.
  // Both read as aborted. Open persists the pages this changes; invfs_check
  // reads the same statuses and writes nothing.
  static TxnStatus RecoveredStatus(TxnId xid, TxnStatus stored, TxnId horizon) {
    if (stored == TxnStatus::kInProgress ||
        (stored == TxnStatus::kUnused && xid > kBootstrapTxn && xid <= horizon)) {
      return TxnStatus::kAborted;
    }
    return stored;
  }

 private:
  CommitLog(DeviceManager* device, MetricsRegistry* metrics);

  // One xid's state. Writers (under mu_) store commit_ts and durable_seq
  // before status (release); lock-free readers load status (acquire) first.
  struct Entry {
    std::atomic<uint32_t> status{0};  // TxnStatus
    std::atomic<Timestamp> commit_ts{0};
    // Flush sequence that makes a kCommitted entry durable; 0 means already
    // durable (bootstrap / loaded from the device). Readers must not see the
    // commit until persisted_seq_ reaches it — see VisibleStatus.
    std::atomic<uint64_t> durable_seq{0};

    void Set(TxnStatus st, Timestamp ts, uint64_t seq) {
      commit_ts.store(ts, std::memory_order_relaxed);
      durable_seq.store(seq, std::memory_order_relaxed);
      status.store(static_cast<uint32_t>(st), std::memory_order_release);
    }
  };

  static constexpr uint32_t kEntrySize = 16;
  static constexpr uint32_t kEntriesPerPage = kPageSize / kEntrySize;
  // How far past the highest begun xid the persisted horizon runs. Crashing
  // burns at most this many unallocated xids (they recover as aborted).
  static constexpr TxnId kXidHorizonBatch = 1024;

  // Loads entries from the device and persists recovery conversions. Runs
  // under mu_ even though Open is single-threaded: Open is a static member,
  // so the analysis grants it no constructor exemption for guarded fields.
  Status LoadFromDevice() REQUIRES(mu_);
  // Entry storage: segment k holds kFirstSegment << k entries and never
  // moves once allocated, so readers index it without mu_. Together the
  // segments cover the whole 32-bit xid space.
  static constexpr int kFirstSegmentBits = 10;
  static constexpr TxnId kFirstSegment = TxnId{1} << kFirstSegmentBits;
  static constexpr size_t kSegments = 33 - kFirstSegmentBits;

  // The entry of `xid`, which must be below size_.
  Entry& EntryAt(TxnId xid) const;
  // The entry of `xid`, or nullptr when xid has never been registered.
  const Entry* Find(TxnId xid) const {
    return xid < size_.load(std::memory_order_acquire) ? &EntryAt(xid) : nullptr;
  }
  // Make entries [0, n) exist (zero state), publishing the new size.
  void GrowTo(TxnId n) REQUIRES(mu_);
  // A change that can alter CaptureState's result (see capture_version_).
  void BumpCaptureVersion() REQUIRES(mu_) {
    capture_version_.fetch_add(1, std::memory_order_release);
  }

  // Serialize the in-memory entries of `block` into an 8 KB page.
  std::vector<std::byte> BuildPageImage(uint32_t block) const REQUIRES(mu_);
  // Write one log page, zero-extending the relation up to it. Called by the
  // flush leader outside mu_ (flush_in_progress_ keeps leaders exclusive);
  // LoadFromDevice calls it under mu_ before any concurrency exists.
  Status WriteLogBlock(uint32_t block, const std::vector<std::byte>& image);
  // Queue `xid`'s log page for the next group flush and return the flush
  // sequence that will cover this transition.
  uint64_t EnqueueTransition(TxnId xid) REQUIRES(mu_);
  // Join (or lead) group flushes until the transition with sequence `seq` is
  // durable (or the log is poisoned). Enters and leaves holding mu_; the
  // flush leader drops mu_ around its device writes (flush_in_progress_
  // keeps leaders exclusive while the mutex is down).
  Status WaitPersisted(uint64_t seq) REQUIRES(mu_);
  // Status as transaction-visibility readers may see it: a committed entry
  // whose covering flush has not landed reads as still in progress, because
  // a crash right now would recover it as aborted.
  TxnStatus VisibleStatus(const Entry& e) const;
  // Ok, or the clean fail-stop error once sticky_error_ poisoned the log.
  Status FailStopLocked() const REQUIRES(mu_);

  DeviceManager* device_;
  mutable Mutex mu_;
  CondVar flush_cv_;
  // Entries [0, size_) exist; segments are written under mu_ before size_
  // is published (release), so a reader that sees an xid below size_ (acquire)
  // sees its segment. The next xid BeginTxn allocates is size_.
  std::array<std::unique_ptr<Entry[]>, kSegments> segments_;
  std::atomic<TxnId> size_{0};
  // Bumped under mu_ by every change that can alter a capture: a begin (xmax
  // and xip grow), a read-only commit or an abort (xip shrinks), and a flush
  // landing (commits become durable). CaptureState's per-thread reuse keys
  // on it together with id_, which no other log in the process shares.
  std::atomic<uint64_t> capture_version_{0};
  const uint64_t id_;
  // Durable xid high-water mark (entry 0's timestamp field on disk). Begins
  // at or below it need no device wait; see BeginTxn.
  TxnId xid_horizon_ GUARDED_BY(mu_) = 0;

  // Xids whose VisibleStatus may still be kInProgress: inserted at BeginTxn,
  // erased when the transition resolves (commit flush landed, read-only
  // commit, abort) and pruned lazily by CaptureState. Keeps state capture
  // proportional to the number of live transactions.
  std::set<TxnId> unresolved_ GUARDED_BY(mu_);

  // Group-commit state.
  // Log pages awaiting flush.
  std::set<uint32_t> dirty_blocks_ GUARDED_BY(mu_);
  // Last persist request enqueued.
  uint64_t enqueue_seq_ GUARDED_BY(mu_) = 0;
  // All requests <= this are durable (advanced only on flush success, under
  // mu_; read without it by VisibleStatus).
  std::atomic<uint64_t> persisted_seq_{0};
  bool flush_in_progress_ GUARDED_BY(mu_) = false;
  // First flush failure; poisons the log.
  Status sticky_error_ GUARDED_BY(mu_) = Status::Ok();

  // log.* metrics (cached registry pointers; Counter increments are striped
  // relaxed atomics, safe under or outside mu_).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* persist_requests_ = nullptr;
  Counter* persist_batches_ = nullptr;
  Counter* device_page_writes_ = nullptr;
  Counter* horizon_hits_ = nullptr;
  Histogram* batch_transitions_ = nullptr;  // transitions covered per flush
  Histogram* flush_us_ = nullptr;           // leader device-write wall time
};

}  // namespace invfs

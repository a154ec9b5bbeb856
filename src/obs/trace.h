// Lock-free bounded trace ring of recent engine events.
//
// Complements the counters in MetricsRegistry: counters tell you *how much*,
// the trace tells you *what just happened* — the last few thousand
// transaction transitions, page misses/evictions/write-backs, lock waits and
// group-commit flushes, each stamped with a monotonic wall-clock microsecond
// and the recording thread's tag. The ring is fixed-size and overwrites the
// oldest records; writers never block and never allocate, so it is safe to
// record from the hottest paths (we still keep it off the buffer *hit* path,
// which at millions of events per second would be all the ring ever holds).
//
// Concurrency protocol (seqlock per slot, all fields atomic so the race is
// benign under TSan as well as in fact):
//   writer: claim a sequence number (RingHead), zero the slot's seq
//           (invalidate), store the payload with relaxed stores, publish seq
//           last (release);
//   reader: load seq (acquire), copy the payload, re-load seq — accept the
//           copy only if seq was nonzero and unchanged.
// A reader can lose a record to an overwrite (the ring is lossy by design)
// but can never observe a half-written one.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace invfs {

class Counter;

enum class TraceEvent : uint32_t {
  kNone = 0,
  kTxnBegin = 1,          // a = xid
  kTxnCommit = 2,         // a = xid, b = commit timestamp
  kTxnAbort = 3,          // a = xid
  kPageMiss = 4,          // a = rel, b = block
  kPageEvict = 5,         // a = rel, b = block
  kPageWriteBack = 6,     // a = rel, b = block
  kLockWait = 7,          // a = txn, b = rel
  kGroupCommitFlush = 8,  // a = pages written, b = transitions covered, c = ok
  kDeviceRetry = 9,        // a = attempt (1-based), b = backoff micros
  kDeviceReadOnlyTrip = 10,  // a = error code of the tripping status
  kLogPoisoned = 11,       // a = error code now sticky on the commit log
};

const char* TraceEventName(TraceEvent event);

struct TraceRecord {
  uint64_t seq = 0;     // record number, 1-based, unique (RingHead)
  uint64_t micros = 0;  // wall microseconds since process start (monotonic)
  uint64_t thread = 0;  // recording thread's tag (see ThreadTag())
  TraceEvent event = TraceEvent::kNone;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

namespace obs_internal {
// 0 = not yet assigned. constinit keeps the access wrapper-free: a dynamic
// initializer would make every read go through the TLS init guard, which is
// an out-of-line call on the buffer-pool hit path (measured ~10% there).
extern constinit thread_local uint64_t t_thread_tag;
uint64_t AssignThreadTag();
// -1 = not yet assigned (constinit for the same reason as t_thread_tag).
extern constinit thread_local int32_t t_thread_stripe;
uint32_t AssignThreadStripe();
}  // namespace obs_internal

// Small dense id for the calling thread (1, 2, 3, ... in first-use order),
// never reused. Recorded in trace and span records and the logging layer's
// line tags.
inline uint64_t ThreadTag() {
  const uint64_t tag = obs_internal::t_thread_tag;
  return tag != 0 ? tag : obs_internal::AssignThreadTag();
}

// Number of per-thread stripes in striped state (metric cells, ring heads,
// the reader gate, the read-only transaction registry).
inline constexpr size_t kThreadStripes = 32;

// The calling thread's stripe, in [0, kThreadStripes). Stripes 1 and up are
// each held by at most one live thread, so a cell indexed by one has a
// single writer; a thread releases its stripe when it exits, and threads
// started later reuse it. Stripe 0 is shared by every thread that found all
// others held (and by a thread whose stripe is already released during its
// exit), so its cells need atomic read-modify-writes.
inline uint32_t ThreadStripe() {
  const int32_t stripe = obs_internal::t_thread_stripe;
  return stripe >= 0 ? static_cast<uint32_t>(stripe)
                     : obs_internal::AssignThreadStripe();
}

namespace obs_internal {
// Add `n` to a cell of stripe `stripe`: a plain load and store when the
// calling thread owns the stripe (single writer; a locked RMW alone costs
// more than the ~5% hit-path budget scripts/check.sh enforces), an atomic
// RMW on the shared stripe 0.
inline void AddToStripe(std::atomic<uint64_t>& v, uint32_t stripe, uint64_t n) {
  if (stripe != 0) {
    v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  } else {
    v.fetch_add(n, std::memory_order_relaxed);
  }
}
}  // namespace obs_internal

// Monotonic wall-clock microseconds since the first call in the process.
uint64_t TraceNowMicros();

namespace obs_internal {
// A ring's shared bookkeeping, split per thread stripe (ThreadStripe()) so
// recording threads write cache lines of their own. Claim hands out
// sequence numbers, 1-based and unique, in blocks of kBlock per stripe: a
// record touches the shared head once per block instead of once per record.
// A thread recording alone claims consecutive blocks and so still walks
// every slot in order. Numbers are not ordered across threads, and two
// threads racing on the shared stripe 0 can leave a gap, which the lossy
// ring tolerates; Recorded() and Dropped() stay exact because each stripe
// counts for itself.
class RingHead {
 public:
  static constexpr uint64_t kBlock = 16;

  uint64_t Claim();
  void CountDrop() {
    const uint32_t stripe = ThreadStripe();
    AddToStripe(cells_[stripe].dropped, stripe, 1);
  }
  uint64_t Recorded() const { return Sum(&Cell::claimed); }
  uint64_t Dropped() const { return Sum(&Cell::dropped); }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> next{0};     // next seq of the stripe's block; 0 = none
    std::atomic<uint64_t> claimed{0};  // seqs handed out through this cell
    std::atomic<uint64_t> dropped{0};  // published records overwritten unread
  };
  uint64_t Sum(std::atomic<uint64_t> Cell::*field) const;

  std::array<Cell, kThreadStripes> cells_{};
  std::atomic<uint64_t> head_{0};  // seqs given to blocks so far
};
}  // namespace obs_internal

class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  // Capacity is rounded up to a power of two and fixed for the ring's
  // lifetime; DatabaseOptions::trace_ring_capacity configures the per-db
  // registry's ring.
  explicit TraceRing(size_t capacity = kDefaultCapacity);

  size_t capacity() const { return mask_ + 1; }

  void Record(TraceEvent event, uint64_t a = 0, uint64_t b = 0, uint64_t c = 0);

  // Consistent copies of the currently held records, oldest first. Lossy
  // under concurrent writes (slots being overwritten are skipped).
  std::vector<TraceRecord> Snapshot() const;

  // Total records ever written (records dropped = total - ring occupancy).
  uint64_t TotalRecorded() const { return head_.Recorded(); }

  // Published records overwritten before any snapshot could have read them.
  // Loss is by design (the ring is bounded), but silent loss is not: the
  // count also feeds the process-wide `trace.dropped` counter in
  // MetricsRegistry::Default(), so a load storm that outruns the ring shows
  // up in `invfs_stats` instead of quietly truncating history.
  uint64_t TotalDropped() const { return head_.Dropped(); }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = empty/in-flight; published last
    std::atomic<uint64_t> micros{0};
    std::atomic<uint64_t> thread{0};
    std::atomic<uint32_t> event{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> c{0};
  };

  // Count one overwrite of a published record (trace.cc).
  void CountDrop();

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  obs_internal::RingHead head_;
  // Cached `trace.dropped` cell of the default registry. Resolved lazily on
  // the first drop — never in the constructor, which would recurse while the
  // default registry (whose own ring this may be) is still being built.
  std::atomic<Counter*> drop_counter_{nullptr};
};

}  // namespace invfs

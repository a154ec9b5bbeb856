#include "src/obs/trace.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "src/obs/metrics.h"
#include "src/util/mutex.h"

namespace invfs {

const char* TraceEventName(TraceEvent event) {
  switch (event) {
    case TraceEvent::kNone:
      return "none";
    case TraceEvent::kTxnBegin:
      return "txn.begin";
    case TraceEvent::kTxnCommit:
      return "txn.commit";
    case TraceEvent::kTxnAbort:
      return "txn.abort";
    case TraceEvent::kPageMiss:
      return "page.miss";
    case TraceEvent::kPageEvict:
      return "page.evict";
    case TraceEvent::kPageWriteBack:
      return "page.write_back";
    case TraceEvent::kLockWait:
      return "lock.wait";
    case TraceEvent::kGroupCommitFlush:
      return "log.flush";
    case TraceEvent::kDeviceRetry:
      return "device.retry";
    case TraceEvent::kDeviceReadOnlyTrip:
      return "device.read_only_trip";
    case TraceEvent::kLogPoisoned:
      return "log.poisoned";
  }
  return "unknown";
}

namespace obs_internal {

constinit thread_local uint64_t t_thread_tag = 0;

uint64_t AssignThreadTag() {
  static std::atomic<uint64_t> next_tag{0};
  t_thread_tag = next_tag.fetch_add(1, std::memory_order_relaxed) + 1;
  return t_thread_tag;
}

constinit thread_local int32_t t_thread_stripe = -1;

namespace {

// Stripes held by live threads, bit i for stripe i; bit 0 (the shared
// stripe) is never handed out. Leaked: threads may exit after static
// destruction has begun.
struct StripeTable {
  Mutex mu;
  uint32_t held GUARDED_BY(mu) = 1;
};

StripeTable& Stripes() {
  static StripeTable* table = new StripeTable();
  return *table;
}

// Returns the thread's stripe when the thread exits. The mutex orders the
// thread's last plain store to a stripe cell before the next holder's
// first load of it, so single-writer cells lose nothing across owners.
struct StripeRelease {
  uint32_t stripe;
  ~StripeRelease() {
    t_thread_stripe = 0;  // anything the thread still records is shared
    StripeTable& t = Stripes();
    MutexLock lock(t.mu);
    t.held &= ~(uint32_t{1} << stripe);
  }
};

}  // namespace

uint32_t AssignThreadStripe() {
  static_assert(kThreadStripes == 32, "StripeTable::held is a 32-bit mask");
  uint32_t stripe = 0;
  {
    StripeTable& t = Stripes();
    MutexLock lock(t.mu);
    if (t.held != ~uint32_t{0}) {
      stripe = static_cast<uint32_t>(std::countr_one(t.held));
      t.held |= uint32_t{1} << stripe;
    }
  }
  t_thread_stripe = static_cast<int32_t>(stripe);
  if (stripe != 0) {
    thread_local StripeRelease release{stripe};
  }
  return stripe;
}

}  // namespace obs_internal

uint64_t TraceNowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

namespace obs_internal {

uint64_t RingHead::Claim() {
  const uint32_t stripe = ThreadStripe();
  Cell& c = cells_[stripe];
  AddToStripe(c.claimed, stripe, 1);
  uint64_t seq = c.next.load(std::memory_order_relaxed);
  if (stripe != 0) {
    // Owned stripe: this thread is the cell's only writer.
    if (seq == 0) {
      seq = head_.fetch_add(kBlock, std::memory_order_relaxed) + 1;
    }
    // The block's last number empties the cell.
    c.next.store(seq % kBlock == 0 ? 0 : seq + 1, std::memory_order_relaxed);
    return seq;
  }
  while (seq != 0) {
    const uint64_t after = seq % kBlock == 0 ? 0 : seq + 1;
    if (c.next.compare_exchange_weak(seq, after, std::memory_order_relaxed)) {
      return seq;
    }
  }
  const uint64_t first = head_.fetch_add(kBlock, std::memory_order_relaxed) + 1;
  // Park the rest of the block for the stripe's next records, unless another
  // thread on the shared stripe installed a block meanwhile: then the rest
  // of this one is a gap.
  uint64_t empty = 0;
  c.next.compare_exchange_strong(empty, first + 1, std::memory_order_relaxed);
  return first;
}

uint64_t RingHead::Sum(std::atomic<uint64_t> Cell::*field) const {
  uint64_t total = 0;
  for (const Cell& c : cells_) {
    total += (c.*field).load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace obs_internal

namespace {
size_t TraceRoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}
}  // namespace

TraceRing::TraceRing(size_t capacity)
    : mask_(TraceRoundUpPow2(capacity < 2 ? 2 : capacity) - 1),
      slots_(new Slot[mask_ + 1]()) {}

void TraceRing::Record(TraceEvent event, uint64_t a, uint64_t b, uint64_t c) {
#ifdef INVFS_NO_METRICS
  (void)event;
  (void)a;
  (void)b;
  (void)c;
#else
  const uint64_t seq = head_.Claim();
  Slot& s = slots_[seq & mask_];
  // Invalidate first: a reader that copies a payload mixing the old and the
  // new record will see seq change (to 0 or to `seq`) on its re-check.
  if (s.seq.load(std::memory_order_relaxed) != 0) {
    CountDrop();  // a published record is about to be overwritten unread
  }
  s.seq.store(0, std::memory_order_release);
  s.micros.store(TraceNowMicros(), std::memory_order_relaxed);
  s.thread.store(ThreadTag(), std::memory_order_relaxed);
  s.event.store(static_cast<uint32_t>(event), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.c.store(c, std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_release);
#endif
}

void TraceRing::CountDrop() {
  head_.CountDrop();
  Counter* c = drop_counter_.load(std::memory_order_acquire);
  if (c == nullptr) {
    // First drop of this ring: resolve the shared default-registry counter.
    // Racing resolvers get the same pointer back (find-or-create), and this
    // can never run during MetricsRegistry::Default()'s own construction —
    // no record is written to a ring before its registry finishes building.
    c = MetricsRegistry::Default().GetCounter("trace.dropped");
    drop_counter_.store(c, std::memory_order_release);
  }
  c->Add();
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(capacity());
  for (size_t i = 0; i <= mask_; ++i) {
    const Slot& s = slots_[i];
    const uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (seq == 0) {
      continue;
    }
    TraceRecord r;
    r.seq = seq;
    r.micros = s.micros.load(std::memory_order_relaxed);
    r.thread = s.thread.load(std::memory_order_relaxed);
    r.event = static_cast<TraceEvent>(s.event.load(std::memory_order_relaxed));
    r.a = s.a.load(std::memory_order_relaxed);
    r.b = s.b.load(std::memory_order_relaxed);
    r.c = s.c.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_acquire) != seq) {
      continue;  // overwritten mid-copy; the record is gone
    }
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& x, const TraceRecord& y) { return x.seq < y.seq; });
  return out;
}

}  // namespace invfs

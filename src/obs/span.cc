#include "src/obs/span.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/obs/metrics.h"
#include "src/util/mutex.h"

namespace invfs {

const char* InternSpanName(std::string_view name) {
  // Leaked on purpose: interned names must outlive every ring snapshot, and
  // the vocabulary is small (op names, one pair per device).
  static Mutex* mu = new Mutex();
  static std::set<std::string, std::less<>>* names =
      new std::set<std::string, std::less<>>();
  MutexLock lock(*mu);
  auto it = names->find(name);
  if (it == names->end()) {
    it = names->emplace(name).first;
  }
  return it->c_str();  // node-based container: c_str() is stable
}

namespace obs_internal {

constinit thread_local uint64_t t_trace_id = 0;
constinit thread_local uint64_t t_span_id = 0;
constinit thread_local const char* t_tenant = nullptr;

namespace {

// A thread's current range [next, end) of ids drawn from a shared source.
struct IdBlock {
  uint64_t next = 0;
  uint64_t end = 0;
};

constexpr uint64_t kIdBlock = 1024;

constinit thread_local IdBlock t_trace_ids;
constinit thread_local IdBlock t_span_ids;

uint64_t TakeId(IdBlock& block, std::atomic<uint64_t>& source) {
  if (block.next == block.end) {
    block.next = source.fetch_add(kIdBlock, std::memory_order_relaxed) + 1;
    block.end = block.next + kIdBlock;
  }
  return block.next++;
}

}  // namespace

uint64_t NextTraceId() {
  static std::atomic<uint64_t> source{0};
  return TakeId(t_trace_ids, source);
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> source{0};
  return TakeId(t_span_ids, source);
}

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
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}
}  // namespace

SpanRing::SpanRing(size_t capacity)
    : mask_(RoundUpPow2(std::max<size_t>(capacity, 2)) - 1),
      slots_(new Slot[mask_ + 1]()) {}

void SpanRing::RecordSpan(const SpanRecord& r) {
  if constexpr (!kSpansEnabled) {
    (void)r;
    return;
  }
  const uint64_t seq = head_.Claim();
  Slot& s = slots_[seq & mask_];
  // Seqlock write (see SpanRing): invalidate, payload with relaxed stores,
  // publish seq last.
  if (s.seq.load(std::memory_order_relaxed) != 0) {
    CountDrop();  // a published span is about to be overwritten unread
  }
  s.seq.store(0, std::memory_order_release);
  s.trace_id.store(r.trace_id, std::memory_order_relaxed);
  s.span_id.store(r.span_id, std::memory_order_relaxed);
  s.parent_id.store(r.parent_id, std::memory_order_relaxed);
  s.name.store(r.name, std::memory_order_relaxed);
  s.tenant.store(r.tenant, std::memory_order_relaxed);
  s.thread.store(r.thread, std::memory_order_relaxed);
  s.start_micros.store(r.start_micros, std::memory_order_relaxed);
  s.dur_micros.store(r.dur_micros, std::memory_order_relaxed);
  s.a.store(r.a, std::memory_order_relaxed);
  s.b.store(r.b, std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_release);
}

std::vector<SpanRecord> SpanRing::Snapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(capacity());
  for (size_t i = 0; i <= mask_; ++i) {
    const Slot& s = slots_[i];
    const uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (seq == 0) {
      continue;
    }
    SpanRecord r;
    r.seq = seq;
    r.trace_id = s.trace_id.load(std::memory_order_relaxed);
    r.span_id = s.span_id.load(std::memory_order_relaxed);
    r.parent_id = s.parent_id.load(std::memory_order_relaxed);
    r.name = s.name.load(std::memory_order_relaxed);
    r.tenant = s.tenant.load(std::memory_order_relaxed);
    r.thread = s.thread.load(std::memory_order_relaxed);
    r.start_micros = s.start_micros.load(std::memory_order_relaxed);
    r.dur_micros = s.dur_micros.load(std::memory_order_relaxed);
    r.a = s.a.load(std::memory_order_relaxed);
    r.b = s.b.load(std::memory_order_relaxed);
    if (s.seq.load(std::memory_order_acquire) != seq) {
      continue;  // overwritten mid-copy; the record is gone
    }
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& x, const SpanRecord& y) { return x.seq < y.seq; });
  return out;
}

void SpanRing::CountDrop() {
  head_.CountDrop();
  Counter* c = drop_counter_.load(std::memory_order_acquire);
  if (c == nullptr) {
    // First drop of this ring: resolve the shared default-registry counter.
    // Racing resolvers get the same pointer back (find-or-create), and this
    // can never run during MetricsRegistry::Default()'s own construction —
    // no span is recorded to a ring before its registry finishes building.
    c = MetricsRegistry::Default().GetCounter("span.dropped");
    drop_counter_.store(c, std::memory_order_release);
  }
  c->Add();
}

uint64_t ScopedSpan::End() {
  obs_internal::t_trace_id = parent_trace_;
  obs_internal::t_span_id = parent_span_;
  SpanRecord r;
  r.trace_id = trace_id_;
  r.span_id = span_id_;
  r.parent_id = parent_span_;
  r.name = name_;
  r.tenant = tenant_;
  r.thread = ThreadTag();
  r.start_micros = start_;
  r.dur_micros = TraceMicrosBetween(start_, TraceNowMicros());
  r.a = a_;
  r.b = b_;
  ring_->RecordSpan(r);
  return r.dur_micros;
}

}  // namespace invfs

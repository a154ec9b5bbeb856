// Request-scoped causal tracing: spans, the lock-free SpanRing, and the
// RAII ScopedSpan that is the only sanctioned way to emit one.
//
// A span is one timed region of one request: it carries the trace id shared
// by every span of that request, its own span id, its parent's span id, an
// interned name, wall-clock start/duration microseconds, and two free
// attribute slots. Parentage is propagated through a thread-local "current
// span" context: constructing a ScopedSpan makes it the current span (a new
// trace is started when there is none), destroying it records the finished
// span into the ring and restores its parent. The result is a causal tree —
// an RPC write's span contains the p_write span, which contains the
// buffer-miss, device-I/O and group-commit-wait spans that explain where its
// wall time went (`invfs_stats --breakdown`, the `invfs_spans` relation).
//
// Point events with no duration of their own (a device tripping read-only,
// the commit log poisoning) are spans too, opened for the block that handles
// them, so `invfs_spans` is the one place every engine event lands.
//
// Cost model: recording is allocation-free and lock-free (seqlock per slot,
// all fields atomic; see SpanRing), so spans are safe on every cold path.
// The buffer-pool *hit* path deliberately carries no span — at millions of
// hits per second it would be all the ring ever holds, and the <5% overhead
// gate in scripts/check.sh exists to keep it that way. Under
// -DINVFS_NO_METRICS every ScopedSpan compiles to nothing.
//
// Lint contract (span-raii): SpanRing::RecordSpan and the thread-local
// context are implementation details of ScopedSpan; invfs_lint forbids
// touching them outside src/obs/span.{h,cc}. Begin/end must always be a
// ScopedSpan scope, so a span can never leak its context installation.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/obs/trace.h"

namespace invfs {

class Counter;

#ifdef INVFS_NO_METRICS
inline constexpr bool kSpansEnabled = false;
#else
inline constexpr bool kSpansEnabled = true;
#endif

// Returns a stable pointer for `name`, valid for the process lifetime.
// Span names are expected to come from a small fixed vocabulary; interning
// takes a mutex, so callers on repeated paths intern once and cache.
const char* InternSpanName(std::string_view name);

struct SpanRecord {
  uint64_t seq = 0;           // ring sequence, 1-based, unique (RingHead)
  uint64_t trace_id = 0;      // shared by every span of one request
  uint64_t span_id = 0;       // unique per span, process-wide
  uint64_t parent_id = 0;     // 0 = root span of its trace
  const char* name = nullptr; // interned or string literal (stable storage)
  const char* tenant = nullptr;  // interned tenant tag; nullptr = untagged
  uint64_t thread = 0;        // recording thread's tag (see ThreadTag())
  uint64_t start_micros = 0;  // wall micros since process start
  uint64_t dur_micros = 0;
  uint64_t a = 0;             // name-specific attributes
  uint64_t b = 0;
};

namespace obs_internal {
// Current span context of this thread. 0/0 = no active span. Owned by
// ScopedSpan; nothing else may read or write these (lint: span-raii).
extern constinit thread_local uint64_t t_trace_id;
extern constinit thread_local uint64_t t_span_id;
// Current tenant tag of this thread (interned name; nullptr = untagged).
// Owned by ScopedTenantTag (src/obs/tenant.h) — every span opened while a
// tag is installed carries it, which is how one tenant's request tree stays
// attributable through txn/buffer/log/device layers it shares with others.
extern constinit thread_local const char* t_tenant;
// Unique process-wide; each thread draws from a block of its own, so ids are
// not ordered across threads.
uint64_t NextTraceId();
uint64_t NextSpanId();

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

// Lossy bounded ring of finished spans. Concurrency protocol (seqlock per
// slot, all fields atomic so the race is benign under TSan as well as in
// fact):
//   writer: claim a sequence number (RingHead), zero the slot's seq
//           (invalidate), store the payload with relaxed stores, publish seq
//           last (release);
//   reader: load seq (acquire), copy the payload, re-load seq — accept the
//           copy only if seq was nonzero and unchanged.
// A reader can lose a span to an overwrite but can never observe a
// half-written one. Capacity is fixed at construction (rounded up to a power
// of two) and configurable per Database via DatabaseOptions.
class SpanRing {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit SpanRing(size_t capacity = kDefaultCapacity);

  size_t capacity() const { return mask_ + 1; }

  // Raw emission — ScopedSpan only (enforced by invfs_lint rule span-raii).
  void RecordSpan(const SpanRecord& r);

  // Consistent copies of the currently held spans, oldest first. Lossy under
  // concurrent writes (slots being overwritten are skipped).
  std::vector<SpanRecord> Snapshot() const;

  uint64_t TotalRecorded() const { return head_.Recorded(); }

  // Published spans overwritten before any snapshot could have read them;
  // mirrored into the process-wide `span.dropped` counter of
  // MetricsRegistry::Default() so storms that outrun the ring are visible
  // (scripts/check.sh's load leg gates on it staying zero).
  uint64_t TotalDropped() const { return head_.Dropped(); }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = empty/in-flight; published last
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> tenant{nullptr};
    std::atomic<uint64_t> thread{0};
    std::atomic<uint64_t> start_micros{0};
    std::atomic<uint64_t> dur_micros{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  // Count one overwrite of a published span (span.cc).
  void CountDrop();

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  obs_internal::RingHead head_;
  // `span.dropped` cell of the default registry. Resolved lazily on the
  // first drop — never in the constructor, which would recurse while the
  // default registry (whose own ring this may be) is still being built.
  std::atomic<Counter*> drop_counter_{nullptr};
};

// RAII span: construction opens the span and makes it the thread's current
// span (allocating a fresh trace id when none is active); destruction, or
// an earlier Finish, records it and restores the parent context. Scopes
// must nest — a ScopedSpan is neither copyable nor movable, so the usual
// block scoping guarantees it, and Finish belongs after every span opened
// inside it has ended. A null ring makes the span a no-op (components
// without a registry stay span-free instead of branching at every call
// site).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanRing* ring, const char* name, uint64_t a = 0,
                      uint64_t b = 0) {
    if constexpr (kSpansEnabled) {
      if (ring == nullptr) {
        return;
      }
      ring_ = ring;
      name_ = name;
      tenant_ = obs_internal::t_tenant;
      a_ = a;
      b_ = b;
      start_ = TraceNowMicros();
      parent_trace_ = obs_internal::t_trace_id;
      parent_span_ = obs_internal::t_span_id;
      trace_id_ =
          parent_trace_ != 0 ? parent_trace_ : obs_internal::NextTraceId();
      span_id_ = obs_internal::NextSpanId();
      obs_internal::t_trace_id = trace_id_;
      obs_internal::t_span_id = span_id_;
    } else {
      (void)ring;
      (void)name;
      (void)a;
      (void)b;
    }
  }

  ~ScopedSpan() {
    if constexpr (kSpansEnabled) {
      if (ring_ != nullptr) {
        End();
      }
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_a(uint64_t v) {
    if constexpr (kSpansEnabled) {
      a_ = v;
    } else {
      (void)v;
    }
  }
  void set_b(uint64_t v) {
    if constexpr (kSpansEnabled) {
      b_ = v;
    } else {
      (void)v;
    }
  }

  // Ends the span now — records it and restores the parent context — and
  // returns its dur_micros (0 when inactive or compiled out), so a caller
  // feeds its latency histogram the span's own measurement for one clock
  // read. The destructor then does nothing; a second Finish returns 0.
  uint64_t Finish() {
    if constexpr (kSpansEnabled) {
      if (ring_ != nullptr) {
        const uint64_t dur = End();
        ring_ = nullptr;
        return dur;
      }
    }
    return 0;
  }

  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

 private:
  // Record + restore parent context; returns the duration (span.cc).
  uint64_t End();

  SpanRing* ring_ = nullptr;
  const char* name_ = nullptr;
  const char* tenant_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_trace_ = 0;
  uint64_t parent_span_ = 0;
  uint64_t start_ = 0;
  uint64_t a_ = 0;
  uint64_t b_ = 0;
};

}  // namespace invfs

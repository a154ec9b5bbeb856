// Per-thread helpers shared by the observability primitives: a dense
// thread tag for records and log lines, the thread stripe that lets metric
// cells, span-ring heads, the reader gate and the read-only transaction
// registry give each live thread cache lines of its own, and the monotonic
// wall clock that spans are stamped with.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace invfs {

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
// never reused. Recorded in span records and the logging layer's line tags.
inline uint64_t ThreadTag() {
  const uint64_t tag = obs_internal::t_thread_tag;
  return tag != 0 ? tag : obs_internal::AssignThreadTag();
}

// Number of per-thread stripes in striped state (metric cells, span-ring
// heads, the reader gate, the read-only transaction registry).
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

}  // namespace invfs

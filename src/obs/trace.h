// Per-thread helpers shared by the observability primitives: a dense
// thread tag for records and log lines, the thread stripe that lets metric
// cells, span-ring heads, the reader gate and the read-only transaction
// registry give each live thread cache lines of its own, and the monotonic
// wall clock that spans are stamped with.
//
// The trace clock. On x86-64 with an invariant TSC (CPUID 0x80000007 EDX
// bit 8: the counter ticks at one constant rate in every P-, C- and T-state
// and is synchronized across cores), a reading is one inline rdtsc scaled by
// a fixed-point ratio. The first reading in the process calibrates that
// ratio once against steady_clock over a 1 ms window; every later reading is
// two loads, a rdtsc, a subtraction and a multiply, with no call and no
// static-init guard. Anywhere else the clock is steady_clock. The source is
// not configurable: a host whose TSC is not invariant fails the CPUID test
// and gets steady_clock, and on a host that passes it the two agree to well
// under 0.1% (test_obs.cc checks 0.5% over a 60 ms sleep), so there is
// nothing for a knob to choose.

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

namespace obs_internal {
// Fixed-point TSC ratio: microseconds = ((tsc - g_tsc_base) * g_tsc_mult)
// >> kTscShift. g_tsc_mult is 0 until the first reading calibrates it and
// stays 0 where the TSC is not usable; it is published (release) after
// g_tsc_base, so a reader that sees it nonzero also sees the base.
inline constexpr unsigned kTscShift = 32;
extern constinit std::atomic<uint64_t> g_tsc_mult;
extern constinit std::atomic<uint64_t> g_tsc_base;

// The reading whenever the TSC path is not taken: calibrates on the first
// call, then reads the TSC if calibration enabled it, else steady_clock.
uint64_t TraceNowMicrosSlow();

// steady_clock microseconds since this function's first call: the clock on
// hosts without an invariant TSC (test_obs.cc runs it directly).
uint64_t SteadyNowMicros();

inline uint64_t TscToMicros(uint64_t tsc, uint64_t mult) {
  const uint64_t base = g_tsc_base.load(std::memory_order_relaxed);
  // A core whose counter trails the calibrating core's reads 0, not ~2^64.
  const uint64_t ticks = tsc > base ? tsc - base : 0;
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(ticks) * mult) >> kTscShift);
}
}  // namespace obs_internal

// Monotonic wall-clock microseconds since the clock was first read.
inline uint64_t TraceNowMicros() {
#if defined(__x86_64__)
  const uint64_t mult = obs_internal::g_tsc_mult.load(std::memory_order_acquire);
  if (mult != 0) [[likely]] {
    return obs_internal::TscToMicros(__builtin_ia32_rdtsc(), mult);
  }
#endif
  return obs_internal::TraceNowMicrosSlow();
}

// Microseconds from reading `start` to reading `end`, 0 when end < start:
// a thread can migrate between its two readings, and two cores' counters
// may disagree by a few ticks.
inline uint64_t TraceMicrosBetween(uint64_t start, uint64_t end) {
  return end > start ? end - start : 0;
}

}  // namespace invfs

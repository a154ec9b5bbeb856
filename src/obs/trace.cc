#include "src/obs/trace.h"

#include <bit>
#include <chrono>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "src/util/mutex.h"

namespace invfs {

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

constinit std::atomic<uint64_t> g_tsc_mult{0};
constinit std::atomic<uint64_t> g_tsc_base{0};

namespace {

using SteadyClock = std::chrono::steady_clock;

#if defined(__x86_64__)
bool HasInvariantTsc() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000007u ||
      __get_cpuid(0x80000007u, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (edx & (1u << 8)) != 0;
}

// One (TSC, steady_clock) reading: the TSC value is the midpoint of two
// rdtscs that bracket the steady_clock read, and of three tries the
// tightest bracket wins, so a preemption between the reads cannot skew the
// calibration.
struct ClockPair {
  uint64_t tsc = 0;
  SteadyClock::time_point steady;
};

ClockPair ReadClockPair() {
  ClockPair best;
  uint64_t best_width = ~uint64_t{0};
  for (int i = 0; i < 3; ++i) {
    const uint64_t before = __builtin_ia32_rdtsc();
    const SteadyClock::time_point steady = SteadyClock::now();
    const uint64_t after = __builtin_ia32_rdtsc();
    if (after >= before && after - before < best_width) {
      best_width = after - before;
      best = {before + (after - before) / 2, steady};
    }
  }
  return best;
}

// Spins for 1 ms comparing the TSC against steady_clock and publishes the
// ratio. Leaves g_tsc_mult at 0 (steady_clock) without an invariant TSC or
// when the measured rate is implausible (under 1 MHz, or not advancing).
void CalibrateTsc() {
  if (!HasInvariantTsc()) {
    return;
  }
  constexpr std::chrono::microseconds kWindow{1000};
  const ClockPair start = ReadClockPair();
  ClockPair end = start;
  while (end.steady - start.steady < kWindow) {
    end = ReadClockPair();
  }
  const auto ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end.steady - start.steady)
          .count());
  const uint64_t ticks = end.tsc > start.tsc ? end.tsc - start.tsc : 0;
  if (ticks * 1000 < ns) {
    return;
  }
  // µs per tick = ns / (1000 * ticks), in 2^-kTscShift fixed point.
  const auto mult = static_cast<uint64_t>(
      (static_cast<unsigned __int128>(ns) << kTscShift) / (uint64_t{1000} * ticks));
  g_tsc_base.store(start.tsc, std::memory_order_relaxed);
  g_tsc_mult.store(mult, std::memory_order_release);
}
#endif

}  // namespace

uint64_t SteadyNowMicros() {
  static const SteadyClock::time_point start = SteadyClock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(SteadyClock::now() -
                                                            start)
          .count());
}

uint64_t TraceNowMicrosSlow() {
#if defined(__x86_64__)
  static const bool calibrated = (CalibrateTsc(), true);
  (void)calibrated;
  if (const uint64_t mult = g_tsc_mult.load(std::memory_order_acquire); mult != 0) {
    return TscToMicros(__builtin_ia32_rdtsc(), mult);
  }
#endif
  return SteadyNowMicros();
}

}  // namespace obs_internal

}  // namespace invfs

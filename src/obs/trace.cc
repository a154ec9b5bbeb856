#include "src/obs/trace.h"

#include <bit>
#include <chrono>

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

}  // namespace obs_internal

uint64_t TraceNowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

}  // namespace invfs

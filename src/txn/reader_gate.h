// ReaderGate: a tiny shared/exclusive gate that protects in-memory index
// structures from the one maintenance operation that rebuilds them in place.
//
// Snapshot-isolation readers probe B-trees without holding any table lock,
// so vacuum's index rebuild (which drops the index relation and replaces the
// BTree object wholesale) can no longer rely on its exclusive table lock to
// exclude them. Readers enter the gate shared for the duration of a single
// probe; vacuum (and catalog table migration, which rebinds a relation's
// device underneath the pool) enters exclusive for the duration of the swap.
//
// This is NOT the lock manager: entries are instantaneous relative to
// transaction lifetimes (a probe, not a scan), there is no deadlock
// potential (shared holders never block on anything while inside, and
// exclusive holders take the gate strictly after every table lock they
// need), and no fairness machinery is warranted at this granularity.
//
// Shared entry is on every snapshot read, so it touches no state shared
// with other readers: each thread stripe (ThreadStripe()) counts its readers
// in a cache line of its own. A reader bumps its count, then checks
// the exclusive flag; the exclusive side sets the flag, then waits for every
// count to drain. Both sides use sequentially consistent operations, so at
// least one of them sees the other. The mutex and condition variable only
// serve the slow paths: exclusive holders queueing for the flag, and readers
// that found it set.

#pragma once

#include <array>
#include <atomic>
#include <thread>

#include "src/obs/trace.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace invfs {

class ReaderGate {
 public:
  ReaderGate() = default;
  ReaderGate(const ReaderGate&) = delete;
  ReaderGate& operator=(const ReaderGate&) = delete;

  // Returns the stripe to pass to ExitShared.
  size_t EnterShared() EXCLUDES(mu_) {
    const size_t stripe = ThreadStripe();
    std::atomic<int64_t>& readers = readers_[stripe].n;
    for (;;) {
      readers.fetch_add(1);
      if (!exclusive_.load()) {
        return stripe;
      }
      readers.fetch_sub(1);
      MutexLock lock(mu_);
      while (exclusive_.load()) {
        cv_.Wait(mu_);
      }
    }
  }

  void ExitShared(size_t stripe) { readers_[stripe].n.fetch_sub(1); }

  void EnterExclusive() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      while (exclusive_.load()) {
        cv_.Wait(mu_);
      }
      exclusive_.store(true);
    }
    for (const Stripe& s : readers_) {
      while (s.n.load() > 0) {
        std::this_thread::yield();  // a probe holds no lock; it ends soon
      }
    }
  }

  void ExitExclusive() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    exclusive_.store(false);
    cv_.NotifyAll();
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> n{0};
  };

  Mutex mu_;
  CondVar cv_;
  std::array<Stripe, kThreadStripes> readers_{};
  std::atomic<bool> exclusive_{false};
};

// RAII shared entry (one probe).
class SharedGateLock {
 public:
  explicit SharedGateLock(ReaderGate& gate)
      : gate_(gate), stripe_(gate_.EnterShared()) {}
  ~SharedGateLock() { gate_.ExitShared(stripe_); }
  SharedGateLock(const SharedGateLock&) = delete;
  SharedGateLock& operator=(const SharedGateLock&) = delete;

 private:
  ReaderGate& gate_;
  const size_t stripe_;
};

// RAII exclusive entry (one structure swap).
class ExclusiveGateLock {
 public:
  explicit ExclusiveGateLock(ReaderGate& gate) : gate_(gate) {
    gate_.EnterExclusive();
  }
  ~ExclusiveGateLock() { gate_.ExitExclusive(); }
  ExclusiveGateLock(const ExclusiveGateLock&) = delete;
  ExclusiveGateLock& operator=(const ExclusiveGateLock&) = delete;

 private:
  ReaderGate& gate_;
};

}  // namespace invfs

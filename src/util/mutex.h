// Annotated mutex and condition-variable wrappers.
//
// The engine's locking vocabulary: every mutex in src/ is an invfs::Mutex
// (or, where snapshot readers share it, an invfs::SharedMutex), every scoped
// acquisition an invfs::MutexLock (ReaderMutexLock / WriterMutexLock), every
// condition wait an invfs::CondVar. The wrappers exist because clang's thread
// safety analysis tracks *annotated* capabilities, and std::mutex carries no
// annotations — locking discipline on a naked std::mutex is invisible to the
// analysis. invfs_lint enforces adoption: outside this header, naming
// std::mutex (or std::lock_guard / std::unique_lock /
// std::condition_variable) in src/ is a lint error.
//
// Cost: identical to the std types. Mutex is a std::mutex by another name;
// MutexLock compiles to the same code as std::lock_guard; CondVar::Wait
// adopts the already-held native handle, so there is no condition_variable_any
// indirection. SharedMutex is a pthread rwlock, one atomic update per shared
// acquisition and release, like a mutex's.

#pragma once

#include <pthread.h>

#include <condition_variable>
#include <mutex>

#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace invfs {

// A std::mutex the thread safety analysis can see.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scoped acquisition, the annotated std::lock_guard.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// A reader/writer latch the thread safety analysis can see: any number of
// shared holders, or one exclusive holder. The structures every snapshot read
// passes through (a B-tree, a buffer-pool shard, a page) take it shared on
// their read paths, so readers never wait for one another there, only for a
// writer. A reader that did wait would sleep on the futex, and the
// scheduler could wake it on a cold core or on another reader's core, where
// the two then time-share one core.
//
// Waiting writers hold off new shared holders (writer preference), so a
// steady stream of readers cannot starve a writer. A thread must therefore
// never take the same latch shared twice: a writer queued in between would
// deadlock it. An acquisition the rwlock refuses (a thread taking a latch it
// already holds exclusive, or too many shared holders) aborts rather than
// running unlocked.
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() {
    pthread_rwlockattr_t attr;
    INV_CHECK(pthread_rwlockattr_init(&attr) == 0);
#if defined(__GLIBC__)
    pthread_rwlockattr_setkind_np(&attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    INV_CHECK(pthread_rwlock_init(&rw_, &attr) == 0);
    pthread_rwlockattr_destroy(&attr);
  }
  ~SharedMutex() { pthread_rwlock_destroy(&rw_); }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { INV_CHECK(pthread_rwlock_wrlock(&rw_) == 0); }
  void unlock() RELEASE() { pthread_rwlock_unlock(&rw_); }
  void lock_shared() ACQUIRE_SHARED() {
    INV_CHECK(pthread_rwlock_rdlock(&rw_) == 0);
  }
  void unlock_shared() RELEASE_SHARED() { pthread_rwlock_unlock(&rw_); }

 private:
  pthread_rwlock_t rw_;
};

// RAII shared acquisition of a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII exclusive acquisition of a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to an invfs::Mutex at each wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, waits, and re-acquires `mu` before returning.
  // Spurious wakeups happen; callers loop on their predicate. The protocol
  // designates exactly one mutex per wait — holding any other lock across a
  // Wait is an invfs_lint error (rule cv-wait-extra-lock).
  void Wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the caller-held native mutex for the duration of the wait; the
    // unique_lock is released (not unlocked) afterwards so ownership stays
    // with the caller's scope, exactly as the annotation promises.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace invfs

// CrashPointRegistry: named crash points at the write boundaries of the
// storage stack.
//
// The paper's recovery claim ("uncommitted updates are invisible by
// construction") is a statement about every possible halt point, not about
// the handful a test happens to exercise. Crash points make the halt points
// first-class: the commit log, buffer pool, and access methods call
// CrashPointRegistry::Hit("name") immediately before the state transitions a
// crash could bisect, and the torture driver (src/fault/torture.h) enumerates
// every (point, occurrence) pair, halting the simulated process image there
// and verifying recovery.
//
// Cost when idle: one relaxed atomic load per Hit. The registry is inert
// unless a torture run arms it, so production paths pay nothing measurable
// (`invfs_bench overhead` measures this).
//
// Catalog of instrumented points (keep in sync with DESIGN.md):
//   commitlog.pre_flush   before the group-commit leader writes any log page
//   commitlog.mid_batch   between two log-page writes of one flush batch
//   commitlog.post_flush  after all log pages landed, before followers ack
//   buffer.write_back     before a dirty page is written to its device
//   buffer.eviction       before a dirty clock-sweep victim is written back
//   heap.insert           before a heap tuple insert mutates its page
//   btree.split           before a leaf split allocates the right sibling

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "src/util/mutex.h"

namespace invfs {

class CrashPointRegistry {
 public:
  static CrashPointRegistry& Instance();

  // Called by instrumented sites. Free (one relaxed load) when the registry
  // is neither recording nor armed.
  static void Hit(std::string_view point) {
    CrashPointRegistry& r = Instance();
    if (r.active_.load(std::memory_order_relaxed)) {
      r.HitSlow(point);
    }
  }

  // Recording mode: count hits per point (the torture driver's first pass
  // discovers how often each point fires under a given workload).
  void StartRecording();
  // Stop recording and return hits per point since StartRecording.
  std::map<std::string, uint64_t> StopRecording();

  // Arm one crash: the `occurrence`-th (1-based) subsequent hit of `point`
  // runs `on_crash` exactly once. Replaces any previous arming and resets the
  // fired flag. The callback runs at the hit site (typically it halts a
  // FaultInjector); it must not re-enter the registry.
  void Arm(std::string point, uint64_t occurrence, std::function<void()> on_crash);
  // Disarm and stop recording. Safe to call at any time.
  void Disarm();

  // True once the armed callback has run.
  bool fired() const;

 private:
  CrashPointRegistry() = default;
  void HitSlow(std::string_view point) EXCLUDES(mu_);
  void UpdateActiveLocked() REQUIRES(mu_);

  std::atomic<bool> active_{false};
  mutable Mutex mu_;
  bool recording_ GUARDED_BY(mu_) = false;
  std::map<std::string, uint64_t> counts_ GUARDED_BY(mu_);
  std::string armed_point_ GUARDED_BY(mu_);
  uint64_t armed_occurrence_ GUARDED_BY(mu_) = 0;
  uint64_t armed_hits_ GUARDED_BY(mu_) = 0;
  std::function<void()> on_crash_ GUARDED_BY(mu_);
  bool fired_ GUARDED_BY(mu_) = false;
};

}  // namespace invfs

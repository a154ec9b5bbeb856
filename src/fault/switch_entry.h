// SwitchEntry: the one DeviceManager wrapper each device-switch entry is, and
// the FaultInjector that can drive it.
//
// The switch registers every concrete device wrapped in exactly one
// SwitchEntry; everything above the switch is unchanged (the bdevsw-style
// location transparency). Per physical I/O attempt, retries included, the
// entry takes the injector's verdict, opens a `device.{read,write}.<name>`
// span and counts the attempt in `device.{reads,writes,read_bytes,
// write_bytes}` and the simulated-time `device.{read,write}_us` histograms
// (SimClock::Peek deltas, so the jukebox's platter loads show exactly as the
// cost model charges them). Then the error policy:
//
//   * a kTransientIo failure is retried up to kMaxRetries times with capped
//     exponential backoff charged to the SimClock, counting `device.retries`;
//     the retried attempts nest under one `device.retry` span;
//   * a permanent error on a write, create, drop or sync — or a transient one
//     that survives every retry — trips the entry into a sticky read-only
//     state: `device.permanent_errors` and a `device.read_only_trip` span
//     record the trip once, and every later write, create or drop is refused
//     with kReadOnlyDevice before it counts, takes an injector position or
//     opens a span. Reads keep flowing, so recovery, queries and time travel
//     outlive a dying write path; read errors never trip the entry.
//
// Create, drop and sync are uninstrumented and fail while the injector is
// halted. Code that needs the concrete device downcasts Underlying().
//
// The FaultInjector, shared by all entries of a Database (so "crash at device
// write #37" means the whole switch), fails the Nth read or write with
// kTransientIo or kIoError, persists a torn (sector subset) or bit-flipped
// page while reporting success, or halts: every later operation through any
// of its entries fails, freezing the block stores at a power cut's image.
// Positions count from the last Arm call, so bootstrap traffic is uncounted.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/device/device.h"
#include "src/obs/metrics.h"
#include "src/sim/sim_clock.h"
#include "src/util/mutex.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace invfs {

// One scheduled fault. `at` is 1-based and counts matching operations
// (reads or writes, per `op`) arriving at any entry of the injector since the
// last Arm call.
struct FaultSpec {
  enum class Kind : uint8_t {
    kTransientError,  // fail with kTransientIo; retry succeeds
    kPermanentError,  // fail with kIoError; every retry fails too
    kTornWrite,       // persist a sector subset of the page, report success
    kBitFlip,         // persist with one flipped bit, report success
    kCrash,           // halt the simulated process image at this write
  };
  enum class Op : uint8_t { kRead, kWrite };

  Kind kind = Kind::kTransientError;
  Op op = Op::kWrite;
  uint64_t at = 1;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : rng_(seed) {}

  // Replace the armed schedule and restart the relative op counters.
  void Arm(std::vector<FaultSpec> specs);
  void ArmOne(FaultSpec spec) { Arm(std::vector<FaultSpec>{spec}); }
  // Clear the schedule (counters keep running; totals remain readable).
  void Disarm();

  // Halt now: every later operation through any attached entry fails.
  // Crash points call this from their armed callback; kCrash specs call it
  // internally.
  void Crash();
  bool crashed() const {
    return (flags_.load(std::memory_order_acquire) & kCrashedFlag) != 0;
  }

  // Total operations observed since construction (not reset by Arm).
  uint64_t total_reads() const;
  uint64_t total_writes() const;
  // Operations observed since the last Arm call.
  uint64_t reads_since_arm() const;
  uint64_t writes_since_arm() const;
  // Faults delivered (errors returned + silent corruptions applied).
  uint64_t faults_fired() const;

 private:
  friend class SwitchEntry;

  // The fate of one read/write attempt: nullopt to pass, else the kind of
  // the fault that fires (kCrash once halted). The verdict carries its own
  // corruption kind, so concurrent corrupt verdicts cannot swap specs.
  using Verdict = std::optional<FaultSpec::Kind>;
  // Unarmed fast path: armed and crashed state share one atomic flags word,
  // so when nothing is scheduled the whole decision is a single acquire load
  // plus a lossy stat bump — neither mu_ nor a locked read-modify-write is
  // touched on the production-shaped path (`invfs_bench overhead` measures
  // the entry's unarmed overhead). A kCrash verdict subsumes a separate
  // crashed() pre-check in the block paths.
  Verdict OnOp(FaultSpec::Op op) EXCLUDES(mu_) {
    const uint8_t flags = flags_.load(std::memory_order_acquire);
    if (flags == 0) [[likely]] {
      BumpStat(op == FaultSpec::Op::kRead ? reads_ : writes_);
      return std::nullopt;
    }
    if ((flags & kCrashedFlag) != 0) {
      return FaultSpec::Kind::kCrash;
    }
    return OnOpArmed(op);
  }
  // Stat totals are deliberately a plain load+store, not fetch_add: an
  // uncontended locked RMW costs an order of magnitude more than the rest of
  // the fast path combined, and the totals are reporting-only (concurrent
  // unarmed bumps may drop a count). Fault *positioning* never relies on
  // them: while any spec is unconsumed the armed flag routes every operation
  // through OnOpArmed, whose position counters live under mu_ and are exact.
  static void BumpStat(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  Verdict OnOpArmed(FaultSpec::Op op) EXCLUDES(mu_);
  // Produce the corrupted image for a kTornWrite or kBitFlip verdict.
  // `old_page` is the pre-write content (zero-filled when the write extends).
  std::vector<std::byte> CorruptImage(FaultSpec::Kind kind,
                                      std::span<const std::byte> data,
                                      std::span<const std::byte> old_page)
      EXCLUDES(mu_);

  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  std::vector<FaultSpec> specs_ GUARDED_BY(mu_);
  std::vector<bool> consumed_ GUARDED_BY(mu_);
  // Stat totals (lossy under concurrency, see BumpStat); atomics so the
  // unarmed fast path can bump them without mu_.
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  // Exact 1-based positions of operations since the last Arm call, counted
  // only while armed (the armed flag routes every op through OnOpArmed, so
  // no op escapes the count until the schedule is spent). Spec matching uses
  // these, never the lossy totals.
  uint64_t pos_reads_ GUARDED_BY(mu_) = 0;
  uint64_t pos_writes_ GUARDED_BY(mu_) = 0;
  uint64_t arm_base_reads_ GUARDED_BY(mu_) = 0;
  uint64_t arm_base_writes_ GUARDED_BY(mu_) = 0;
  uint64_t faults_fired_ GUARDED_BY(mu_) = 0;
  // kArmedFlag is set while any unconsumed spec remains armed (cleared by
  // Disarm and by OnOpArmed once the last spec fires); kCrashedFlag is sticky
  // once a halt triggers.
  static constexpr uint8_t kArmedFlag = 1;
  static constexpr uint8_t kCrashedFlag = 2;
  std::atomic<uint8_t> flags_{0};
};

class SwitchEntry final : public DeviceManager {
 public:
  // The error policy: retries after the initial attempt, and the backoff
  // before the first retry, doubling per retry up to the cap.
  static constexpr int kMaxRetries = 4;
  static constexpr SimMicros kBackoffUs = 100;
  static constexpr SimMicros kMaxBackoffUs = 10000;

  // Wraps `inner`, publishing device.* metrics labeled with inner->name().
  // `injector` (caller-owned, shared across a Database's entries) may be
  // null: the entry then injects nothing.
  SwitchEntry(std::unique_ptr<DeviceManager> inner, SimClock* clock,
              MetricsRegistry* metrics, FaultInjector* injector = nullptr);

  std::string_view name() const override { return inner_->name(); }

  Status CreateRelation(Oid rel) override;
  Status DropRelation(Oid rel) override;
  bool RelationExists(Oid rel) const override {
    return inner_->RelationExists(rel);
  }
  Result<uint32_t> NumBlocks(Oid rel) const override {
    return inner_->NumBlocks(rel);
  }
  Status ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) override;
  Status WriteBlock(Oid rel, uint32_t block,
                    std::span<const std::byte> data) override;
  Status Sync() override;

  DeviceManager* Underlying() override { return inner_->Underlying(); }

  // True once a permanent write failure tripped the entry.
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

 private:
  // Per-direction instruments: device.{reads,read_bytes,read_us} and the
  // device.read.<name> span name, or the write equivalents.
  struct Meter {
    Counter* ops;
    Counter* bytes;
    Histogram* us;
    const char* span_name;
  };
  static Meter MakeMeter(MetricsRegistry* metrics, const std::string& op,
                         std::string_view label);

  // One instrumented physical attempt: the injector's verdict, then the
  // inner I/O unless the verdict fails it.
  Status ReadAttempt(Oid rel, uint32_t block, std::span<std::byte> out);
  Status WriteAttempt(Oid rel, uint32_t block, std::span<const std::byte> data);
  template <typename Io>
  Status Metered(const Meter& meter, Oid rel, uint32_t block, size_t bytes,
                 Io&& io);
  // Persist a torn or bit-flipped image of `data`, reporting success.
  Status WriteCorrupted(FaultSpec::Kind kind, Oid rel, uint32_t block,
                        std::span<const std::byte> data);
  // The status an injected error (or halt) returns for an `op` attempt.
  Status InjectedError(FaultSpec::Kind kind, const char* op) const;
  Status HaltedError() const;
  bool halted() const { return injector_ != nullptr && injector_->crashed(); }
  // Run `attempt`, retry transients, and trip read-only on a failure that
  // survives: the write, create, drop and sync policy.
  template <typename Attempt>
  Status WithWritePolicy(Attempt&& attempt);
  // Create, drop and sync: uninstrumented, and failing while halted.
  template <typename Op>
  Status Control(Op&& op);
  // Cold continuation of the retry loop: `first` is the already-failed
  // status of the initial attempt.
  template <typename Attempt>
  Status RetryTail(Status first, Attempt&& attempt);
  Status ReadOnlyError() const;
  // Trip read-only (once) and convert `cause` into the kReadOnlyDevice
  // status writers see from now on.
  Status TripReadOnly(const Status& cause);

  std::unique_ptr<DeviceManager> inner_;
  SimClock* clock_;
  FaultInjector* injector_;
  std::atomic<bool> read_only_{false};
  SpanRing* spans_;
  Meter read_;
  Meter write_;
  Counter* retries_;
  Counter* permanent_errors_;
};

}  // namespace invfs

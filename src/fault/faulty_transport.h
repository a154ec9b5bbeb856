// FaultyTransport: a deterministic fault-injecting Transport decorator.
//
// The network is the one fault domain the device torture stack cannot reach:
// frames vanish in either direction, arrive twice, arrive cut short, or the
// connection dies under the client. This decorator injects exactly those
// failures against a seeded Rng and the shared SimClock, mirroring the device
// FaultInjector's spec style (src/fault/switch_entry.h): a schedule of 1-based
// occurrence counts armed per replay for the torture sweeps, plus a
// probabilistic rate mode for the load observatory and benchmarks.
//
// Fault semantics, in terms of the Transport status contract (src/net/rpc.h):
//
//   * kDropRequest      — the request never reaches the server. The inner
//     transport is not invoked; the client's whole timeout elapses on the
//     sim clock; RoundTrip returns kTransientIo.
//   * kDropResponse     — the server executes (the inner round trip runs in
//     full, charging service + wire time) but the reply is lost: the clock
//     advances to the timeout deadline and RoundTrip returns kTransientIo.
//     This is the half that makes duplicate-request caching load-bearing —
//     the retried op was already applied.
//   * kDuplicateRequest — the frame is delivered twice back to back (a
//     retransmit racing the original). Both deliveries execute through the
//     inner transport; the caller sees the second response. Without the
//     server's DRC a non-idempotent op would apply twice.
//   * kTruncateResponse — the reply arrives cut to a seeded prefix (possibly
//     empty). Exercises the client's trust boundary: decode must fail
//     crisply, never crash or hang.
//   * kReset            — the connection dies before delivery: the inner
//     transport is not invoked, a small tear-down latency is charged, and
//     RoundTrip returns kIoError ("connection reset"). The client's epoch
//     bump on retry is what lets the server abort the orphaned session.
//   * kDelay            — the frame is delivered intact after `delay_us` of
//     extra latency.
//
// Determinism: scheduled faults fire on exact 1-based exchange counts since
// the last Arm (bootstrap traffic uncounted, as for FaultInjector); rate-mode
// draws come from the seeded Rng only. Same seed + same schedule + same
// workload = the same faults at the same sim times.

#pragma once

#include <cstdint>
#include <vector>

#include "src/net/rpc.h"
#include "src/sim/sim_clock.h"
#include "src/util/mutex.h"
#include "src/util/random.h"

namespace invfs {

// One scheduled network fault. `at` is 1-based and counts RoundTrip calls
// arriving at this transport since the last Arm call.
struct NetFaultSpec {
  enum class Kind : uint8_t {
    kDropRequest,
    kDropResponse,
    kDuplicateRequest,
    kTruncateResponse,
    kReset,
    kDelay,
  };

  Kind kind = Kind::kDropRequest;
  uint64_t at = 1;
  SimMicros delay_us = 0;  // kDelay only
};

const char* NetFaultKindName(NetFaultSpec::Kind kind);

// Independent per-exchange fault probabilities for rate mode. Draws are made
// in field order; the first that fires wins the exchange.
struct NetFaultRates {
  double drop_request = 0.0;
  double drop_response = 0.0;
  double duplicate = 0.0;
  double truncate = 0.0;
  double reset = 0.0;

  bool any() const {
    return drop_request > 0 || drop_response > 0 || duplicate > 0 ||
           truncate > 0 || reset > 0;
  }
};

class FaultyTransport final : public Transport {
 public:
  // Wraps `inner`; lost time is charged to `clock`; all randomness (truncate
  // prefix lengths, rate-mode draws) comes from `seed`.
  FaultyTransport(Transport* inner, SimClock* clock, uint64_t seed = 0,
                  MetricsRegistry* metrics = nullptr);

  // Replace the armed schedule and restart the relative exchange counter.
  void Arm(std::vector<NetFaultSpec> specs);
  void ArmOne(NetFaultSpec spec) { Arm(std::vector<NetFaultSpec>{spec}); }
  // Probabilistic mode (load/bench): every exchange draws against `rates`.
  // Clears any scheduled specs.
  void ArmRates(NetFaultRates rates);
  // Clear schedule and rates (the exchange counter keeps running).
  void Disarm();

  // Exchanges observed since construction / since the last Arm[Rates] call.
  uint64_t total_exchanges() const;
  uint64_t exchanges_since_arm() const;
  uint64_t faults_fired() const;

  Result<std::vector<std::byte>> RoundTrip(std::span<const std::byte> request,
                                           SimMicros timeout_us) override;

 private:
  struct Verdict {
    bool faulted = false;
    NetFaultSpec spec;
  };
  Verdict Decide() EXCLUDES(mu_);
  uint64_t TruncatedLength(size_t full) EXCLUDES(mu_);

  // When a lost exchange must cost the client its full deadline, advance the
  // clock to `deadline` (service time already charged may have passed it).
  void ChargeTimeout(SimMicros started, SimMicros timeout_us);

  Transport* inner_;
  SimClock* clock_;
  Counter* injected_ = nullptr;  // rpc.net.faults_injected

  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  std::vector<NetFaultSpec> specs_ GUARDED_BY(mu_);
  std::vector<bool> consumed_ GUARDED_BY(mu_);
  NetFaultRates rates_ GUARDED_BY(mu_);
  bool rates_armed_ GUARDED_BY(mu_) = false;
  uint64_t exchanges_ GUARDED_BY(mu_) = 0;
  uint64_t arm_base_ GUARDED_BY(mu_) = 0;
  uint64_t faults_fired_ GUARDED_BY(mu_) = 0;
};

}  // namespace invfs

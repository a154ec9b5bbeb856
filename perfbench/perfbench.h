// Shared pieces of the repository benchmark program: the benchmark's own
// spans, the engine counters sampled around a timed phase, and the per-pass
// result every workload fills in. See README.md for the workloads.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/worlds.h"

namespace perfbench {

// Wall nanoseconds on the steady clock.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Wall time scaled to a reference host speed.
//
// The shared host this benchmark was written on swings in speed by up to
// ~1.7x, in stretches of a fraction of a second to many seconds, and a whole
// 15 s run can sit in the slow state; CPU time slows just as much, so it is
// not preemption. Raw wall metrics therefore spread past any useful bound.
// A Stopwatch splits a timed stretch into segments of about kSegmentNs, runs
// a fixed probe kernel (fill an 8 KB payload, copy it and compare the copy,
// the same kind of work as a chunk read) at every segment boundary, and
// scales the segment's wall time, and every op latency recorded in it, by
// the probe's nominal time over the median of the last kProbeWindow probes,
// the one that closes the segment included. The median keeps one odd probe
// from rescaling a whole segment, which would widen the latency tail.
// A change to the engine moves the scaled times; a change in the host's
// speed moves the probe as well and cancels out. The probe's own time is not
// counted.
struct Probe {
  // The probe copies into a buffer of this size, about the memory the
  // workload sweeps, so it feels the same cache level's share of the swing.
  size_t bytes = invfs::kInvChunkSize;
  // Its time on the 4-core development VM, so that scaled times read close
  // to that host's raw wall time. Only a unit: any value ranks two builds of
  // the engine the same way.
  uint64_t nominal_ns = 7'500;
};

class Stopwatch {
 public:
  static constexpr uint64_t kSegmentNs = 2'000'000;
  static constexpr size_t kProbeWindow = 5;

  // Probes the host and starts timing. Ops append their raw latencies to
  // `latency_ns`, if given, which the Stopwatch scales segment by segment.
  explicit Stopwatch(const Probe& probe,
                     std::vector<uint32_t>* latency_ns = nullptr);

  // Call between ops: once kSegmentNs have passed, closes the segment.
  void Tick() {
    if (NowNs() - segment_start_ >= kSegmentNs) {
      CloseSegment();
    }
  }
  // Closes the last segment; returns the scaled seconds of the stretch.
  double Stop();
  // Unscaled wall seconds of the stretch, probes excluded.
  double raw_s() const { return raw_ns_ / 1e9; }

 private:
  void TakeProbe();
  void CloseSegment();

  Probe probe_;
  std::vector<uint32_t>* latency_ns_;
  size_t first_unscaled_ = 0;
  std::array<uint64_t, kProbeWindow> probes_{};  // a ring of the last probes
  size_t probes_taken_ = 0;
  uint64_t segment_start_ = 0;
  double scaled_ns_ = 0;
  double raw_ns_ = 0;
};

// The public calls the benchmark wraps in a span of its own.
enum SpanKind {
  kInvRead,       // InvSession::p_read
  kInvWrite,      // InvSession::p_write
  kInvCreat,      // InvSession::p_creat
  kInvCommit,     // InvSession::p_commit
  kInvUnlink,     // InvSession::unlink
  kNetCall,       // any RemoteFileClient call
  kNetRoundTrip,  // Transport::RoundTrip under the client
  kNumSpanKinds,
};

// The benchmark's own spans, aggregated per kind in memory: a count and a
// wall-time sum. Off (the default) records nothing, so untraced passes pay
// one branch per wrapped call.
struct Tracer {
  bool on = false;
  std::array<uint64_t, kNumSpanKinds> count{};
  std::array<uint64_t, kNumSpanKinds> ns{};

  void Merge(const Tracer& o) {
    for (size_t i = 0; i < kNumSpanKinds; ++i) {
      count[i] += o.count[i];
      ns[i] += o.ns[i];
    }
  }
  double MeanUs(SpanKind k) const {
    return count[k] == 0 ? 0.0 : static_cast<double>(ns[k]) / 1e3 /
                                     static_cast<double>(count[k]);
  }
};

// Runs `fn` inside a span of kind `k` when tracing is on.
template <typename Fn>
auto Span(Tracer& t, SpanKind k, Fn&& fn) {
  if (!t.on) {
    return fn();
  }
  const uint64_t start = NowNs();
  auto result = fn();
  ++t.count[k];
  t.ns[k] += NowNs() - start;
  return result;
}

// Engine counters read through the components' public accessors. A timed
// phase contributes the difference of two samples.
enum CountKind {
  kBufferHits,
  kBufferMisses,
  kEvictions,
  kWriteBacks,
  kLogPageWrites,
  kCommits,
  kReadOnlyBegins,
  kLockAcquisitions,
  kLockWaits,
  kDiskReads,
  kDiskWrites,
  kDiskSeeks,
  kDeviceWriteBytes,  // every device
  kDeviceSimUs,       // device.{read,write}_us sums, every device
  kSpans,             // engine SpanRing records
  kNetMessages,
  kNetBytes,
  kNumCountKinds,
};

struct Counts {
  std::array<uint64_t, kNumCountKinds> v{};

  uint64_t operator[](CountKind k) const { return v[k]; }
  Counts& operator+=(const Counts& o) {
    for (size_t i = 0; i < kNumCountKinds; ++i) {
      v[i] += o.v[i];
    }
    return *this;
  }
  Counts operator-(const Counts& o) const {
    Counts d;
    for (size_t i = 0; i < kNumCountKinds; ++i) {
      d.v[i] = v[i] - o.v[i];
    }
    return d;
  }
};

// Samples `db`'s counters, plus `net`'s totals when given.
Counts SampleCounts(invfs::Database& db, const invfs::NetModel* net);

// One pass: a fresh world, its set-up, one timed phase (paper_table3 times
// nine windows), and the checks that follow it.
struct PassResult {
  double setup_s = 0;     // scaled, as every wall time below unless raw
  double wall_s = 0;      // timed phase
  double raw_wall_s = 0;  // timed phase, unscaled
  double sim_s = 0;       // timed phase, SimClock seconds
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  std::vector<uint32_t> latency_ns;  // one per op, scaled
  Counts counts;                     // timed-phase deltas
  Tracer spans;
  double ro_txn_us = 0;              // traced passes only
  double space_amp = 0;
  uint64_t inputs_digest = 0;        // hash of the generated inputs
  std::vector<double> table3_sim_s;  // paper_table3: sim seconds per test
  std::string first_error;

  void Fail(const std::string& what) {
    if (failed++ == 0) {
      first_error = what;
    }
  }
};

struct PassConfig {
  uint64_t seed = 0;
  int threads = 1;
  bool traced = false;
  Probe probe;  // the Stopwatch's
};

// The four workloads; each builds its own world(s) and never throws.
PassResult PaperTable3Pass(const PassConfig& config);
PassResult HotReadPass(const PassConfig& config);
PassResult SmallTxnPass(const PassConfig& config);
PassResult ParallelReadPass(const PassConfig& config);

// Table 3's tests in the order PaperTable3Pass runs them.
inline constexpr std::array<const char*, 9> kTable3Tests = {
    "create_25mb",         "read_single_byte",    "write_single_byte",
    "read_1mb_single",     "read_1mb_seq_pages",  "read_1mb_rand_pages",
    "write_1mb_single",    "write_1mb_seq_pages", "write_1mb_rand_pages"};

}  // namespace perfbench

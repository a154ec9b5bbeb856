// Time-series sampler: periodic snapshots of the metrics registry into a
// bounded ring, so a run produces rate-over-time curves instead of a single
// end-of-run aggregate.
//
// A sample captures, for every metric registered at that instant:
//   * counters   — the delta since the previous sample (a rate, once divided
//                  by the window), not the cumulative total;
//   * gauges     — the point-in-time value;
//   * histograms — the observation count delta plus p50/p99/p999 computed
//                  from the *bucket deltas*, i.e. windowed percentiles: the
//                  latency distribution of the ops that completed inside
//                  this window, unpolluted by the whole run's history. This
//                  is what makes "p99 per tenant over time" a real curve —
//                  cumulative percentiles flatten into their own average.
//
// Time base is the SimClock: the sampler has no thread of its own. Whoever
// owns the run loop (the load driver, a benchmark, a test) calls Tick(now)
// at convenient points and the sampler decides whether a sample is due —
// the same inversion of control every other SimClock consumer uses. Ticks
// take the sampler mutex and a registry snapshot; they are nowhere near any
// hot path.
//
// The ring holds the newest kCapacity points (a sample emits one
// point per metric), exposed as the `invfs_timeseries` virtual relation and
// `invfs_stats --timeseries`.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/mutex.h"

namespace invfs {

// One metric's contribution to one sample.
struct TimeSeriesPoint {
  uint64_t sample = 0;   // 1-based sample index
  uint64_t at_micros = 0;  // sim micros when the sample was captured
  std::string name;
  std::string label;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;   // counter delta over the window / gauge point value
  uint64_t count = 0;  // histogram observations in the window (0 otherwise)
  uint64_t p50 = 0;    // windowed percentiles (histograms only)
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

class TimeSeriesSampler {
 public:
  static constexpr uint64_t kIntervalMicros = 100'000;  // 100 sim ms
  static constexpr size_t kCapacity = 4096;             // points

  explicit TimeSeriesSampler(MetricsRegistry* registry) : registry_(registry) {}

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  uint64_t interval_micros() const { return kIntervalMicros; }

  // Capture a sample if at least one interval has elapsed since the last
  // one (the first tick always samples, establishing the baseline window).
  // Returns true when a sample was captured.
  bool Tick(uint64_t now_micros) EXCLUDES(mu_);

  // Capture unconditionally (run epilogues want a final partial window).
  void Sample(uint64_t now_micros) EXCLUDES(mu_);

  // Points currently held, oldest first. One point per (sample, metric).
  std::vector<TimeSeriesPoint> Snapshot() const EXCLUDES(mu_);

  // Samples captured over the sampler's lifetime (points may have been
  // evicted; this keeps counting). Lock-free.
  uint64_t SamplesTaken() const {
    return samples_.load(std::memory_order_relaxed);
  }

  // Human-readable table / JSON array of Snapshot().
  std::string DumpText() const;
  std::string DumpJson() const;

 private:
  void SampleLocked(uint64_t now_micros) REQUIRES(mu_);

  mutable Mutex mu_;
  MetricsRegistry* registry_;
  std::atomic<uint64_t> samples_{0};  // written under mu_, read lock-free
  uint64_t next_due_ GUARDED_BY(mu_) = 0;
  // Previous cumulative snapshot per (name, label): the subtrahend for
  // counter and histogram-bucket deltas.
  std::map<std::pair<std::string, std::string>, MetricSample> last_
      GUARDED_BY(mu_);
  std::deque<TimeSeriesPoint> ring_ GUARDED_BY(mu_);
};

}  // namespace invfs

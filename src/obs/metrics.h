// Low-overhead metrics: monotonic counters, gauges, and fixed-bucket latency
// histograms, collected into a registry that the query layer exposes as the
// `invfs_stats` virtual relation.
//
// The paper's signature argument is that building the file system inside the
// database buys ad-hoc queries over namespace and metadata for free; this
// module extends the same idea to the engine's own internals, the way
// POSTGRES' descendants grew pg_stat_* views. Requirements, in order:
//
//   1. The hot paths PR 3 parallelized (buffer hits, group commit, snapshot
//      reads) must not re-serialize on instrumentation. Counters and
//      histograms are striped by ThreadStripe() into cache-line-padded
//      cells; a live thread owns its stripe outright, so an increment is a
//      plain relaxed load+store — no locked RMW, no shared cache line; reads
//      sum the cells. No mutex anywhere near an increment.
//   2. Instrumentation must be compilable out: -DINVFS_NO_METRICS turns every
//      Add/Set/Observe/Record into a no-op (the registry and its readers stay
//      so tooling keeps linking). scripts/check.sh's `metrics` leg measures
//      the difference on the buffer-hit path and gates it at ~5%.
//   3. Registration is the cold path: GetCounter/GetGauge/GetHistogram take a
//      mutex and return a stable pointer the component caches at construction.
//
// One registry instance per Database (so two databases in one process do not
// mix their numbers), plus a process-wide Default() registry for code with no
// Database in reach (the logging layer). Snapshots merge both when queried
// through `invfs_stats`.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/span.h"
#include "src/obs/trace.h"
#include "src/util/mutex.h"

namespace invfs {

class TimeSeriesSampler;

#ifdef INVFS_NO_METRICS
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

// Monotonic counter, striped over kThreadStripes cache-line-padded cells
// indexed by ThreadStripe(): live threads write cells of their own, and a
// thread's cell passes to a later thread when it exits. Value() sums the
// cells: cheap enough for snapshots and accessors, not meant for
// per-operation reads.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if constexpr (kMetricsEnabled) {
      const uint32_t stripe = ThreadStripe();
      obs_internal::AddToStripe(cells_[stripe].v, stripe, n);
    } else {
      (void)n;
    }
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kThreadStripes> cells_{};
};

// Point-in-time signed value (queue depths, open handles).
class Gauge {
 public:
  void Set(int64_t v) {
    if constexpr (kMetricsEnabled) {
      v_.store(v, std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }
  void Add(int64_t d) {
    if constexpr (kMetricsEnabled) {
      v_.fetch_add(d, std::memory_order_relaxed);
    } else {
      (void)d;
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Latency/size histogram with fixed power-of-two buckets: bucket 0 counts
// observations of 0, bucket i >= 1 counts values in [2^(i-1), 2^i), and the
// last bucket absorbs everything larger. Fixed buckets mean zero allocation;
// buckets, count and sum are striped like Counter, so an observation writes
// only the calling thread's own stripe.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Observe(uint64_t v) {
    if constexpr (kMetricsEnabled) {
      const uint32_t stripe = ThreadStripe();
      Stripe& s = stripes_[stripe];
      obs_internal::AddToStripe(s.buckets[BucketOf(v)], stripe, 1);
      obs_internal::AddToStripe(s.count, stripe, 1);
      obs_internal::AddToStripe(s.sum, stripe, v);
    } else {
      (void)v;
    }
  }

  uint64_t Count() const { return SumOver(&Stripe::count); }
  uint64_t Sum() const { return SumOver(&Stripe::sum); }

  // Value at quantile `p` in (0, 1], e.g. 0.5 / 0.99 / 0.999. Reported as the
  // inclusive upper bound of the bucket holding the target observation — a
  // conservative estimate whose error is bounded by the power-of-two bucket
  // width. Returns 0 when nothing has been observed.
  uint64_t Percentile(double p) const;

  // Percentile over an explicit bucket array (same semantics as Percentile).
  // Static so consumers holding bucket *deltas* — the timeseries sampler's
  // per-window distributions — reuse the one implementation.
  static uint64_t PercentileOf(const std::array<uint64_t, kBuckets>& buckets,
                               double p);


  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }
  std::array<uint64_t, kBuckets> Buckets() const {
    std::array<uint64_t, kBuckets> out{};
    for (const Stripe& s : stripes_) {
      for (size_t i = 0; i < kBuckets; ++i) {
        out[i] += s.buckets[i].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  static size_t BucketOf(uint64_t v) {
    if (v == 0) {
      return 0;
    }
    size_t b = 0;
    while (v != 0 && b + 1 < kBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  // Inclusive upper bound of bucket `i` (for rendering).
  static uint64_t BucketUpper(size_t i) {
    return i == 0 ? 0 : (i >= 63 ? UINT64_MAX : (uint64_t{1} << i) - 1);
  }

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };

  uint64_t SumOver(std::atomic<uint64_t> Stripe::*field) const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += (s.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  std::array<Stripe, kThreadStripes> stripes_{};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

// One metric's state at snapshot time.
struct MetricSample {
  std::string name;
  std::string label;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;   // counter total / gauge value / histogram count
  uint64_t count = 0;  // histogram observation count (0 otherwise)
  uint64_t sum = 0;    // histogram observation sum (0 otherwise)
  uint64_t p50 = 0;    // histogram percentiles (0 otherwise)
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets{};  // histogram only
};

class MetricsRegistry {
 public:
  // Ctor and dtor out of line: timeseries_ points at an incomplete type here.
  explicit MetricsRegistry(size_t trace_capacity = TraceRing::kDefaultCapacity,
                           size_t span_capacity = SpanRing::kDefaultCapacity);
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; the returned pointer is stable for the registry's
  // lifetime, so components look up once and cache. `label` distinguishes
  // instances of the same metric (device name, log level, shard id).
  Counter* GetCounter(std::string_view name, std::string_view label = "")
      EXCLUDES(mu_);
  Gauge* GetGauge(std::string_view name, std::string_view label = "")
      EXCLUDES(mu_);
  Histogram* GetHistogram(std::string_view name, std::string_view label = "")
      EXCLUDES(mu_);

  TraceRing& trace() { return trace_; }
  const TraceRing& trace() const { return trace_; }

  SpanRing& spans() { return spans_; }
  const SpanRing& spans() const { return spans_; }

  // The registry's time-series sampler (src/obs/timeseries.h), created
  // lazily with defaults on first use. Call ConfigureTimeseries before the
  // first timeseries() to override interval/capacity — reconfiguring after
  // points exist would silently change window semantics, so a sampler that
  // has already sampled is left alone.
  TimeSeriesSampler& timeseries() EXCLUDES(mu_);
  void ConfigureTimeseries(uint64_t interval_micros, size_t capacity)
      EXCLUDES(mu_);

  // All registered metrics, sorted by (name, label).
  std::vector<MetricSample> Snapshot() const EXCLUDES(mu_);

  // Human-readable table / machine-readable JSON object of Snapshot().
  std::string DumpText() const;
  std::string DumpJson() const;

  // Process-wide registry for code with no Database in scope (logging).
  static MetricsRegistry& Default();

 private:
  using Key = std::pair<std::string, std::string>;  // (name, label)

  mutable Mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mu_);
  std::unique_ptr<TimeSeriesSampler> timeseries_ GUARDED_BY(mu_);
  TraceRing trace_;
  SpanRing spans_;
};

}  // namespace invfs

#include "src/obs/timeseries.h"

#include <cstdio>

namespace invfs {

bool TimeSeriesSampler::Tick(uint64_t now_micros) {
  MutexLock lock(mu_);
  if (samples_.load(std::memory_order_relaxed) != 0 && now_micros < next_due_) {
    return false;
  }
  SampleLocked(now_micros);
  return true;
}

void TimeSeriesSampler::Sample(uint64_t now_micros) {
  MutexLock lock(mu_);
  SampleLocked(now_micros);
}

void TimeSeriesSampler::SampleLocked(uint64_t now_micros) {
  const uint64_t sample =
      samples_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Schedule relative to *now*, not the previous due time: a pump that went
  // quiet for ten intervals should produce one catch-up sample, not ten
  // back-to-back empties.
  next_due_ = now_micros + kIntervalMicros;
  for (const MetricSample& m : registry_->Snapshot()) {
    TimeSeriesPoint pt;
    pt.sample = sample;
    pt.at_micros = now_micros;
    pt.name = m.name;
    pt.label = m.label;
    pt.kind = m.kind;
    const auto key = std::make_pair(m.name, m.label);
    auto it = last_.find(key);
    const MetricSample* prev = it != last_.end() ? &it->second : nullptr;
    switch (m.kind) {
      case MetricKind::kCounter:
        pt.value = m.value - (prev != nullptr ? prev->value : 0);
        break;
      case MetricKind::kGauge:
        pt.value = m.value;  // gauges are points, not rates
        break;
      case MetricKind::kHistogram: {
        std::array<uint64_t, Histogram::kBuckets> delta{};
        for (size_t i = 0; i < Histogram::kBuckets; ++i) {
          const uint64_t before = prev != nullptr ? prev->buckets[i] : 0;
          // Bucket reads are not one atomic snapshot; an observation landing
          // mid-read can make a bucket appear to step back one sample and
          // catch up the next. Clamp instead of underflowing.
          delta[i] = m.buckets[i] >= before ? m.buckets[i] - before : 0;
          pt.count += delta[i];
        }
        pt.value = static_cast<int64_t>(pt.count);
        pt.p50 = Histogram::PercentileOf(delta, 0.5);
        pt.p99 = Histogram::PercentileOf(delta, 0.99);
        pt.p999 = Histogram::PercentileOf(delta, 0.999);
        break;
      }
    }
    last_[key] = m;
    ring_.push_back(std::move(pt));
  }
  while (ring_.size() > kCapacity) {
    ring_.pop_front();
  }
}

std::vector<TimeSeriesPoint> TimeSeriesSampler::Snapshot() const {
  MutexLock lock(mu_);
  return std::vector<TimeSeriesPoint>(ring_.begin(), ring_.end());
}

std::string TimeSeriesSampler::DumpText() const {
  std::string out;
  char buf[320];
  std::snprintf(buf, sizeof(buf), "%6s %12s %-44s %-10s %10s %8s %8s %8s\n",
                "sample", "micros", "metric", "kind", "value", "p50", "p99",
                "p999");
  out += buf;
  for (const TimeSeriesPoint& pt : Snapshot()) {
    std::string id = pt.name;
    if (!pt.label.empty()) {
      id += "{" + pt.label + "}";
    }
    if (pt.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof(buf),
                    "%6llu %12llu %-44s %-10s %10lld %8llu %8llu %8llu\n",
                    static_cast<unsigned long long>(pt.sample),
                    static_cast<unsigned long long>(pt.at_micros), id.c_str(),
                    MetricKindName(pt.kind), static_cast<long long>(pt.value),
                    static_cast<unsigned long long>(pt.p50),
                    static_cast<unsigned long long>(pt.p99),
                    static_cast<unsigned long long>(pt.p999));
    } else {
      std::snprintf(buf, sizeof(buf), "%6llu %12llu %-44s %-10s %10lld\n",
                    static_cast<unsigned long long>(pt.sample),
                    static_cast<unsigned long long>(pt.at_micros), id.c_str(),
                    MetricKindName(pt.kind), static_cast<long long>(pt.value));
    }
    out += buf;
  }
  return out;
}

std::string TimeSeriesSampler::DumpJson() const {
  std::string out = "{\n  \"timeseries\": [\n";
  const std::vector<TimeSeriesPoint> snap = Snapshot();
  char buf[320];
  for (size_t i = 0; i < snap.size(); ++i) {
    const TimeSeriesPoint& pt = snap[i];
    out += "    {\"sample\": ";
    std::snprintf(buf, sizeof(buf), "%llu, \"micros\": %llu, \"name\": \"",
                  static_cast<unsigned long long>(pt.sample),
                  static_cast<unsigned long long>(pt.at_micros));
    out += buf;
    out += pt.name;  // metric names/labels are identifier-shaped; no escaping
    out += "\", \"label\": \"";
    out += pt.label;
    out += "\", \"kind\": \"";
    out += MetricKindName(pt.kind);
    if (pt.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof(buf),
                    "\", \"count\": %llu, \"p50\": %llu, \"p99\": %llu, "
                    "\"p999\": %llu",
                    static_cast<unsigned long long>(pt.count),
                    static_cast<unsigned long long>(pt.p50),
                    static_cast<unsigned long long>(pt.p99),
                    static_cast<unsigned long long>(pt.p999));
    } else {
      std::snprintf(buf, sizeof(buf), "\", \"value\": %lld",
                    static_cast<long long>(pt.value));
    }
    out += buf;
    out += i + 1 < snap.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace invfs

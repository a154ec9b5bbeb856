// invfs_perfbench: the repository benchmark program.
//
//   invfs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs a fixed number of passes of one workload (the count follows from
// --seconds alone, never from how fast the passes go), checks every result,
// and prints a metadata line followed, as the last line, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics from every
// other pass (traced) and prints the tracing overhead measured against the
// untraced passes in between. Exit 0 when every check passed, 1 when any
// failed, 2 on bad usage. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

struct WorkloadSpec {
  const char* name;
  PassResult (*pass)(const PassConfig&);
  // Passes per --seconds: each pass's op count is fixed, so this sets how
  // long a run measures on a host of the expected speed.
  double passes_per_second;
  bool multi_threaded;
  // The Stopwatch probe: one chunk for the cached read workloads; for the
  // others about the memory a pass sweeps (paper_table3: the 25 MB file in
  // the store plus the benchmark's 25 MB model of it; small_txn: an image
  // that grows to ~26 MB).
  Probe probe;
};

constexpr size_t kMiB = size_t{1} << 20;
constexpr WorkloadSpec kWorkloads[] = {
    {"paper_table3", PaperTable3Pass, 1.5, false, {64 * kMiB, 16'500}},
    {"hot_read", HotReadPass, 3.0, false, {}},
    {"small_txn", SmallTxnPass, 1.0, false, {16 * kMiB, 16'000}},
    {"parallel_read", ParallelReadPass, 4.0, true, {}},
};
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0') {
        args.seconds = 0;
      }
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") == 0 ? 0
                   : std::strcmp(value, "1") == 0 ? 1
                                                  : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && have_seed &&
         args.seconds >= 1 && args.seconds <= 3600 && args.trace >= 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of `ns`, in µs.
double PercentileUs(std::vector<uint32_t> ns, double p) {
  if (ns.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(ns.size())));
  const size_t k = std::clamp<size_t>(rank, 1, ns.size()) - 1;
  std::nth_element(ns.begin(), ns.begin() + static_cast<ptrdiff_t>(k), ns.end());
  return ns[k] / 1e3;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Peak RSS less the Stopwatch probe's buffer, which stays resident.
double PeakRssMb(const Probe& probe) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -
         static_cast<double>(probe.bytes) / (1 << 20);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}}";
}

// Throughput is total work over total timed wall time and the percentiles
// are over every op of the run, so they average over what scaling leaves of
// the host's speed swings. Set-up time is a median over passes, so one
// disturbed set-up cannot set it.
std::vector<Metric> EndToEnd(const std::vector<const PassResult*>& passes,
                             const Probe& probe) {
  std::vector<double> setup;
  std::vector<uint32_t> latency_ns;
  double ops = 0, bytes = 0, wall_s = 0, sim_s = 0, space_amp = 0;
  for (const PassResult* p : passes) {
    setup.push_back(p->setup_s);
    latency_ns.insert(latency_ns.end(), p->latency_ns.begin(), p->latency_ns.end());
    ops += static_cast<double>(p->ops);
    bytes += static_cast<double>(p->bytes_read + p->bytes_written);
    wall_s += p->wall_s;
    sim_s += p->sim_s;
    space_amp += p->space_amp;
  }
  const double n = static_cast<double>(passes.size());
  return {
      {"setup_s", Median(setup), "s"},
      {"ops_s", Ratio(ops, wall_s), "op/s"},
      {"mb_s", Ratio(bytes, wall_s * 1e6), "MB/s"},
      {"p50_us", PercentileUs(latency_ns, 0.50), "us"},
      {"p90_us", PercentileUs(latency_ns, 0.90), "us"},
      {"sim_s", sim_s / n, "s"},
      {"peak_rss_mb", PeakRssMb(probe), "MB"},
      {"space_amp", space_amp / n, "B/B"},
  };
}

std::vector<Metric> PerLayer(const std::vector<const PassResult*>& passes) {
  Counts c;
  Tracer spans;
  double ops = 0, user_bytes = 0, bytes_written = 0, sim_us = 0, ro_txn_us = 0;
  for (const PassResult* p : passes) {
    c += p->counts;
    spans.Merge(p->spans);
    ops += static_cast<double>(p->ops);
    user_bytes += static_cast<double>(p->bytes_read + p->bytes_written);
    bytes_written += static_cast<double>(p->bytes_written);
    sim_us += p->sim_s * 1e6;
    ro_txn_us += p->ro_txn_us;
  }
  auto per_op = [&](CountKind k) { return Ratio(static_cast<double>(c[k]), ops); };
  auto ratio = [&](CountKind num, double den) {
    return Ratio(static_cast<double>(c[num]), den);
  };
  const double call_us = spans.MeanUs(kNetCall);
  const double roundtrip_us = spans.MeanUs(kNetRoundTrip);
  const double pins = static_cast<double>(c[kBufferHits] + c[kBufferMisses]);
  // Read-only transactions commit too but never write the log.
  const double rw_commits = std::max(
      0.0, static_cast<double>(c[kCommits]) - static_cast<double>(c[kReadOnlyBegins]));
  return {
      {"inversion.read_us", spans.MeanUs(kInvRead), "us"},
      {"inversion.write_us", spans.MeanUs(kInvWrite), "us"},
      {"inversion.creat_us", spans.MeanUs(kInvCreat), "us"},
      {"inversion.commit_us", spans.MeanUs(kInvCommit), "us"},
      {"inversion.unlink_us", spans.MeanUs(kInvUnlink), "us"},
      {"net.call_us", call_us, "us"},
      {"net.roundtrip_us", roundtrip_us, "us"},
      {"net.client_us", call_us > 0 ? call_us - roundtrip_us : 0.0, "us"},
      {"net.msgs_per_op", per_op(kNetMessages), "msg/op"},
      {"net.bytes_per_user_byte", ratio(kNetBytes, user_bytes), "B/B"},
      {"buffer.pins_per_op", Ratio(pins, ops), "pin/op"},
      {"buffer.hit_ratio", ratio(kBufferHits, pins), "ratio"},
      {"buffer.evictions_per_op", per_op(kEvictions), "page/op"},
      {"buffer.write_backs_per_op", per_op(kWriteBacks), "page/op"},
      {"txn.log_writes_per_commit", ratio(kLogPageWrites, rw_commits), "page/txn"},
      {"txn.lock_acquisitions_per_op", per_op(kLockAcquisitions), "lock/op"},
      {"txn.lock_waits", static_cast<double>(c[kLockWaits]), "count"},
      {"txn.ro_txn_us", ro_txn_us / static_cast<double>(passes.size()), "us"},
      {"device.reads_per_op", per_op(kDiskReads), "io/op"},
      {"device.writes_per_op", per_op(kDiskWrites), "io/op"},
      {"device.seeks_per_op", per_op(kDiskSeeks), "seek/op"},
      {"device.write_amp", ratio(kDeviceWriteBytes, bytes_written), "B/B"},
      {"device.sim_share", ratio(kDeviceSimUs, sim_us), "ratio"},
      {"obs.spans_per_op", per_op(kSpans), "span/op"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: invfs_perfbench --workload <name> --seed <n> "
                 "--seconds <1..3600> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace == 1 && !invfs::kMetricsEnabled) {
    std::fprintf(stderr,
                 "refusing --trace 1: this is an INVFS_NO_METRICS build, whose "
                 "counters all read 0\n");
    return 2;
  }

  const int host_cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Half the cores, so the benchmark's threads never compete with the rest of
  // the host for a core: on a shared 4-core VM, 3 and 4 threads spread 13%
  // and 19% in p50_us over seven runs, 2 threads 7%.
  const int threads =
      spec->multi_threaded ? std::clamp(host_cores / 2, 2, 4) : 1;
  const int passes = std::max(
      kMinPasses, static_cast<int>(std::lround(args.seconds * spec->passes_per_second)));

  std::vector<PassResult> results;
  for (int p = 0; p < passes; ++p) {
    PassConfig config;
    config.seed = args.seed + static_cast<uint64_t>(p);
    config.threads = threads;
    config.traced = args.trace == 1 && p % 2 == 1;
    config.probe = spec->probe;
    results.push_back(spec->pass(config));
    const PassResult& r = results.back();
    std::fprintf(stderr,
                 "pass %d%s: setup %.4f s, %llu ops in %.4f s (raw %.4f s, "
                 "%.1f op/s), p50 %.2f us, p99 %.2f us, sim %.6f s\n",
                 p, config.traced ? " (traced)" : "", r.setup_s,
                 static_cast<unsigned long long>(r.ops), r.wall_s, r.raw_wall_s,
                 Ratio(static_cast<double>(r.ops), r.wall_s),
                 PercentileUs(r.latency_ns, 0.50), PercentileUs(r.latency_ns, 0.99),
                 r.sim_s);
    if (r.failed != 0) {
      std::fprintf(stderr, "pass %d failed: %s\n", p, r.first_error.c_str());
    }
  }

  uint64_t attempted = 0, failed = 0, digest = 0;
  std::vector<const PassResult*> traced, untraced;
  for (int p = 0; p < passes; ++p) {
    const PassResult& r = results[p];
    attempted += r.ops;
    failed += r.failed;
    digest = digest * 1099511628211ULL ^ r.inputs_digest;
    (args.trace == 1 && p % 2 == 1 ? traced : untraced).push_back(&r);
  }
  // The untraced percentiles pool every op. p99 goes in the meta line only:
  // for hot_read's ~2.5 us ops it followed the shared host's state (~3 us in
  // calm stretches, ~5 us in noisy ones, p50 unchanged), too far for a bound.
  std::vector<uint32_t> latency_ns;
  double ops = 0, wall_s = 0, raw_wall_s = 0;
  for (const PassResult* r : untraced) {
    latency_ns.insert(latency_ns.end(), r->latency_ns.begin(), r->latency_ns.end());
    ops += static_cast<double>(r->ops);
    wall_s += r->wall_s;
    raw_wall_s += r->raw_wall_s;
  }
  const bool correct = failed == 0 && attempted > 0;

  std::string meta = "meta {\"workload\": \"" + args.workload + "\"";
  meta += ", \"seed\": " + std::to_string(args.seed);
  meta += ", \"seconds\": " + std::to_string(args.seconds);
  meta += ", \"passes\": " + std::to_string(passes);
  meta += ", \"ops_per_pass\": " + std::to_string(results[0].ops);
  meta += ", \"threads\": " + std::to_string(threads);
  meta += ", \"host_cores\": " + std::to_string(host_cores);
  meta += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  meta += std::string(", \"metrics_compiled_in\": ") +
          (invfs::kMetricsEnabled ? "true" : "false");
  const size_t samples = latency_ns.size();
  meta += ", \"latency_samples\": " + std::to_string(samples);
  meta += ", \"p99_us\": " + std::to_string(PercentileUs(latency_ns, 0.99));
  meta += ", \"samples_beyond_p99\": " +
          std::to_string(samples - static_cast<size_t>(std::ceil(
                                       0.99 * static_cast<double>(samples))));
  // Unscaled throughput, and how much slower than the reference the host ran.
  meta += ", \"raw_ops_s\": " + std::to_string(Ratio(ops, raw_wall_s));
  meta += ", \"host_slowdown\": " + std::to_string(Ratio(raw_wall_s, wall_s));
  meta += ", \"error_ratio\": " +
          std::to_string(Ratio(static_cast<double>(failed),
                               static_cast<double>(attempted)));
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  meta += std::string(", \"inputs_digest\": \"") + hex + "\"";
  if (!results[0].table3_sim_s.empty()) {
    meta += ", \"table3_sim_s\": {";
    for (size_t i = 0; i < results[0].table3_sim_s.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f", i == 0 ? "" : ", ",
                    kTable3Tests[i], results[0].table3_sim_s[i]);
      meta += buf;
    }
    meta += "}";
  }
  std::printf("%s}\n", meta.c_str());

  std::vector<Metric> metrics;
  if (args.trace == 1) {
    auto ops_s = [spec](const std::vector<const PassResult*>& set) {
      for (const Metric& m : EndToEnd(set, spec->probe)) {
        if (m.name == "ops_s") {
          return m.value;
        }
      }
      return 0.0;
    };
    const double untraced_ops_s = ops_s(untraced);
    const double traced_ops_s = ops_s(traced);
    std::printf("tracing overhead: untraced %.1f op/s, traced %.1f op/s, %.2f%%\n",
                untraced_ops_s, traced_ops_s,
                100.0 * Ratio(untraced_ops_s - traced_ops_s, untraced_ops_s));
    metrics = PerLayer(traced);
  } else {
    metrics = EndToEnd(untraced, spec->probe);
  }
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Emits BENCH_PR5.json: the crash-recovery and fault-layer cost numbers the
// PR 5 robustness work claims.
//
//   * recovery_vs_image_size — wall time of Database::Open (which *is*
//     recovery: "reading the commit log") against images of growing size.
//     The paper says recovery is "essentially instantaneous"; the numbers
//     show it scales with the commit log, not the data.
//   * recovery_vs_inflight — the same with transactions left open at the
//     crash: recovery converts their in-progress entries to aborted and
//     persists the converted log pages.
//   * overhead — what the always-on robustness machinery costs when nothing
//     is armed: a CrashPointRegistry::Hit, and a device write+read through
//     the SwitchEntry wrapper versus the bare device.
//
// Usage: bench_pr5 [output.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/catalog/database.h"
#include "src/fault/crash_points.h"
#include "src/fault/switch_entry.h"
#include "src/inversion/inv_fs.h"

namespace invfs {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

uint64_t StorePages(const BlockStore& store) {
  uint64_t pages = 0;
  for (Oid rel : store.ListRelations()) {
    if (auto n = store.NumBlocks(rel); n.ok()) {
      pages += *n;
    }
  }
  return pages;
}

uint64_t ImagePages(const StorageEnv& env) {
  return StorePages(*env.disk_store) + StorePages(*env.nvram_store) +
         StorePages(*env.jukebox_store);
}

// Build an image: `files + inflight` files of `bytes_each` bytes committed
// one transaction each, then `inflight` extra sessions each left
// mid-transaction rewriting its own file (distinct files, so the open
// transactions hold disjoint locks and never wait on each other), then power
// cut.
Status BuildCrashedImage(StorageEnv* env, int files, int bytes_each,
                         int inflight, FaultInjector* injector = nullptr) {
  DatabaseOptions opts;
  opts.fault_injector = injector;
  INV_ASSIGN_OR_RETURN(auto db, Database::Open(env, opts));
  InversionFs fs(db.get());
  INV_RETURN_IF_ERROR(fs.Mount());
  INV_ASSIGN_OR_RETURN(auto session, fs.NewSession());
  const std::string data(static_cast<size_t>(bytes_each), 'x');
  for (int i = 0; i < files + inflight; ++i) {
    INV_RETURN_IF_ERROR(session->p_begin());
    INV_ASSIGN_OR_RETURN(int fd,
                         session->p_creat("/f" + std::to_string(i)));
    INV_RETURN_IF_ERROR(
        session
            ->p_write(fd, std::as_bytes(std::span(data.data(), data.size())))
            .status());
    INV_RETURN_IF_ERROR(session->p_close(fd));
    INV_RETURN_IF_ERROR(session->p_commit());
  }
  std::vector<std::unique_ptr<InvSession>> open_txns;
  for (int i = 0; i < inflight; ++i) {
    INV_ASSIGN_OR_RETURN(auto s, fs.NewSession());
    INV_RETURN_IF_ERROR(s->p_begin());
    INV_ASSIGN_OR_RETURN(
        int fd, s->p_open("/f" + std::to_string(files + i), OpenMode::kWrite));
    INV_RETURN_IF_ERROR(
        s->p_write(fd, std::as_bytes(std::span(data.data(), data.size())))
            .status());
    open_txns.push_back(std::move(s));
  }
  db->Crash();
  return Status::Ok();
}

struct RecoveryPoint {
  int files = 0;
  int inflight = 0;
  uint64_t image_pages = 0;
  uint64_t log_pages = 0;
  double open_ms = 0;
};

Result<RecoveryPoint> MeasureRecovery(int files, int bytes_each, int inflight) {
  StorageEnv env;
  INV_RETURN_IF_ERROR(BuildCrashedImage(&env, files, bytes_each, inflight));
  RecoveryPoint p;
  p.files = files;
  p.inflight = inflight;
  p.image_pages = ImagePages(env);
  const auto t0 = Clock::now();
  INV_ASSIGN_OR_RETURN(auto db, Database::Open(&env));
  p.open_ms = MsSince(t0);
  INV_ASSIGN_OR_RETURN(DeviceManager * log_dev,
                       db->devices().ManagerFor(kCommitLogRelOid));
  INV_ASSIGN_OR_RETURN(uint32_t log_pages, log_dev->NumBlocks(kCommitLogRelOid));
  p.log_pages = log_pages;
  return p;
}

// ns per unarmed CrashPointRegistry::Hit.
double CrashPointHitNs() {
  constexpr int kIters = 20'000'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    CrashPointRegistry::Hit("bench.point");
  }
  return MsSince(t0) * 1e6 / kIters;
}

// ns per 8 KB WriteBlock+ReadBlock pair through each device stack. One pass
// over one device is measured at a time, but passes are *interleaved* across
// the competing stacks (bare, then policy, then policy+fault, repeated, with
// the starting stack rotated): CPU frequency and scheduler drift then hit
// every stack alike instead of whichever one happened to run in the noisy
// window, which is what the overhead ratios need. Per stack the MEDIAN
// across passes is reported: on a shared machine the noise is nonstationary
// in both directions, and with interleaving every stack samples the same
// noise distribution, so the ratio of medians is the stable estimator (a
// min would be hostage to which stack happened to catch the quietest
// window).
std::vector<double> DeviceRoundTripNs(const std::vector<DeviceManager*>& devs) {
  constexpr Oid kRel = 7000;
  constexpr int kIters = 20'000;
  constexpr int kPasses = 31;
  std::vector<std::byte> page(kPageSize, std::byte{0x5a});
  std::vector<std::byte> out(kPageSize);
  for (DeviceManager* dev : devs) {
    // The stacks may share one backing store (so cache layout is identical
    // and only decorator cost differs); the relation then already exists for
    // every stack after the first.
    if (Status s = dev->CreateRelation(kRel);
        !s.ok() && s.code() != ErrorCode::kAlreadyExists) {
      return {};
    }
    (void)dev->WriteBlock(kRel, 0, page);
  }
  std::vector<std::vector<double>> samples(devs.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t k = 0; k < devs.size(); ++k) {
      const size_t d = (k + static_cast<size_t>(pass)) % devs.size();
      const auto t0 = Clock::now();
      for (int i = 0; i < kIters; ++i) {
        (void)devs[d]->WriteBlock(kRel, 0, page);
        (void)devs[d]->ReadBlock(kRel, 0, out);
      }
      samples[d].push_back(MsSince(t0) * 1e6 / kIters);
    }
  }
  std::vector<double> median(devs.size());
  for (size_t d = 0; d < devs.size(); ++d) {
    std::vector<double>& s = samples[d];
    std::nth_element(s.begin(), s.begin() + static_cast<ptrdiff_t>(s.size() / 2),
                     s.end());
    median[d] = s[s.size() / 2];
  }
  return median;
}

int Main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_PR5.json";
  std::string out = "{\n";
  out += "  \"note\": \"recovery == Database::Open on a crashed image. There"
         " is no log replay: the recovery component is reading the commit"
         " log (log_pages) plus converting in-progress entries; open_ms also"
         " includes catalog cache warm-up, which grows with the number of"
         " files but never touches data pages\",\n";

  std::fprintf(stderr, "recovery vs image size...\n");
  out += "  \"recovery_vs_image_size\": [\n";
  const int kSizes[] = {4, 16, 64, 256};
  for (size_t i = 0; i < std::size(kSizes); ++i) {
    auto p = MeasureRecovery(kSizes[i], 32 * 1024, /*inflight=*/0);
    if (!p.ok()) {
      std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"files\": %d, \"image_pages\": %llu, \"log_pages\":"
                  " %llu, \"open_ms\": %.3f}%s\n",
                  p->files, static_cast<unsigned long long>(p->image_pages),
                  static_cast<unsigned long long>(p->log_pages), p->open_ms,
                  i + 1 < std::size(kSizes) ? "," : "");
    out += buf;
  }

  std::fprintf(stderr, "recovery vs in-flight transactions...\n");
  out += "  ],\n  \"recovery_vs_inflight\": [\n";
  const int kInflight[] = {0, 8, 32};
  for (size_t i = 0; i < std::size(kInflight); ++i) {
    auto p = MeasureRecovery(/*files=*/32, 32 * 1024, kInflight[i]);
    if (!p.ok()) {
      std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"inflight_txns\": %d, \"image_pages\": %llu,"
                  " \"open_ms\": %.3f}%s\n",
                  p->inflight, static_cast<unsigned long long>(p->image_pages),
                  p->open_ms, i + 1 < std::size(kInflight) ? "," : "");
    out += buf;
  }

  std::fprintf(stderr, "unarmed overhead...\n");
  // Bare NVRAM device vs the same device in a SwitchEntry with no injector
  // (the keys' "retry_policy"), and in one with an injector that has nothing
  // armed (the keys' "policy_plus_unarmed_fault") — the production entry
  // when DatabaseOptions::fault_injector is set. All three wrap the SAME
  // backing store and operate on the same relation/block: the 8 KB page
  // copies dominate the absolute cost, so giving each its own store would
  // make the comparison hostage to allocator layout luck rather than
  // wrapper cost.
  MemBlockStore store;
  NvramDevice bare(&store);

  SimClock clock;
  MetricsRegistry metrics;
  SwitchEntry policy(std::make_unique<NvramDevice>(&store), &clock, &metrics);

  FaultInjector injector;
  SwitchEntry policy_fault(std::make_unique<NvramDevice>(&store), &clock,
                           &metrics, &injector);

  const std::vector<double> rt = DeviceRoundTripNs({&bare, &policy, &policy_fault});
  if (rt.size() != 3) {
    std::fprintf(stderr, "overhead bench setup failed\n");
    return 1;
  }
  const double bare_ns = rt[0];
  const double policy_ns = rt[1];
  const double policy_fault_ns = rt[2];

  const double hit_ns = CrashPointHitNs();
  char obuf[768];
  std::snprintf(
      obuf, sizeof(obuf),
      "  ],\n  \"overhead\": {\n"
      "    \"crash_point_hit_ns\": %.3f,\n"
      "    \"device_rw_ns_bare\": %.1f,\n"
      "    \"device_rw_ns_retry_policy\": %.1f,\n"
      "    \"device_rw_ns_policy_plus_unarmed_fault\": %.1f,\n"
      "    \"retry_policy_overhead_pct\": %.2f,\n"
      "    \"full_fault_stack_overhead_pct\": %.2f\n"
      "  }\n}\n",
      hit_ns, bare_ns, policy_ns, policy_fault_ns,
      bare_ns > 0 ? (policy_ns / bare_ns - 1) * 100 : 0.0,
      bare_ns > 0 ? (policy_fault_ns / bare_ns - 1) * 100 : 0.0);
  out += obuf;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace invfs

int main(int argc, char** argv) { return invfs::Main(argc, argv); }

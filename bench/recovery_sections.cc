// recovery: wall time of Database::Open (which *is* recovery: "reading the
// commit log") on crashed images of growing size and with transactions left
// open at the crash. The paper says recovery is "essentially instantaneous";
// the numbers show it scales with the commit log, not the data.
//
// overhead: what the always-on robustness machinery costs when nothing is
// armed — a CrashPointRegistry::Hit, and a device write+read through the
// SwitchEntry wrapper versus the bare device.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
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

// Build an image: `files + inflight` files of 32 KB committed one transaction
// each, then `inflight` extra sessions each left mid-transaction rewriting
// its own file (distinct files, so the open transactions hold disjoint locks
// and never wait on each other), then power cut.
Status BuildCrashedImage(StorageEnv* env, int files, int inflight) {
  INV_ASSIGN_OR_RETURN(auto db, Database::Open(env));
  InversionFs fs(db.get());
  INV_RETURN_IF_ERROR(fs.Mount());
  INV_ASSIGN_OR_RETURN(auto session, fs.NewSession());
  const std::string data(32 * 1024, 'x');
  const auto bytes = std::as_bytes(std::span(data.data(), data.size()));
  for (int i = 0; i < files + inflight; ++i) {
    INV_RETURN_IF_ERROR(session->p_begin());
    INV_ASSIGN_OR_RETURN(int fd, session->p_creat("/f" + std::to_string(i)));
    INV_RETURN_IF_ERROR(session->p_write(fd, bytes).status());
    INV_RETURN_IF_ERROR(session->p_close(fd));
    INV_RETURN_IF_ERROR(session->p_commit());
  }
  std::vector<std::unique_ptr<InvSession>> open_txns;
  for (int i = 0; i < inflight; ++i) {
    INV_ASSIGN_OR_RETURN(auto s, fs.NewSession());
    INV_RETURN_IF_ERROR(s->p_begin());
    INV_ASSIGN_OR_RETURN(int fd,
                         s->p_open("/f" + std::to_string(files + i), OpenMode::kWrite));
    INV_RETURN_IF_ERROR(s->p_write(fd, bytes).status());
    open_txns.push_back(std::move(s));
  }
  db->Crash();
  return Status::Ok();
}

struct RecoveryPoint {
  uint64_t image_pages = 0;
  uint64_t log_pages = 0;
  double open_ms = 0;
};

// Builds the image, times its reopening and prints the row.
Result<RecoveryPoint> MeasureRecovery(int files, int inflight) {
  StorageEnv env;
  INV_RETURN_IF_ERROR(BuildCrashedImage(&env, files, inflight));
  RecoveryPoint p;
  p.image_pages = StorePages(*env.disk_store) + StorePages(*env.nvram_store) +
                  StorePages(*env.jukebox_store);
  const auto t0 = Clock::now();
  INV_ASSIGN_OR_RETURN(auto db, Database::Open(&env));
  p.open_ms = MsSince(t0);
  INV_ASSIGN_OR_RETURN(DeviceManager * log_dev,
                       db->devices().ManagerFor(kCommitLogRelOid));
  INV_ASSIGN_OR_RETURN(uint32_t log_pages, log_dev->NumBlocks(kCommitLogRelOid));
  p.log_pages = log_pages;
  std::printf("%8d %10d %12llu %10llu %10.3f\n", files, inflight,
              static_cast<unsigned long long>(p.image_pages),
              static_cast<unsigned long long>(p.log_pages), p.open_ms);
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
Result<std::vector<double>> DeviceRoundTripNs(const std::vector<DeviceManager*>& devs) {
  constexpr Oid kRel = 7000;
  constexpr int kIters = 20'000;
  constexpr int kPasses = 31;
  std::vector<std::byte> page(kPageSize, std::byte{0x5a});
  std::vector<std::byte> out(kPageSize);
  for (DeviceManager* dev : devs) {
    // Stacks sharing one backing store find the relation the first one made.
    if (Status s = dev->CreateRelation(kRel);
        !s.ok() && s.code() != ErrorCode::kAlreadyExists) {
      return s;
    }
    INV_RETURN_IF_ERROR(dev->WriteBlock(kRel, 0, page));
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

}  // namespace

Status RunRecovery(Json* out) {
  out->Add("note", Json::String("recovery == Database::Open on a crashed image. There"
                                " is no log replay: the recovery component is reading"
                                " the commit log (log_pages) plus converting"
                                " in-progress entries; open_ms also includes catalog"
                                " cache warm-up, which grows with the number of files"
                                " but never touches data pages"));
  std::printf("== recovery: Database::Open on a crashed image ==\n\n");
  std::printf("%8s %10s %12s %10s %10s\n", "files", "in-flight", "image-pages",
              "log-pages", "open ms");
  // Against image size: 4..256 files of 32 KB, nothing open at the crash.
  Json by_size = Json::Array();
  for (int files : {4, 16, 64, 256}) {
    INV_ASSIGN_OR_RETURN(const RecoveryPoint p, MeasureRecovery(files, /*inflight=*/0));
    by_size.Push(Json::Object()
                     .Add("files", Json::Int(static_cast<uint64_t>(files)))
                     .Add("image_pages", Json::Int(p.image_pages))
                     .Add("log_pages", Json::Int(p.log_pages))
                     .Add("open_ms", Json::Number(p.open_ms, "%.3f")));
  }
  // Against transactions left open at the crash, which recovery converts to
  // aborted, persisting the converted log pages.
  Json by_inflight = Json::Array();
  for (int inflight : {0, 8, 32}) {
    INV_ASSIGN_OR_RETURN(const RecoveryPoint p, MeasureRecovery(/*files=*/32, inflight));
    by_inflight.Push(Json::Object()
                         .Add("inflight_txns", Json::Int(static_cast<uint64_t>(inflight)))
                         .Add("image_pages", Json::Int(p.image_pages))
                         .Add("open_ms", Json::Number(p.open_ms, "%.3f")));
  }
  out->Add("recovery_vs_image_size", std::move(by_size))
      .Add("recovery_vs_inflight", std::move(by_inflight));
  return Status::Ok();
}

Status RunOverhead(Json* out) {
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
  SwitchEntry policy_fault(std::make_unique<NvramDevice>(&store), &clock, &metrics,
                           &injector);
  INV_ASSIGN_OR_RETURN(const std::vector<double> rt,
                       DeviceRoundTripNs({&bare, &policy, &policy_fault}));
  const double hit_ns = CrashPointHitNs();
  const double policy_pct = (rt[1] / rt[0] - 1) * 100;
  const double full_pct = (rt[2] / rt[0] - 1) * 100;

  std::printf("== overhead: unarmed robustness machinery ==\n\n");
  std::printf("  %-44s %10.3f ns\n", "crash point hit", hit_ns);
  std::printf("  %-44s %10.1f ns\n", "8 KB write+read, bare device", rt[0]);
  std::printf("  %-44s %10.1f ns  (%+.2f%%)\n", "8 KB write+read, switch entry", rt[1],
              policy_pct);
  std::printf("  %-44s %10.1f ns  (%+.2f%%)\n",
              "8 KB write+read, switch entry + unarmed fault", rt[2], full_pct);
  out->Add("crash_point_hit_ns", Json::Number(hit_ns, "%.3f"))
      .Add("device_rw_ns_bare", Json::Number(rt[0], "%.1f"))
      .Add("device_rw_ns_retry_policy", Json::Number(rt[1], "%.1f"))
      .Add("device_rw_ns_policy_plus_unarmed_fault", Json::Number(rt[2], "%.1f"))
      .Add("retry_policy_overhead_pct", Json::Number(policy_pct, "%.2f"))
      .Add("full_fault_stack_overhead_pct", Json::Number(full_pct, "%.2f"));
  return Status::Ok();
}

}  // namespace invfs

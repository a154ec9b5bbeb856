// Emits BENCH_PR4.json: the BENCH_PR3 schema (paper figures, mt_scan,
// group_commit) extended with a "metrics" section sourced from the PR 4
// observability layer — buffer hit rate, log writes per transition, mean
// group-commit batch size, lock waits — plus the raw registry JSON snapshot
// of the scripted workload that produced them. Usage: bench_pr4 [output.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_mt_common.h"
#include "src/obs/metrics.h"

namespace invfs {
namespace {

void AppendPaperConfig(std::string& out, const char* name,
                       const PaperBenchResult& r, bool last) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "    \"%s\": {\n"
                "      \"fig3_create_25mb_s\": %.4f,\n"
                "      \"fig4_read_byte_s\": %.6f,\n"
                "      \"fig4_write_byte_s\": %.6f,\n"
                "      \"fig5_read_1mb_single_s\": %.4f,\n"
                "      \"fig5_read_1mb_seq_pages_s\": %.4f,\n"
                "      \"fig5_read_1mb_rand_pages_s\": %.4f,\n"
                "      \"fig6_write_1mb_single_s\": %.4f,\n"
                "      \"fig6_write_1mb_seq_pages_s\": %.4f,\n"
                "      \"fig6_write_1mb_rand_pages_s\": %.4f\n"
                "    }%s\n",
                name, r.create_file_s, r.read_single_byte_s, r.write_single_byte_s,
                r.read_1mb_single_s, r.read_1mb_seq_pages_s, r.read_1mb_rand_pages_s,
                r.write_1mb_single_s, r.write_1mb_seq_pages_s, r.write_1mb_rand_pages_s,
                last ? "" : ",");
  out += buf;
}

// Mixed metadata + data workload against one world; every derived metric in
// the "metrics" section comes out of this run's registry.
Status RunObservedWorkload(InversionWorld* world) {
  InvSession& s = world->session();
  INV_RETURN_IF_ERROR(s.mkdir("/bench"));
  std::vector<std::byte> block(8192, std::byte{0x5a});
  for (int i = 0; i < 16; ++i) {
    const std::string path = "/bench/file" + std::to_string(i);
    INV_RETURN_IF_ERROR(s.p_begin());
    INV_ASSIGN_OR_RETURN(int fd, s.p_creat(path));
    for (int j = 0; j < 8; ++j) {
      INV_RETURN_IF_ERROR(s.p_write(fd, block).status());
    }
    INV_RETURN_IF_ERROR(s.p_close(fd));
    INV_RETURN_IF_ERROR(s.p_commit());
  }
  for (int pass = 0; pass < 2; ++pass) {  // second pass is all buffer hits
    for (int i = 0; i < 16; ++i) {
      const std::string path = "/bench/file" + std::to_string(i);
      INV_ASSIGN_OR_RETURN(int fd, s.p_open(path, OpenMode::kRead));
      std::vector<std::byte> buf(8192);
      while (true) {
        INV_ASSIGN_OR_RETURN(int64_t n, s.p_read(fd, buf));
        if (n <= 0) {
          break;
        }
      }
      INV_RETURN_IF_ERROR(s.p_close(fd));
    }
  }
  INV_RETURN_IF_ERROR(
      s.Query("retrieve (f.filename) from f in naming").status());
  return Status::Ok();
}

// Find a sample by (name, label) in a registry snapshot; zero-valued counter
// when absent so derived ratios degrade to 0 instead of dividing garbage.
MetricSample FindSample(const std::vector<MetricSample>& snap,
                        const std::string& name, const std::string& label = "") {
  for (const MetricSample& s : snap) {
    if (s.name == name && s.label == label) {
      return s;
    }
  }
  return MetricSample{};
}

// Indent a pre-rendered JSON blob so it nests under the top-level object.
std::string Indent(const std::string& json, const char* pad) {
  std::string out;
  for (size_t i = 0; i < json.size(); ++i) {
    out += json[i];
    if (json[i] == '\n' && i + 1 < json.size()) {
      out += pad;
    }
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

int Main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_PR4.json";

  std::fprintf(stderr, "running paper suite (fig3-fig6)...\n");
  auto paper = RunAllConfigs();
  if (!paper.ok()) {
    std::fprintf(stderr, "%s\n", paper.status().ToString().c_str());
    return 1;
  }

  char header[256];
  std::snprintf(header, sizeof(header),
                "{\n  \"host_cores\": %u,\n"
                "  \"note\": \"wall-clock mt_scan speedups require a multi-core"
                " host; on one core threads time-slice and lock contention is"
                " invisible to wall time\",\n"
                "  \"paper_figures\": {\n",
                std::thread::hardware_concurrency());
  std::string out = header;
  AppendPaperConfig(out, "inversion_client_server", paper->inv_cs, false);
  AppendPaperConfig(out, "ultrix_nfs_presto", paper->nfs, false);
  AppendPaperConfig(out, "inversion_single_process", paper->inv_sp, true);
  out += "  },\n  \"mt_scan\": [\n";

  constexpr uint64_t kPinsPerThread = 200000;
  const int kThreads[] = {1, 4, 8, 16};
  for (size_t i = 0; i < std::size(kThreads); ++i) {
    const int n = kThreads[i];
    std::fprintf(stderr, "mt_scan: %d threads...\n", n);
    const MtScanResult base = RunMtScan(n, /*partitions=*/1, kPinsPerThread);
    const MtScanResult shard = RunMtScan(n, /*partitions=*/0, kPinsPerThread);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"global_lock_mpins_per_s\": %.3f, "
                  "\"sharded_mpins_per_s\": %.3f, \"speedup\": %s}%s\n",
                  n, base.mpins_per_s, shard.mpins_per_s,
                  SpeedupJsonField(base.mpins_per_s, shard.mpins_per_s).c_str(),
                  i + 1 < std::size(kThreads) ? "," : "");
    out += buf;
  }

  out += "  ],\n  \"group_commit\": [\n";
  for (size_t i = 0; i < std::size(kThreads); ++i) {
    const int n = kThreads[i];
    std::fprintf(stderr, "group_commit: %d threads...\n", n);
    const MtCommitResult r = RunMtCommit(n, /*txns_per_thread=*/2000);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"txns\": %llu, \"transitions\": %llu, "
                  "\"persist_requests\": %llu, \"persist_batches\": %llu, "
                  "\"device_page_writes\": %llu, \"writes_per_transition\": %.3f, "
                  "\"ktxns_per_s\": %.1f}%s\n",
                  n, static_cast<unsigned long long>(r.txns),
                  static_cast<unsigned long long>(r.transitions),
                  static_cast<unsigned long long>(r.persist_requests),
                  static_cast<unsigned long long>(r.persist_batches),
                  static_cast<unsigned long long>(r.device_page_writes),
                  r.writes_per_transition, r.ktxns_per_s,
                  i + 1 < std::size(kThreads) ? "," : "");
    out += buf;
  }

  std::fprintf(stderr, "metrics: observed workload...\n");
  auto world_or = InversionWorld::Create();
  if (!world_or.ok()) {
    std::fprintf(stderr, "%s\n", world_or.status().ToString().c_str());
    return 1;
  }
  InversionWorld& world = **world_or;
  if (Status s = RunObservedWorkload(&world); !s.ok()) {
    std::fprintf(stderr, "workload: %s\n", s.ToString().c_str());
    return 1;
  }
  MetricsRegistry& reg = world.db().metrics();
  const auto snap = reg.Snapshot();
  const uint64_t hits = FindSample(snap, "buffer.hits").value;
  const uint64_t misses = FindSample(snap, "buffer.misses").value;
  const MetricSample batches = FindSample(snap, "log.batch_transitions");
  const uint64_t log_writes = FindSample(snap, "log.device_page_writes").value;
  const double hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
  const double mean_batch =
      batches.count > 0 ? static_cast<double>(batches.sum) / batches.count : 0.0;
  const double writes_per_transition =
      batches.sum > 0 ? static_cast<double>(log_writes) / batches.sum : 0.0;

  char mbuf[1024];
  std::snprintf(
      mbuf, sizeof(mbuf),
      "  ],\n  \"metrics\": {\n"
      "    \"buffer_hit_rate\": %.4f,\n"
      "    \"buffer_evictions\": %llu,\n"
      "    \"buffer_write_backs\": %llu,\n"
      "    \"log_writes_per_transition\": %.3f,\n"
      "    \"group_commit_mean_batch\": %.3f,\n"
      "    \"lock_waits\": %llu,\n"
      "    \"txn_commits\": %llu,\n"
      "    \"registry\": ",
      hit_rate,
      static_cast<unsigned long long>(FindSample(snap, "buffer.evictions").value),
      static_cast<unsigned long long>(FindSample(snap, "buffer.write_backs").value),
      writes_per_transition, mean_batch,
      static_cast<unsigned long long>(FindSample(snap, "lock.waits").value),
      static_cast<unsigned long long>(FindSample(snap, "txn.commits").value));
  out += mbuf;
  out += Indent(reg.DumpJson(), "    ");
  out += "\n  }\n}\n";

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

// mt: multi-threaded wall-clock throughput of the sharded buffer pool, of
// snapshot reads beside a 2PL writer and of the group-commit log, plus the
// registry's view of a mixed workload. Unlike the paper sections these
// measure wall-clock time with std::chrono, because the quantity under test
// is contention between real OS threads, which simulated time cannot see.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/buffer/buffer_pool.h"
#include "src/catalog/database.h"
#include "src/txn/commit_log.h"
#include "src/util/random.h"

namespace invfs {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8, 16};
constexpr uint64_t kPinsPerThread = 200000;
constexpr uint64_t kReadsPerReader = 2000;
constexpr uint64_t kTxnsPerThread = 2000;

// Runs body(t) for t in [0, n) on n threads released together and returns
// the wall seconds until the last one finishes. A body returns false when an
// operation failed, which fails the run.
template <typename Body>
Result<double> RunThreads(int n, Body body) {
  std::atomic<bool> go{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      if (!body(t)) {
        failed.store(true);
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) {
    th.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (failed.load()) {
    return Status::Internal("a benchmark thread's operation failed");
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

// Millions of page pins per wall second. Cached-read scan: every thread
// random-pins pages of a relation that fits entirely in the pool, so each
// operation is a pure hit — the workload is nothing but the pool's hit-path
// synchronization. partitions=1 is a single-lock pool (the POSTGRES 4.0.1
// configuration); 0 is the default sharded pool, which spreads hits over
// independent mutexes.
Result<double> RunMtScan(int nthreads, size_t partitions) {
  constexpr Oid kRel = 1;
  constexpr uint32_t kBlocks = 64;

  SimClock clock;
  MemBlockStore store;
  DeviceSwitch sw;
  sw.Register(kDeviceMagneticDisk,
              std::make_unique<MagneticDiskDevice>(&store, &clock, DiskParams{}));
  INV_RETURN_IF_ERROR(sw.Get(kDeviceMagneticDisk)->CreateRelation(kRel));
  sw.BindRelation(kRel, kDeviceMagneticDisk);

  BufferPool pool(&sw, /*num_buffers=*/128, &clock, CpuParams{}, partitions);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    INV_RETURN_IF_ERROR(pool.Extend(kRel, nullptr).status());
  }
  INV_ASSIGN_OR_RETURN(const double seconds, RunThreads(nthreads, [&](int t) {
                         Rng rng(0x1234 + t);
                         for (uint64_t i = 0; i < kPinsPerThread; ++i) {
                           if (!pool.Pin(kRel, static_cast<uint32_t>(rng.Uniform(kBlocks)))
                                    .ok()) {
                             return false;
                           }
                         }
                         return true;
                       }));
  return static_cast<double>(kPinsPerThread) * nthreads / seconds / 1e6;
}

// Reader-vs-writer scaling: N reader threads run read-only transactions
// (pinned snapshot, zero lock-manager traffic) scanning a table that one
// writer thread continuously updates under an exclusive 2PL lock. Under a
// lock-then-read design every scan would queue behind the writer's exclusive
// lock; under snapshot-isolation reads the readers never notice it —
// reads_under_lock counts scans that completed *while* the writer
// demonstrably held the conflicting lock, which that design could never do.
// Prints the table row and returns it as JSON.
Result<Json> ReaderVsWriterRow(int nreaders, bool with_writer) {
  StorageEnv env;
  INV_ASSIGN_OR_RETURN(auto db_ptr, Database::Open(&env));
  Database& db = *db_ptr;

  TableInfo* table = nullptr;
  Tid victim{};
  {
    INV_ASSIGN_OR_RETURN(auto txn, db.Begin());
    INV_ASSIGN_OR_RETURN(
        table, db.catalog().CreateTable(
                   txn, "rw_bench", Schema{{"k", TypeId::kInt4}, {"v", TypeId::kInt4}},
                   kDeviceMagneticDisk));
    for (int i = 0; i < 64; ++i) {
      INV_ASSIGN_OR_RETURN(Tid tid,
                           db.InsertRow(txn, table, {Value::Int4(i), Value::Int4(0)}));
      if (i == 0) {
        victim = tid;
      }
    }
    INV_RETURN_IF_ERROR(db.Commit(txn));
  }

  std::atomic<bool> stop_writer{false};
  std::atomic<bool> writer_failed{false};
  std::atomic<bool> lock_held{false};
  std::atomic<uint64_t> writer_commits{0};
  std::atomic<uint64_t> under_lock{0};

  // The writer is already running when the readers are released.
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      int v = 0;
      while (!stop_writer.load(std::memory_order_acquire)) {
        auto txn = db.Begin();
        if (!txn.ok() || !db.LockTable(*txn, table, LockMode::kExclusive).ok()) {
          writer_failed.store(true);
          return;
        }
        lock_held.store(true, std::memory_order_release);
        auto tid = db.ReplaceRow(*txn, table, victim, {Value::Int4(0), Value::Int4(++v)});
        if (!tid.ok()) {
          writer_failed.store(true);
          return;
        }
        victim = *tid;
        // Hold the lock for a realistic transaction body instead of
        // commit-storming: an unpaced loop would bloat the heap with dead
        // versions faster than readers can scan it, measuring MVCC garbage
        // accumulation (vacuum's job) rather than lock interference.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        // 2PL holds the exclusive lock until commit releases it.
        const bool committed = db.Commit(*txn).ok();
        lock_held.store(false, std::memory_order_release);
        if (!committed) {
          writer_failed.store(true);
          return;
        }
        writer_commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const Result<double> seconds = RunThreads(nreaders, [&](int) {
    for (uint64_t i = 0; i < kReadsPerReader; ++i) {
      auto txn = db.Begin(TxnMode::kReadOnly);
      if (!txn.ok()) {
        return false;
      }
      const bool saw_lock_before = lock_held.load(std::memory_order_acquire);
      int rows = 0;
      const Status read =
          table->heap->VisitEach(db.ReadSnapshot(*txn), [&](Tid, auto) -> Result<bool> {
            ++rows;
            return false;
          });
      if (!read.ok() || rows != 64 || !db.Commit(*txn).ok()) {
        return false;
      }
      // The lock was held across the whole scan only if it was held both
      // before and after; conservative undercount, never an overcount.
      if (saw_lock_before && lock_held.load(std::memory_order_acquire)) {
        under_lock.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return true;
  });
  stop_writer.store(true, std::memory_order_release);
  if (writer.joinable()) {
    writer.join();
  }
  INV_RETURN_IF_ERROR(seconds.status());
  if (writer_failed.load()) {
    return Status::Internal("reader vs writer: a writer transaction failed");
  }

  const uint64_t read_txns = kReadsPerReader * static_cast<uint64_t>(nreaders);
  const double kreads_per_s = read_txns / *seconds / 1e3;
  std::printf("%8d %8s %10llu %12llu %12llu %10.1f\n", nreaders,
              with_writer ? "yes" : "no", static_cast<unsigned long long>(read_txns),
              static_cast<unsigned long long>(under_lock.load()),
              static_cast<unsigned long long>(writer_commits.load()), kreads_per_s);
  return Json::Object()
      .Add("readers", Json::Int(static_cast<uint64_t>(nreaders)))
      .Add("writer", Json::Raw(with_writer ? "true" : "false"))
      .Add("read_txns", Json::Int(read_txns))
      .Add("reads_under_lock", Json::Int(under_lock.load()))
      .Add("writer_commits", Json::Int(writer_commits.load()))
      .Add("kreads_per_s", Json::Number(kreads_per_s, "%.1f"));
}

// Commit-heavy workload: every thread runs begin;commit transactions against
// one shared commit log. Without group commit each transition costs one
// device write (writes == requests); the leader/follower protocol coalesces
// transitions that arrive during another flush, so writes < requests under
// concurrency. Prints the table row and returns it as JSON.
Result<Json> GroupCommitRow(int nthreads) {
  MemBlockStore store;
  NvramDevice dev(&store);
  INV_ASSIGN_OR_RETURN(auto log, CommitLog::Open(&dev));
  INV_ASSIGN_OR_RETURN(const double seconds, RunThreads(nthreads, [&](int) {
                         for (uint64_t i = 0; i < kTxnsPerThread; ++i) {
                           auto xid = log->BeginTxn();
                           if (!xid.ok() || !log->CommitTxn(*xid, *xid).ok()) {
                             return false;
                           }
                         }
                         return true;
                       }));
  const uint64_t txns = kTxnsPerThread * static_cast<uint64_t>(nthreads);
  const uint64_t transitions = 2 * txns;  // one begin + one commit each
  // Durable transitions requested, leader flushes performed and device page
  // writes, from the log's registry counters; 1.0 writes per transition is
  // the unbatched POSTGRES 4.0.1 cost.
  const double requests = log->persist_requests();
  const double batches = log->persist_batches();
  const double writes = log->device_page_writes();
  const double ktxns_per_s = txns / seconds / 1e3;
  std::printf("%8d %8llu %12llu %10s %8s %12s %12s %10.1f\n", nthreads,
              static_cast<unsigned long long>(txns),
              static_cast<unsigned long long>(transitions),
              MetricText(requests, "%.0f").c_str(), MetricText(batches, "%.0f").c_str(),
              MetricText(writes, "%.0f").c_str(),
              MetricText(writes / transitions, "%.3f").c_str(), ktxns_per_s);
  return Json::Object()
      .Add("threads", Json::Int(static_cast<uint64_t>(nthreads)))
      .Add("txns", Json::Int(txns))
      .Add("transitions", Json::Int(transitions))
      .Add("persist_requests", MetricJson(requests, "%.0f"))
      .Add("persist_batches", MetricJson(batches, "%.0f"))
      .Add("device_page_writes", MetricJson(writes, "%.0f"))
      .Add("writes_per_transition", MetricJson(writes / transitions, "%.3f"))
      .Add("ktxns_per_s", Json::Number(ktxns_per_s, "%.1f"));
}

// Mixed metadata + data workload against one world; every number of the
// "metrics" block comes out of this run's registry.
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
  // Write every dirty page back and empty the pool, so the first read pass
  // misses and the metrics below measure device traffic, not a warm cache.
  INV_RETURN_IF_ERROR(world->db().FlushCaches());
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
  return s.Query("retrieve (f.filename) from f in naming").status();
}

}  // namespace

Status RunMt(Json* out) {
  const unsigned cores = std::thread::hardware_concurrency();
  // On a host with fewer than two cores, threads time-slice on the one core:
  // lock contention cannot reduce wall-clock throughput, the sharded/global
  // ratio is ~1.0x measurement noise, and gating on it would be meaningless,
  // so the speedup reads "skipped" (host_cores says why).
  const bool multi_core = cores >= 2;
  out->Add("host_cores", Json::Int(cores))
      .Add("note", Json::String("wall-clock mt_scan speedups require a multi-core"
                                " host; on one core threads time-slice and lock"
                                " contention is invisible to wall time"));

  std::printf("== mt: cached pins, wall-clock throughput ==\n");
  std::printf("   host cores: %u%s\n\n", cores,
              multi_core ? ""
                         : "  (single core: threads time-slice, so lock"
                           " contention cannot reduce wall-clock throughput;"
                           " run on a multi-core host to see the speedup)");
  std::printf("%8s %18s %18s %9s\n", "threads", "global-lock Mpin/s", "sharded Mpin/s",
              "speedup");
  Json scan = Json::Array();
  for (int n : kThreadCounts) {
    INV_ASSIGN_OR_RETURN(const double base, RunMtScan(n, /*partitions=*/1));
    INV_ASSIGN_OR_RETURN(const double shard, RunMtScan(n, /*partitions=*/0));
    char speedup[32] = "skipped";
    if (multi_core) {
      std::snprintf(speedup, sizeof(speedup), "%.3f", shard / base);
    }
    std::printf("%8d %18.2f %18.2f %9s\n", n, base, shard, speedup);
    scan.Push(Json::Object()
                  .Add("threads", Json::Int(static_cast<uint64_t>(n)))
                  .Add("global_lock_mpins_per_s", Json::Number(base, "%.3f"))
                  .Add("sharded_mpins_per_s", Json::Number(shard, "%.3f"))
                  .Add("speedup", multi_core ? Json::Raw(speedup) : Json::String(speedup)));
  }
  out->Add("mt_scan", std::move(scan));

  std::printf("\n== reader vs writer: snapshot reads under a churning 2PL writer ==\n\n");
  std::printf("%8s %8s %10s %12s %12s %10s\n", "readers", "writer", "read-txns",
              "under-lock", "w-commits", "kread/s");
  Json rw = Json::Array();
  for (int n : kThreadCounts) {
    for (bool with_writer : {false, true}) {
      INV_ASSIGN_OR_RETURN(Json row, ReaderVsWriterRow(n, with_writer));
      rw.Push(std::move(row));
    }
  }
  out->Add("reader_writer", std::move(rw));
  std::printf("\nunder-lock counts read transactions that completed while the writer\n"
              "held the conflicting exclusive lock: nonzero means writers do not\n"
              "block readers (any at all would deadlock under a lock-then-read\n"
              "design on one core).\n");

  std::printf("\n== group commit: begin/commit storm, one shared log ==\n\n");
  std::printf("%8s %8s %12s %10s %8s %12s %12s %10s\n", "threads", "txns",
              "transitions", "requests", "batches", "page-writes", "writes/trans",
              "ktxn/s");
  Json commits = Json::Array();
  for (int n : kThreadCounts) {
    INV_ASSIGN_OR_RETURN(Json row, GroupCommitRow(n));
    commits.Push(std::move(row));
  }
  out->Add("group_commit", std::move(commits));
  std::printf("\nPOSTGRES 4.0.1 wrote one log page per transition (writes/trans = 1.0).\n"
              "Begin batching under the xid horizon alone halves that; overlapping\n"
              "commits coalesce further via the leader/follower flush.\n");

  INV_ASSIGN_OR_RETURN(auto world, InversionWorld::Create());
  INV_RETURN_IF_ERROR(RunObservedWorkload(world.get()));
  MetricsRegistry& reg = world->db().metrics();
  auto count = [&reg](const char* name) { return reg.GetCounter(name)->Value(); };
  const double hits = count("buffer.hits");
  const double misses = count("buffer.misses");
  std::printf("\n== observed workload: 16 files created, read twice, one query ==\n\n");
  Json metrics = Json::Object();
  auto emit = [&metrics](const char* key, double value, const char* fmt) {
    std::printf("  %-28s %s\n", key, MetricText(value, fmt).c_str());
    metrics.Add(key, MetricJson(value, fmt));
  };
  // Only fields this single-threaded, pool-sized workload can move: it never
  // evicts, and no two of its commits share a batch. Evictions, write-backs
  // and batching are in the group-commit table above and the registry dump.
  emit("buffer_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0, "%.4f");
  emit("lock_waits", count("lock.waits"), "%.0f");
  emit("txn_commits", count("txn.commits"), "%.0f");
  metrics.Add("registry", kMetricsEnabled ? Json::Raw(reg.DumpJson()) : Json::Null());
  out->Add("metrics", std::move(metrics));
  return Status::Ok();
}

}  // namespace invfs

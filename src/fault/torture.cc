#include "src/fault/torture.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "src/fault/crash_points.h"
#include "src/fault/switch_entry.h"
#include "src/harness/worlds.h"
#include "src/load/loadgen.h"
#include "src/util/random.h"

namespace invfs {
namespace {

// Expected file-system state: path -> full contents.
using FileState = std::map<std::string, std::string>;

struct RunOutcome {
  FileState acked;          // state covered by acked commits
  FileState with_inflight;  // acked + the crash-overlapped txn (if any)
  bool crashed = false;
  bool indeterminate = false;  // p_commit was in flight when the halt fired
  bool completed = false;      // workload finished without a halt
  std::string error;           // unexpected (non-halt) failure
};

void ApplyWrite(std::string* content, int64_t offset, const std::string& data) {
  const auto off = static_cast<size_t>(offset);
  if (off + data.size() > content->size()) {
    content->resize(off + data.size());
  }
  content->replace(off, data.size(), data);
}

std::string RandomPayload(Rng& rng, size_t len) {
  std::string s(len, '\0');
  for (char& c : s) {
    c = static_cast<char>('a' + rng.Uniform(26));
  }
  return s;
}

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// One deterministic workload pass. Identical op sequence for a given seed
// regardless of faults: the op stream is derived only from `rng` and the
// mirrored `pending` state, which evolve the same way until the halt.
void RunWorkload(const TortureOptions& opt, InversionWorld* world,
                 FaultInjector* injector, RunOutcome* out,
                 LoadGen* load = nullptr) {
  InvSession& s = world->session();
  Rng rng(opt.seed * 0x9E3779B9ULL + 17);
  int next_file = 0;
  const auto halted = [&] { return injector->crashed(); };

  for (int t = 0; t < opt.transactions; ++t) {
    // Under-load mode: pump foreign tenant traffic between this session's
    // transactions (never inside one — the torture transaction's locks are
    // released here, and every load op is itself transaction-complete, so
    // the interleaving is deadlock-free by construction). Never pump once
    // the halt has fired: a commit the halt interrupted died *before*
    // releasing its table locks (exactly what recovery exists to clean up),
    // so one more load op against the frozen image would block on them
    // forever.
    for (int k = 0; load != nullptr && !halted() && k < opt.load_steps_per_txn;
         ++k) {
      if (!load->Step()) {
        break;
      }
    }
    Status bs = s.p_begin();
    if (halted()) {
      // Nothing of this transaction was attempted: recovery must show
      // exactly the acked state.
      out->crashed = true;
      out->with_inflight = out->acked;
      return;
    }
    if (!bs.ok()) {
      out->error = "p_begin: " + bs.ToString();
      return;
    }
    FileState pending = out->acked;
    const int nops = 1 + static_cast<int>(rng.Uniform(3));
    for (int op = 0; op < nops; ++op) {
      std::vector<std::string> files;
      files.reserve(pending.size());
      for (const auto& [path, content] : pending) {
        files.push_back(path);
      }
      Status os = Status::Ok();
      const uint64_t dice = rng.Uniform(100);
      if (files.empty() ||
          (files.size() < static_cast<size_t>(opt.max_files) && dice < 35)) {
        // Create a fresh file with initial content.
        const std::string path = "/t" + std::to_string(next_file++) + ".dat";
        const std::string payload =
            RandomPayload(rng, 1 + rng.Uniform(9000));
        auto fd = s.p_creat(path);
        if (fd.ok()) {
          auto w = s.p_write(*fd, AsBytes(payload));
          os = w.ok() ? s.p_close(*fd) : w.status();
        } else {
          os = fd.status();
        }
        if (os.ok()) {
          pending[path] = payload;
        }
      } else if (dice < 50 && files.size() > 1) {
        const std::string path = files[rng.Uniform(files.size())];
        os = s.unlink(path);
        if (os.ok()) {
          pending.erase(path);
        }
      } else {
        // Overwrite/extend an existing file at a random offset <= size.
        const std::string path = files[rng.Uniform(files.size())];
        std::string& content = pending[path];
        const int64_t offset =
            static_cast<int64_t>(rng.Uniform(content.size() + 1));
        const std::string payload =
            RandomPayload(rng, 1 + rng.Uniform(6000));
        auto fd = s.p_open(path, OpenMode::kWrite);
        if (fd.ok()) {
          auto sk = s.p_lseek(*fd, offset, Whence::kSet);
          if (sk.ok()) {
            auto w = s.p_write(*fd, AsBytes(payload));
            os = w.ok() ? s.p_close(*fd) : w.status();
          } else {
            os = sk.status();
          }
        } else {
          os = fd.status();
        }
        if (os.ok()) {
          ApplyWrite(&content, offset, payload);
        }
      }
      if (halted()) {
        // The halt fired inside an operation, before any commit record for
        // this transaction could exist: it must be fully invisible.
        out->crashed = true;
        out->with_inflight = out->acked;
        return;
      }
      if (!os.ok()) {
        out->error = "workload op: " + os.ToString();
        return;
      }
    }
    Status cs = s.p_commit();
    if (halted()) {
      // The halt overlapped the commit protocol. Whether the commit record
      // reached the device decides the outcome; the client never saw an ack,
      // so recovery may legitimately show either state — but nothing in
      // between (atomicity).
      out->crashed = true;
      out->indeterminate = true;
      out->with_inflight = pending;
      return;
    }
    if (!cs.ok()) {
      out->error = "p_commit: " + cs.ToString();
      return;
    }
    out->acked = pending;
  }
  out->completed = true;
  out->with_inflight = out->acked;
}

// Read the recovered file system's actual state through a fresh session.
Result<FileState> ReadActualState(InversionFs* fs) {
  INV_ASSIGN_OR_RETURN(auto session, fs->NewSession());
  FileState actual;
  INV_ASSIGN_OR_RETURN(auto entries, session->readdir("/"));
  for (const DirEntry& e : entries) {
    if (e.is_directory) {
      continue;
    }
    const std::string path = "/" + e.name;
    INV_ASSIGN_OR_RETURN(int fd, session->p_open(path, OpenMode::kRead));
    INV_ASSIGN_OR_RETURN(FileStat st, session->p_fstat(fd));
    std::string content(static_cast<size_t>(st.size), '\0');
    int64_t got = 0;
    while (got < st.size) {
      std::span<std::byte> buf{
          reinterpret_cast<std::byte*>(content.data()) + got,
          static_cast<size_t>(st.size - got)};
      INV_ASSIGN_OR_RETURN(int64_t n, session->p_read(fd, buf));
      if (n <= 0) {
        break;
      }
      got += n;
    }
    if (got != st.size) {
      return Status::Corruption(path + ": read " + std::to_string(got) +
                                " of " + std::to_string(st.size) + " bytes");
    }
    INV_RETURN_IF_ERROR(session->p_close(fd));
    actual[path] = std::move(content);
  }
  return actual;
}

std::string DescribeDiff(const FileState& expect, const FileState& actual) {
  for (const auto& [path, content] : expect) {
    auto it = actual.find(path);
    if (it == actual.end()) {
      return path + " missing (expected " + std::to_string(content.size()) +
             " bytes)";
    }
    if (it->second != content) {
      return path + " content mismatch (expected " +
             std::to_string(content.size()) + " bytes, got " +
             std::to_string(it->second.size()) + ")";
    }
  }
  for (const auto& [path, content] : actual) {
    if (!expect.contains(path)) {
      return path + " present (" + std::to_string(content.size()) +
             " bytes) but should not exist";
    }
  }
  return "";
}

struct Schedule {
  std::string name;
  bool is_point = false;
  std::string point;
  uint64_t occurrence = 0;
  uint64_t write_n = 0;  // for the device-write sweep
};

WorldOptions TortureWorldOptions(const TortureOptions& opt,
                                 FaultInjector* injector) {
  WorldOptions wopt;
  wopt.db.buffers = opt.buffers;
  wopt.db.fault_injector = injector;
  return wopt;
}

LoadGenOptions TortureLoadOptions(const TortureOptions& opt) {
  LoadGenOptions lopt;
  lopt.seed = opt.seed;
  // A horizon far beyond what the sweep pumps, so the driver never runs dry
  // mid-schedule and every replay pops the identical arrival sequence.
  lopt.seconds = 600.0;
  return lopt;
}

// Run one schedule end to end; returns "" on pass, else the failure line.
std::string RunSchedule(const TortureOptions& opt, const Schedule& sched,
                        TortureReport* report) {
  FaultInjector injector(opt.seed);
  auto world_or = InversionWorld::Create(TortureWorldOptions(opt, &injector));
  if (!world_or.ok()) {
    return sched.name + ": world setup failed: " +
           world_or.status().ToString();
  }
  std::unique_ptr<InversionWorld> world = std::move(*world_or);

  // The load driver's own setup (directories, file pools, migration rule) is
  // bootstrap traffic too: run it before arming.
  std::unique_ptr<LoadGen> load;
  if (opt.under_load) {
    load = std::make_unique<LoadGen>(&world->fs(), TortureLoadOptions(opt));
    if (Status ls = load->Setup(); !ls.ok()) {
      return sched.name + ": loadgen setup failed: " + ls.ToString();
    }
  }

  // Arm *after* setup so bootstrap traffic is not part of the schedule.
  if (sched.is_point) {
    CrashPointRegistry::Instance().Arm(sched.point, sched.occurrence,
                                       [&injector] { injector.Crash(); });
    injector.Arm({});  // reset the relative op counters
  } else {
    FaultSpec spec;
    spec.kind = FaultSpec::Kind::kCrash;
    spec.op = FaultSpec::Op::kWrite;
    spec.at = sched.write_n;
    injector.ArmOne(spec);
  }

  RunOutcome out;
  RunWorkload(opt, world.get(), &injector, &out, load.get());
  CrashPointRegistry::Instance().Disarm();
  if (!out.error.empty()) {
    return sched.name + ": " + out.error;
  }
  if (!out.crashed) {
    ++report->not_reached;
    return "";
  }
  ++report->crashes;
  if (out.indeterminate) {
    ++report->indeterminate;
  }

  // Freeze and snapshot the crash image.
  world->db().Crash();
  auto* disk = dynamic_cast<MemBlockStore*>(world->env().disk_store.get());
  auto* nvram = dynamic_cast<MemBlockStore*>(world->env().nvram_store.get());
  auto* jukebox = dynamic_cast<MemBlockStore*>(world->env().jukebox_store.get());
  if (disk == nullptr || nvram == nullptr || jukebox == nullptr) {
    return sched.name + ": torture requires MemBlockStore-backed worlds";
  }
  StorageEnv renv;
  renv.disk_store = disk->Clone();
  renv.nvram_store = nvram->Clone();
  renv.jukebox_store = jukebox->Clone();
  // Simulated time continues past the crash; without this, new snapshots in
  // the reopened database would predate already-committed timestamps.
  renv.clock.Advance(world->env().clock.Peek());
  load.reset();  // its sessions point into the world being destroyed
  world.reset();

  // Reopen: recovery is nothing but reading the commit log.
  auto db_or = Database::Open(&renv);
  if (!db_or.ok()) {
    return sched.name + ": recovery failed: " + db_or.status().ToString();
  }
  std::unique_ptr<Database> db = std::move(*db_or);

  // Structural verification of the recovered image.
  auto check = CheckImage(renv);
  if (!check.ok()) {
    return sched.name + ": invfs_check errored: " + check.status().ToString();
  }
  // Provably-dead crash residue (uncataloged relations, index entries past
  // the persisted end of their heap) is what a mid-transaction crash
  // legitimately leaves for vacuum; anything else is a real failure.
  if (!check->OnlyResidue()) {
    std::string first;
    for (const Violation& v : check->violations) {
      if (!v.residue) {
        first = v.ToString();
        break;
      }
    }
    return sched.name + ": invfs_check found " +
           std::to_string(check->violations.size()) +
           " violations; first non-residue: " + first;
  }

  // Semantic oracle.
  InversionFs fs(db.get());
  if (Status ms = fs.Mount(); !ms.ok()) {
    return sched.name + ": remount failed: " + ms.ToString();
  }
  auto actual_or = ReadActualState(&fs);
  if (!actual_or.ok()) {
    return sched.name + ": reading recovered state failed: " +
           actual_or.status().ToString();
  }
  const FileState& actual = *actual_or;
  const std::string diff_acked = DescribeDiff(out.acked, actual);
  if (diff_acked.empty()) {
    return "";
  }
  if (out.indeterminate) {
    const std::string diff_inflight = DescribeDiff(out.with_inflight, actual);
    if (diff_inflight.empty()) {
      return "";  // the overlapped commit landed in full: also legal
    }
    return sched.name + ": oracle failed (matches neither side of the " +
           "in-flight commit): vs-acked: " + diff_acked +
           "; vs-committed: " + diff_inflight;
  }
  return sched.name + ": oracle failed: " + diff_acked;
}

// Evenly spread `want` occurrence indices over [1, count].
std::vector<uint64_t> SpreadOccurrences(uint64_t count, uint64_t want) {
  std::set<uint64_t> picks;
  if (count == 0 || want == 0) {
    return {};
  }
  if (want >= count) {
    for (uint64_t i = 1; i <= count; ++i) {
      picks.insert(i);
    }
  } else {
    for (uint64_t i = 0; i < want; ++i) {
      picks.insert(1 + i * (count - 1) / (want - 1 == 0 ? 1 : want - 1));
    }
  }
  return {picks.begin(), picks.end()};
}

}  // namespace

std::string TortureReport::Summary() const {
  std::string s = "torture: " + std::to_string(schedules) + " schedules, " +
                  std::to_string(crashes) + " crashes (" +
                  std::to_string(indeterminate) + " in-flight commits, " +
                  std::to_string(not_reached) + " not reached), " +
                  std::to_string(recorded_writes) + " recorded writes, " +
                  std::to_string(failures.size()) + " failures";
  if (load_ops != 0) {
    s += " [under load: " + std::to_string(load_ops) + " tenant ops/pass]";
  }
  for (const std::string& f : failures) {
    s += "\n  FAIL " + f;
  }
  return s;
}

Result<TortureReport> RunTorture(const TortureOptions& opt) {
  TortureReport report;

  // ---- recording pass ------------------------------------------------------
  std::map<std::string, uint64_t> counts;
  {
    FaultInjector injector(opt.seed);
    INV_ASSIGN_OR_RETURN(
        auto world, InversionWorld::Create(TortureWorldOptions(opt, &injector)));
    std::unique_ptr<LoadGen> load;
    if (opt.under_load) {
      load = std::make_unique<LoadGen>(&world->fs(), TortureLoadOptions(opt));
      INV_RETURN_IF_ERROR(load->Setup());
    }
    CrashPointRegistry::Instance().StartRecording();
    injector.Arm({});  // reset relative counters after bootstrap
    RunOutcome out;
    RunWorkload(opt, world.get(), &injector, &out, load.get());
    counts = CrashPointRegistry::Instance().StopRecording();
    if (!out.completed) {
      return Status::Internal("baseline torture workload failed: " + out.error);
    }
    report.recorded_writes = injector.writes_since_arm();
    if (load != nullptr) {
      const LoadGenReport lr = load->Report();
      report.load_ops = lr.ops;
      if (lr.errors != 0) {
        return Status::Internal("baseline load traffic saw " +
                                std::to_string(lr.errors) + " errors");
      }
    }
    // The baseline image must verify before any fault is armed — otherwise
    // every schedule would "fail" for reasons unrelated to crashes.
    INV_ASSIGN_OR_RETURN(auto base_check, world->VerifyImage());
    if (!base_check.ok()) {
      return Status::Internal("baseline image has violations: " +
                              base_check.violations.front().ToString());
    }
  }
  for (const auto& [point, count] : counts) {
    report.crash_points.push_back(point + " x " + std::to_string(count));
  }

  // ---- schedule enumeration ------------------------------------------------
  std::vector<Schedule> schedules;
  if (opt.run_crash_points) {
    for (const auto& [point, count] : counts) {
      for (uint64_t occ : SpreadOccurrences(count, opt.occurrences_per_point)) {
        Schedule s;
        s.name = "point:" + point + "#" + std::to_string(occ);
        s.is_point = true;
        s.point = point;
        s.occurrence = occ;
        schedules.push_back(std::move(s));
      }
    }
  }
  if (opt.run_write_sweep && report.recorded_writes > 0 &&
      opt.write_sweep_schedules > 0) {
    const uint64_t stride =
        std::max<uint64_t>(1, report.recorded_writes / opt.write_sweep_schedules);
    for (uint64_t n = 1; n <= report.recorded_writes; n += stride) {
      Schedule s;
      s.name = "write#" + std::to_string(n);
      s.write_n = n;
      schedules.push_back(std::move(s));
    }
  }

  // ---- torture -------------------------------------------------------------
  for (const Schedule& sched : schedules) {
    ++report.schedules;
    const std::string failure = RunSchedule(opt, sched, &report);
    if (opt.verbose) {
      std::printf("  %-40s %s\n", sched.name.c_str(),
                  failure.empty() ? "ok" : failure.c_str());
    }
    if (!failure.empty()) {
      report.failures.push_back(failure);
    }
  }
  return report;
}

}  // namespace invfs

#include "src/fault/torture.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "src/fault/crash_points.h"
#include "src/fault/faulty_transport.h"
#include "src/fault/switch_entry.h"
#include "src/harness/worlds.h"
#include "src/load/loadgen.h"
#include "src/net/rpc.h"
#include "src/util/random.h"

namespace invfs {
namespace {

// The plan's namespace (the load driver works under /load).
constexpr char kRoot[] = "/t";
// Load-driver arrivals pumped between consecutive plan steps.
constexpr int kLoadStepsPerStep = 2;

constexpr NetFaultSpec::Kind kWireKinds[] = {
    NetFaultSpec::Kind::kDropRequest, NetFaultSpec::Kind::kDropResponse,
    NetFaultSpec::Kind::kDuplicateRequest,
    NetFaultSpec::Kind::kTruncateResponse, NetFaultSpec::Kind::kReset,
};

bool Selected(const TortureOptions& opt, TortureDomain domain) {
  return ((opt.domains >> static_cast<unsigned>(domain)) & 1u) != 0;
}

std::string FileName(int i) {
  return std::string(kRoot) + "/f" + std::to_string(i);
}

// ---- plan ------------------------------------------------------------------

struct Op {
  enum Kind : uint8_t { kCreate, kAppend, kOverwrite, kRename, kUnlink, kVacuum };
  Kind kind = kCreate;
  int file = 0;      // index of the file the op targets
  int to = 0;        // rename target index
  uint32_t len = 0;  // payload bytes
  uint64_t tag = 0;  // payload seed and overwrite-offset selector
};

struct Step {
  bool txn = false;  // an explicit transaction, else one autocommit op
  std::vector<Op> ops;
};

// Distinct per tag: a duplicated append or a replayed write is content the
// oracle can see.
std::string Payload(uint64_t tag, uint32_t len) {
  Rng rng(tag);
  std::string s(len, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.Next());
  }
  return s;
}

// The plan tracks which file indices exist, so every op is well-formed on an
// unfaulted run. After an injected failure a later op may find the namespace
// different and fail; that is legal, and the oracle still judges it.
std::vector<Step> MakePlan(const TortureOptions& opt) {
  Rng rng(opt.seed * 0x9E3779B9ULL + 17);
  std::set<int> exists;
  const auto pick = [&rng](const std::vector<int>& v) {
    return v[rng.Uniform(v.size())];
  };
  std::vector<Step> plan(static_cast<size_t>(opt.steps));
  for (Step& step : plan) {
    step.txn = rng.Uniform(3) != 0;
    const uint64_t nops = step.txn ? 1 + rng.Uniform(3) : 1;
    for (uint64_t i = 0; i < nops; ++i) {
      const std::vector<int> live(exists.begin(), exists.end());
      std::vector<int> absent;
      for (int f = 0; f < opt.max_files; ++f) {
        if (!exists.contains(f)) {
          absent.push_back(f);
        }
      }
      Op op;
      op.tag = rng.Next();
      const uint64_t dice = rng.Uniform(100);
      if (live.empty() || (!absent.empty() && dice < 40)) {
        op.kind = Op::kCreate;
        op.file = pick(absent);
        exists.insert(op.file);
      } else if (dice < 50 && live.size() > 1) {
        op.kind = Op::kUnlink;
        op.file = pick(live);
        exists.erase(op.file);
      } else if (dice < 58 && !absent.empty()) {
        op.kind = Op::kRename;
        op.file = pick(live);
        op.to = pick(absent);
        exists.erase(op.file);
        exists.insert(op.to);
      } else if (dice < 92) {
        op.kind = dice < 78 ? Op::kAppend : Op::kOverwrite;
        op.file = pick(live);
      } else {
        op.kind = Op::kVacuum;
      }
      op.len = 1 + static_cast<uint32_t>(
                       rng.Uniform(op.kind == Op::kCreate ? 9000 : 6000));
      step.ops.push_back(op);
    }
  }
  return plan;
}

// ---- executor --------------------------------------------------------------

// What one replay of the plan left behind.
struct RunOutcome {
  FileState acked;   // every acked call applied
  FileState landed;  // acked + the call or commit in flight at the halt
  bool halted = false;
  bool halted_in_vacuum = false;
  uint64_t failed_ops = 0;  // ops that failed other than by the halt
  // The time just before each vacuum op began, and the acked state then:
  // an as-of read at that time must show it, whatever the vacuum did.
  std::vector<std::pair<Timestamp, FileState>> before_vacuum;
};

// What a call does to the file state if it lands.
using Effect = std::function<void(FileState&)>;

// Runs the plan through one client: InvSession in process, or
// RemoteFileClient over the wire, whose p_*, rename and unlink match.
template <typename Client>
class Executor {
 public:
  // `fs` serves the in-process client's vacuum ops.
  Executor(Client* client, const FaultInjector* injector, LoadGen* load,
           InversionFs* fs)
      : c_(client), injector_(injector), load_(load), fs_(fs) {}

  RunOutcome Run(const std::vector<Step>& plan) {
    for (const Step& step : plan) {
      // Foreign tenant traffic runs between steps, never inside one: no
      // step holds locks here and every load op is transaction-complete, so
      // the interleaving cannot deadlock. Never once the image halted: a
      // commit the halt interrupted died holding its locks, and one more load
      // op would wait on them forever.
      for (int k = 0; load_ != nullptr && k < kLoadStepsPerStep &&
                      !Halted() && load_->Step();
           ++k) {
      }
      const bool ok = step.txn ? RunTxn(step.ops) : RunOp(step.ops.front());
      if (!ok && !Halted()) {
        ++out_.failed_ops;
      }
    }
    if (!Halted()) {
      out_.landed = out_.acked;
    }
    return std::move(out_);
  }

 private:
  // True once the image froze. The first time it notices, it fixes the
  // state recovery may show besides the acked one: `in_flight` landed.
  bool Halted(const Effect* in_flight = nullptr) {
    if (!out_.halted && injector_->crashed()) {
      out_.halted = true;
      out_.halted_in_vacuum = in_vacuum_;
      out_.landed = out_.acked;
      if (in_flight != nullptr && *in_flight) {
        (*in_flight)(out_.landed);
      }
    }
    return out_.halted;
  }

  // Make one call. Its `effect` enters the mirror only once the call is
  // acked: inside a transaction it joins the commit's effect, outside one the
  // call commits on its own, so its effect is also what a halt mid-call may
  // land. A call the halt interrupted failed: its ack was never seen.
  template <typename Fn>
  auto Call(Fn&& fn, Effect effect = nullptr) -> decltype(fn()) {
    if (Halted()) {
      return Status::IoError("image halted");
    }
    auto result = fn();
    if (Halted(in_txn_ ? nullptr : &effect)) {
      return Status::IoError("image halted");
    }
    if (result.ok() && effect) {
      if (in_txn_) {
        txn_effects_.push_back(std::move(effect));
      } else {
        effect(out_.acked);
      }
    }
    return result;
  }

  bool RunTxn(const std::vector<Op>& ops) {
    if (!Call([&] { return c_->p_begin(); }).ok()) {
      return false;
    }
    in_txn_ = true;
    const bool ok = std::all_of(ops.begin(), ops.end(),
                                [this](const Op& op) { return RunOp(op); });
    in_txn_ = false;
    // The commit lands every acked call of the transaction, or none.
    Effect all = [effects = std::exchange(txn_effects_, {})](FileState& s) {
      for (const Effect& e : effects) {
        e(s);
      }
    };
    if (ok && Call([&] { return c_->p_commit(); }, std::move(all)).ok()) {
      return true;
    }
    (void)Call([&] { return c_->p_abort(); });
    return false;
  }

  bool RunOp(const Op& op) {
    const std::string path = FileName(op.file);
    switch (op.kind) {
      case Op::kRename: {
        const std::string to = FileName(op.to);
        return Call([&] { return c_->rename(path, to); },
                    [path, to](FileState& s) {
                      if (auto node = s.extract(path)) {
                        s[to] = std::move(node.mapped());
                      }
                    })
            .ok();
      }
      case Op::kUnlink:
        return Call([&] { return c_->unlink(path); },
                    [path](FileState& s) { s.erase(path); })
            .ok();
      case Op::kVacuum:
        return Vacuum();
      default:
        return Write(op, path);
    }
  }

  // Vacuum every table, in the open transaction or in one of its own. It
  // changes no file, so it has no effect to land. The wire client has no
  // vacuum call: there the op does nothing.
  bool Vacuum() {
    if constexpr (!std::is_same_v<Client, InvSession>) {
      return true;
    } else {
      if (Halted()) {
        return false;
      }
      out_.before_vacuum.emplace_back(fs_->db().Now(), out_.acked);
      in_vacuum_ = true;
      const bool own = !c_->in_txn();
      bool ok = !own || Call([&] { return c_->p_begin(); }).ok();
      ok = ok && Call([&] { return fs_->Vacuum(c_->txn()).status(); }).ok();
      if (own && c_->in_txn()) {
        ok = ok && Call([&] { return c_->p_commit(); }).ok();
        if (!ok) {
          (void)Call([&] { return c_->p_abort(); });
        }
      }
      in_vacuum_ = false;
      return ok;
    }
  }

  // Create, append or overwrite: get a descriptor, seek, write the op's
  // payload, close. An append lands at the end, an overwrite at the tag's
  // pick of [0, size]. The mirror places the payload from its own view of the
  // file, so a client whose view disagrees shows up in the read-back.
  bool Write(const Op& op, const std::string& path) {
    auto fd = op.kind == Op::kCreate
                  ? Call([&] { return c_->p_creat(path); },
                         [path](FileState& s) { s[path]; })
                  : Call([&] { return c_->p_open(path, OpenMode::kWrite); });
    if (!fd.ok()) {
      return false;
    }
    const bool overwrite = op.kind == Op::kOverwrite;
    const auto place = [overwrite, tag = op.tag](uint64_t size) {
      return overwrite ? tag % (size + 1) : size;
    };
    auto end = Call([&] { return c_->p_lseek(*fd, 0, Whence::kEnd); });
    Status st = end.status();
    if (st.ok() && overwrite) {
      const auto at = static_cast<int64_t>(place(static_cast<uint64_t>(*end)));
      st = Call([&] { return c_->p_lseek(*fd, at, Whence::kSet); }).status();
    }
    const std::string payload = Payload(op.tag, op.len);
    if (st.ok()) {
      const auto bytes = std::as_bytes(std::span(payload));
      st = Call([&] { return c_->p_write(*fd, bytes); },
                [path, payload, place](FileState& s) {
                  std::string& content = s[path];
                  const size_t at = place(content.size());
                  content.resize(std::max(content.size(), at + payload.size()));
                  content.replace(at, payload.size(), payload);
                })
               .status();
    }
    // Close even after a failed write: the descriptor must not outlive the op.
    const Status close = Call([&] { return c_->p_close(*fd); });
    return st.ok() && close.ok();
  }

  Client* c_;
  const FaultInjector* injector_;
  LoadGen* load_;
  InversionFs* fs_;
  bool in_txn_ = false;
  bool in_vacuum_ = false;
  std::vector<Effect> txn_effects_;  // acked calls of the open transaction
  RunOutcome out_;
};

// ---- one replay ------------------------------------------------------------

// One world for one replay; the wire domain adds a retrying client on a
// faulty wire in front of the world's RPC server. Members are destroyed
// bottom-up: clients before the world they talk to, the world before its
// injector.
struct Rig {
  explicit Rig(uint64_t seed) : injector(seed) {}

  FaultInjector injector;
  std::unique_ptr<InversionWorld> world;
  std::unique_ptr<LoadGen> load;
  std::unique_ptr<FaultyTransport> wire;
  std::unique_ptr<RemoteFileClient> client;

  RunOutcome Execute(const std::vector<Step>& plan) {
    if (client != nullptr) {
      return Executor<RemoteFileClient>(client.get(), &injector, load.get(), nullptr)
          .Run(plan);
    }
    return Executor<InvSession>(&world->session(), &injector, load.get(),
                                &world->fs())
        .Run(plan);
  }
};

Result<std::unique_ptr<Rig>> OpenRig(const TortureOptions& opt, bool wire) {
  auto rig = std::make_unique<Rig>(opt.seed);
  WorldOptions wopt;
  wopt.db.buffers = opt.buffers;
  wopt.db.fault_injector = &rig->injector;
  INV_ASSIGN_OR_RETURN(rig->world, InversionWorld::Create(wopt));
  InversionWorld& w = *rig->world;
  if (opt.under_load) {
    LoadGenOptions lopt;
    lopt.seed = opt.seed;
    // A horizon far beyond what the sweep pumps, so the driver never runs dry
    // mid-replay and every replay pops the identical arrival sequence.
    lopt.seconds = 600.0;
    rig->load = std::make_unique<LoadGen>(&w.fs(), lopt);
    INV_RETURN_IF_ERROR(rig->load->Setup());
  }
  if (wire) {
    rig->wire = std::make_unique<FaultyTransport>(
        &w.transport(), &w.clock(), opt.seed, &w.db().metrics());
    RpcClientOptions copts;
    copts.clock = &w.clock();
    copts.metrics = &w.db().metrics();
    rig->client = std::make_unique<RemoteFileClient>(rig->wire.get(), copts);
  }
  // Like the load driver's setup, the plan's directory is bootstrap traffic:
  // it exists before anything is armed or counted.
  INV_RETURN_IF_ERROR(rig->client != nullptr ? rig->client->mkdir(kRoot)
                                             : w.session().mkdir(kRoot));
  return rig;
}

// ---- the verdict -----------------------------------------------------------

// The plan's namespace and bytes as of `as_of`, read back through a fresh
// session.
Result<FileState> ReadBack(InversionFs* fs, Timestamp as_of = kTimestampNow) {
  INV_ASSIGN_OR_RETURN(auto session, fs->NewSession());
  FileState actual;
  INV_ASSIGN_OR_RETURN(auto entries, session->readdir(kRoot, as_of));
  for (const DirEntry& e : entries) {
    const std::string path = std::string(kRoot) + "/" + e.name;
    INV_ASSIGN_OR_RETURN(int fd, session->p_open(path, OpenMode::kRead, as_of));
    INV_ASSIGN_OR_RETURN(FileStat st, session->p_fstat(fd));
    std::string content(static_cast<size_t>(st.size), '\0');
    INV_ASSIGN_OR_RETURN(
        int64_t got,
        session->p_read(fd, std::as_writable_bytes(std::span(content))));
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

// The verdict on one replay: "" when it passed, else what is wrong. A halted
// image is taken from the torn-down rig and reopened; an image that never
// halted is flushed and judged live. Either way a fresh mount reads it back.
// `faulted` says whether the schedule's fault fired: only then may the image
// hold crash residue.
std::string Judge(TortureDomain domain, std::unique_ptr<Rig> rig,
                  const RunOutcome& out, bool faulted) {
  // A halt fails no op, it stops the replay; only a wire fault fails ops.
  if (out.failed_ops != 0 && !(domain == TortureDomain::kWire && faulted)) {
    return std::to_string(out.failed_ops) + " ops failed with no wire fault";
  }
  StorageEnv renv;
  std::unique_ptr<Database> recovered;
  StorageEnv* env = &rig->world->env();
  Database* db = &rig->world->db();
  if (out.halted) {
    // The injector refuses every later device operation, so the stores hold
    // exactly what a power cut would have left; the frozen world's teardown
    // cannot touch them.
    db->Crash();
    std::swap(renv.disk_store, env->disk_store);
    std::swap(renv.nvram_store, env->nvram_store);
    std::swap(renv.jukebox_store, env->jukebox_store);
    // Simulated time continues past the crash; without this, new snapshots
    // in the reopened database would predate already-committed timestamps.
    renv.clock.Advance(env->clock.Peek());
    rig.reset();
    // Reopen: recovery is nothing but reading the commit log.
    auto db_or = Database::Open(&renv);
    if (!db_or.ok()) {
      return "recovery failed: " + db_or.status().ToString();
    }
    recovered = std::move(*db_or);
    env = &renv;
    db = recovered.get();
  } else if (Status flush = db->FlushCaches(); !flush.ok()) {
    return "flush failed: " + flush.ToString();
  }

  auto check = CheckImage(*env);
  if (!check.ok()) {
    return "invfs_check errored: " + check.status().ToString();
  }
  // Provably-dead residue (uncataloged relations, index entries past the
  // persisted end of their heap) is what an interrupted transaction
  // legitimately leaves for vacuum; anything else is a real failure.
  for (const Violation& v : check->violations) {
    if (!v.residue || !faulted) {
      return "invfs_check found " + std::to_string(check->violations.size()) +
             " violations; first not allowed: " + v.ToString();
    }
  }
  const size_t txns = db->txns().ActiveTxnCount();
  const size_t locked = db->locks().NumLockedRelations();
  if (txns != 0 || locked != 0) {
    return "orphaned state: " + std::to_string(txns) +
           " transactions still active, " + std::to_string(locked) +
           " relations still locked";
  }

  InversionFs fs(db);
  if (Status ms = fs.Mount(); !ms.ok()) {
    return "mount failed: " + ms.ToString();
  }
  auto actual = ReadBack(&fs);
  if (!actual.ok()) {
    return "reading back failed: " + actual.status().ToString();
  }
  // Vacuum moves history to the archive; none of it may be lost.
  for (size_t i = 0; i < out.before_vacuum.size(); ++i) {
    const auto& [at, expect] = out.before_vacuum[i];
    const std::string which = "as of before vacuum " + std::to_string(i + 1);
    auto old = ReadBack(&fs, at);
    if (!old.ok()) {
      return "reading back " + which + " failed: " + old.status().ToString();
    }
    if (std::string diff = DescribeDiff(expect, *old); !diff.empty()) {
      return "oracle failed " + which + ": " + diff;
    }
  }
  return JudgeState(domain, out.acked, out.landed, *actual);
}

// ---- schedules -------------------------------------------------------------

// A count a recording pass made: how often one selector's event happened.
struct Event {
  TortureDomain domain;
  std::string selector;  // crash point, "device.write" or wire fault kind
  uint64_t count = 0;
  NetFaultSpec::Kind kind{};  // wire domain only
};

struct Schedule {
  std::string name;
  const Event* event = nullptr;
  uint64_t at = 0;  // 1-based occurrence of the event to fault
};

// Every `stride`-th occurrence of [1, count], the stride picked so that
// min(want, count) or more positions run.
std::vector<uint64_t> SpreadOccurrences(uint64_t count, uint64_t want) {
  std::vector<uint64_t> at;
  if (want == 0) {
    return at;
  }
  const uint64_t stride = std::max<uint64_t>(1, count / want);
  for (uint64_t n = 1; n <= count; n += stride) {
    at.push_back(n);
  }
  return at;
}

// One replay of the plan on a fresh rig, and its verdict: "" on pass, else
// what is wrong. With `sched` it arms that one fault and adds the replay to
// the domain stats. Without, it is the recording pass of `domain`'s client
// path: it adds every event a schedule can land on to `events`, and must fail
// no op and pass the verdict, or every schedule would fail for reasons
// unrelated to faults.
std::string Replay(const TortureOptions& opt, const std::vector<Step>& plan,
                   TortureDomain domain, const Schedule* sched,
                   TortureReport* report, std::vector<Event>* events) {
  const bool wire = domain == TortureDomain::kWire;
  auto rig_or = OpenRig(opt, wire);
  if (!rig_or.ok()) {
    return "setup failed: " + rig_or.status().ToString();
  }
  std::unique_ptr<Rig> rig = std::move(*rig_or);
  FaultInjector& injector = rig->injector;
  CrashPointRegistry& points = CrashPointRegistry::Instance();
  // Counts restart here: bootstrap traffic is never scheduled.
  injector.Arm({});
  if (wire) {
    rig->wire->Arm({});
  }
  if (sched == nullptr) {
    points.StartRecording();
  } else if (domain == TortureDomain::kPoints) {
    points.Arm(sched->event->selector, sched->at,
               [&injector] { injector.Crash(); });
  } else if (domain == TortureDomain::kWrites) {
    injector.ArmOne({.kind = FaultSpec::Kind::kCrash,
                     .op = FaultSpec::Op::kWrite,
                     .at = sched->at});
  } else {
    rig->wire->ArmOne({.kind = sched->event->kind, .at = sched->at});
  }
  const RunOutcome out = rig->Execute(plan);
  // Nothing armed may fire while the verdict flushes and reads the image.
  const std::map<std::string, uint64_t> hits = points.StopRecording();
  points.Disarm();
  injector.Disarm();
  if (wire) {
    rig->wire->Disarm();
  }
  const bool fired =
      injector.crashed() || (wire && rig->wire->faults_fired() > 0);

  if (sched == nullptr) {
    if (wire) {
      const uint64_t n = rig->wire->exchanges_since_arm();
      report->recorded["wire.exchange"] = n;
      for (const NetFaultSpec::Kind kind : kWireKinds) {
        events->push_back({domain, NetFaultKindName(kind), n, kind});
      }
    } else {
      for (const auto& [point, count] : hits) {
        report->recorded["point:" + point] = count;
        events->push_back({TortureDomain::kPoints, point, count});
      }
      const uint64_t n = injector.writes_since_arm();
      report->recorded["device.write"] = n;
      events->push_back({TortureDomain::kWrites, "device.write", n});
    }
    if (!wire) {
      report->vacuums = out.before_vacuum.size();
    }
    if (rig->load != nullptr) {
      const LoadGenReport lr = rig->load->Report();
      report->load_ops = lr.ops;
      if (lr.errors != 0) {
        return "load traffic saw " + std::to_string(lr.errors) + " errors";
      }
    }
  } else {
    TortureReport::DomainStats& stats =
        report->domains[static_cast<size_t>(domain)];
    ++(fired ? stats.fired : stats.not_reached);
    if (out.halted && out.landed != out.acked) {
      ++stats.in_flight;
    }
    if (out.halted_in_vacuum) {
      ++stats.in_vacuum;
    }
    report->failed_ops += out.failed_ops;
    if (wire) {
      report->retries += rig->client->retries();
    }
  }
  return Judge(domain, std::move(rig), out, fired);
}

}  // namespace

const char* TortureDomainName(TortureDomain domain) {
  static constexpr const char* kNames[] = {"points", "writes", "wire"};
  return kNames[static_cast<size_t>(domain)];
}

std::string JudgeState(TortureDomain domain, const FileState& acked,
                       const FileState& landed, const FileState& actual) {
  const std::string vs_acked = DescribeDiff(acked, actual);
  if (vs_acked.empty()) {
    return "";
  }
  if (domain == TortureDomain::kWire || landed == acked) {
    return "oracle failed: " + vs_acked;
  }
  // The client never saw the interrupted call's ack, so recovery may show
  // it landed in full — but nothing in between.
  const std::string vs_landed = DescribeDiff(landed, actual);
  if (vs_landed.empty()) {
    return "";
  }
  return "oracle failed (matches neither side of the in-flight call): "
         "vs-acked: " + vs_acked + "; vs-landed: " + vs_landed;
}

std::string TortureReport::Summary() const {
  std::string s;
  uint64_t total = 0;
  for (size_t i = 0; i < kNumTortureDomains; ++i) {
    const DomainStats& d = domains[i];
    total += d.schedules;
    if (d.schedules != 0) {
      s += std::string("torture ") +
           TortureDomainName(static_cast<TortureDomain>(i)) + ": " +
           std::to_string(d.schedules) + " schedules, " +
           std::to_string(d.fired) + " fired (" + std::to_string(d.in_flight) +
           " in flight, " + std::to_string(d.in_vacuum) + " in vacuum), " +
           std::to_string(d.not_reached) + " not reached\n";
    }
  }
  s += "torture: " + std::to_string(total) + " schedules, " +
       std::to_string(vacuums) + " vacuum ops/pass, " +
       std::to_string(failed_ops) + " failed ops, " +
       std::to_string(retries) + " retries, " +
       std::to_string(failures.size()) + " failures -> " +
       (ok() ? "PASS" : "FAIL");
  if (load_ops != 0) {
    s += " [under load: " + std::to_string(load_ops) + " tenant ops/pass]";
  }
  for (const std::string& f : failures) {
    s += "\n  FAIL " + f;
  }
  return s;
}

Result<TortureReport> RunTorture(const TortureOptions& opt) {
  if (opt.steps <= 0 || opt.max_files <= 0 || opt.buffers == 0) {
    return Status::InvalidArgument(
        "steps, max_files and buffers must be positive");
  }
  const std::vector<Step> plan = MakePlan(opt);
  TortureReport report;

  // ---- recording: one pass per client path the selected domains use -------
  std::vector<Event> events;
  const bool in_process = Selected(opt, TortureDomain::kPoints) ||
                          Selected(opt, TortureDomain::kWrites);
  for (const TortureDomain path :
       {TortureDomain::kPoints, TortureDomain::kWire}) {
    if (path == TortureDomain::kWire ? !Selected(opt, path) : !in_process) {
      continue;
    }
    const std::string failure =
        Replay(opt, plan, path, /*sched=*/nullptr, &report, &events);
    if (!failure.empty()) {
      return Status::Internal(std::string(TortureDomainName(path)) +
                              " recording pass: " + failure);
    }
  }

  // ---- enumeration ---------------------------------------------------------
  std::vector<Schedule> schedules;
  for (const Event& e : events) {
    if (!Selected(opt, e.domain)) {
      continue;
    }
    const uint64_t want = e.domain == TortureDomain::kWrites
                              ? opt.write_schedules
                              : opt.occurrences;
    for (const uint64_t at : SpreadOccurrences(e.count, want)) {
      schedules.push_back({std::string(TortureDomainName(e.domain)) + ":" +
                               e.selector + "#" + std::to_string(at),
                           &e, at});
      ++report.domains[static_cast<size_t>(e.domain)].schedules;
    }
  }
  // A domain that enumerates nothing proves nothing; do not let it pass.
  for (size_t i = 0; i < kNumTortureDomains; ++i) {
    const auto domain = static_cast<TortureDomain>(i);
    if (Selected(opt, domain) && report.domains[i].schedules == 0) {
      return Status::InvalidArgument(std::string("domain ") +
                                     TortureDomainName(domain) +
                                     " enumerated no schedules");
    }
  }

  // ---- the schedule loop ---------------------------------------------------
  for (const Schedule& sched : schedules) {
    report.schedules.push_back(sched.name);
    const std::string failure = Replay(opt, plan, sched.event->domain, &sched,
                                       &report, /*events=*/nullptr);
    if (!failure.empty()) {
      report.failures.push_back(sched.name + ": " + failure);
    }
  }
  return report;
}

}  // namespace invfs

// The benchmark's four workloads. Each pass builds a fresh InversionWorld
// (WorldOptions defaults: Berkeley's 300-buffer pool), times a fixed, seeded
// number of closed-loop operations, checks every result, and then checks the
// image. See README.md for why each workload exists.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <optional>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/device/device.h"
#include "src/sim/disk_model.h"
#include "src/util/random.h"

namespace perfbench {

using invfs::Database;
using invfs::InversionWorld;
using invfs::InvSession;
using invfs::NetModel;
using invfs::OpenMode;
using invfs::Result;
using invfs::Rng;
using invfs::Status;
using invfs::Whence;

Counts SampleCounts(Database& db, const NetModel* net) {
  Counts c;
  invfs::BufferPool& pool = db.buffers();
  c.v[kBufferHits] = pool.hits();
  c.v[kBufferMisses] = pool.misses();
  c.v[kEvictions] = pool.evictions();
  c.v[kWriteBacks] = pool.write_backs();
  c.v[kLogPageWrites] = db.commit_log().device_page_writes();
  invfs::MetricsRegistry& m = db.metrics();
  c.v[kCommits] = m.GetCounter("txn.commits")->Value();
  c.v[kReadOnlyBegins] = m.GetCounter("txn.read_only_begins")->Value();
  c.v[kLockAcquisitions] = m.GetCounter("lock.acquisitions")->Value();
  c.v[kLockWaits] = m.GetCounter("lock.waits")->Value();
  for (invfs::DeviceId id = 0; id < invfs::kMaxDevices; ++id) {
    if (!db.devices().Has(id)) {
      continue;
    }
    const std::string name(db.devices().Get(id)->name());
    c.v[kDeviceWriteBytes] += m.GetCounter("device.write_bytes", name)->Value();
    c.v[kDeviceSimUs] += m.GetHistogram("device.read_us", name)->Sum() +
                         m.GetHistogram("device.write_us", name)->Sum();
    if (id == invfs::kDeviceMagneticDisk) {
      c.v[kDiskReads] = m.GetCounter("device.reads", name)->Value();
      c.v[kDiskWrites] = m.GetCounter("device.writes", name)->Value();
      auto* disk = dynamic_cast<invfs::MagneticDiskDevice*>(
          db.devices().Get(id)->Underlying());
      if (disk != nullptr) {
        c.v[kDiskSeeks] = disk->disk_model().total_seeks();
      }
    }
  }
  c.v[kSpans] = m.spans().TotalRecorded();
  if (net != nullptr) {
    c.v[kNetMessages] = net->total_messages();
    c.v[kNetBytes] = net->total_bytes();
  }
  return c;
}

namespace {

constexpr int64_t kChunk = invfs::kInvChunkSize;

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Seeded payload bytes: word i is seed + i * kPatternStep. Regenerating it
// costs an add per word, so reads are checked byte for byte without keeping
// a copy of the expected data in the cache the engine is measured on.
constexpr uint64_t kPatternStep = 0x9E3779B97F4A7C15ULL;

void FillPayload(std::span<std::byte> out, uint64_t seed) {
  uint64_t word = seed;
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8, word += kPatternStep) {
    std::memcpy(out.data() + i, &word, 8);
  }
  std::memcpy(out.data() + i, &word, out.size() - i);
}

bool MatchesPayload(std::span<const std::byte> in, uint64_t seed) {
  uint64_t word = seed;
  uint64_t diff = 0;
  size_t i = 0;
  for (; i + 8 <= in.size(); i += 8, word += kPatternStep) {
    uint64_t got;
    std::memcpy(&got, in.data() + i, 8);
    diff |= got ^ word;
  }
  return diff == 0 && std::memcmp(in.data() + i, &word, in.size() - i) == 0;
}

// The Stopwatch's probe, in wall ns: the best of three runs of a fixed
// kernel that eight times fills an 8 KB payload, copies it to a slot of a
// `bytes`-sized buffer and compares it there. The payload and the slots sit
// at fixed offsets from a page boundary, half a page apart, so the probe's
// speed does not depend on where the allocator put them.
uint64_t ProbeNs(size_t bytes) {
  constexpr size_t kPage = 4096;
  thread_local std::vector<std::byte> arena;
  thread_local uint64_t round = 0;
  const size_t slots = std::max<size_t>(1, bytes / kChunk);
  const size_t span = slots * kChunk + kChunk + 2 * kPage;
  if (arena.size() != span) {
    arena.assign(span, std::byte{0});  // faulted in here, not while timed
  }
  const uintptr_t at = reinterpret_cast<uintptr_t>(arena.data());
  std::byte* src = arena.data() + ((kPage - at % kPage) % kPage);
  std::byte* far = src + (kChunk + kPage - 1) / kPage * kPage + kPage / 2;
  uint64_t best = UINT64_MAX;
  bool same = true;
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t start = NowNs();
    for (int i = 0; i < 8; ++i, ++round) {
      std::byte* slot = far + round * 2654435761u % slots * kChunk;
      FillPayload(std::span(src, kChunk), round);
      std::memcpy(slot, src, kChunk);
      same &= MatchesPayload(std::span<const std::byte>(slot, kChunk), round);
    }
    best = std::min(best, NowNs() - start);
  }
  if (!same) {
    std::abort();  // keeps the kernel's result live; a copy cannot differ
  }
  return best;
}

std::unique_ptr<InversionWorld> NewWorld(PassResult& r) {
  auto world = InversionWorld::Create();
  if (!world.ok()) {
    r.Fail("InversionWorld::Create: " + world.status().ToString());
    return nullptr;
  }
  return std::move(*world);
}

bool Check(PassResult& r, const Status& s, const char* what) {
  if (!s.ok()) {
    r.Fail(std::string(what) + ": " + s.ToString());
  }
  return s.ok();
}

template <typename T>
bool Check(PassResult& r, const Result<T>& s, const char* what) {
  return Check(r, s.status(), what);
}

}  // namespace

Stopwatch::Stopwatch(const Probe& probe, std::vector<uint32_t>* latency_ns)
    : probe_(probe),
      latency_ns_(latency_ns),
      first_unscaled_(latency_ns == nullptr ? 0 : latency_ns->size()) {
  TakeProbe();
  segment_start_ = NowNs();
}

void Stopwatch::TakeProbe() {
  probes_[probes_taken_++ % kProbeWindow] = ProbeNs(probe_.bytes);
}

void Stopwatch::CloseSegment() {
  const uint64_t raw = NowNs() - segment_start_;
  TakeProbe();
  std::array<uint64_t, kProbeWindow> last = probes_;
  const size_t n = std::min(probes_taken_, kProbeWindow);
  std::nth_element(last.begin(), last.begin() + n / 2, last.begin() + n);
  const double scale = static_cast<double>(probe_.nominal_ns) /
                       static_cast<double>(last[n / 2]);
  raw_ns_ += static_cast<double>(raw);
  scaled_ns_ += static_cast<double>(raw) * scale;
  if (latency_ns_ != nullptr) {
    for (size_t i = first_unscaled_; i < latency_ns_->size(); ++i) {
      (*latency_ns_)[i] = static_cast<uint32_t>(
          std::lround(static_cast<double>((*latency_ns_)[i]) * scale));
    }
    first_unscaled_ = latency_ns_->size();
  }
  segment_start_ = NowNs();
}

double Stopwatch::Stop() {
  CloseSegment();
  return scaled_ns_ / 1e9;
}

namespace {

// One timed window of a single-threaded pass: adds its wall time, sim time
// and counter deltas to the pass, and switches the pass's spans on inside.
// Ops record their latencies in the pass and call Tick() after each.
class Window {
 public:
  Window(PassResult& r, Database& db, const NetModel* net,
         const PassConfig& config)
      : r_(r), db_(db), net_(net), start_(SampleCounts(db, net)) {
    r_.spans.on = config.traced;
    sim_start_ = db_.clock().Peek();
    watch_.emplace(config.probe, &r_.latency_ns);
  }

  Stopwatch& watch() { return *watch_; }
  void Tick() { watch_->Tick(); }

  // Ends the window; returns its simulated seconds.
  double End() {
    r_.wall_s += watch_->Stop();
    r_.raw_wall_s += watch_->raw_s();
    const double sim = db_.clock().SecondsSince(sim_start_);
    r_.spans.on = false;
    r_.counts += SampleCounts(db_, net_) - start_;
    r_.sim_s += sim;
    return sim;
  }

 private:
  PassResult& r_;
  Database& db_;
  const NetModel* net_;
  Counts start_;
  invfs::SimMicros sim_start_ = 0;
  std::optional<Stopwatch> watch_;  // started last, after the samples above
};

// Bytes held by the world's block stores, per live user byte.
double SpaceAmp(InversionWorld& w, uint64_t live_bytes) {
  uint64_t stored = 0;
  for (invfs::BlockStore* store :
       {w.env().disk_store.get(), w.env().nvram_store.get(),
        w.env().jukebox_store.get()}) {
    for (invfs::Oid rel : store->ListRelations()) {
      auto blocks = store->NumBlocks(rel);
      if (blocks.ok()) {
        stored += uint64_t{*blocks} * invfs::kPageSize;
      }
    }
  }
  return static_cast<double>(stored) / static_cast<double>(live_bytes);
}

// After a timed phase: no transaction may be left open and the flushed image
// must pass the offline structural checker.
void CheckImage(PassResult& r, InversionWorld& w, uint64_t live_bytes) {
  if (w.db().txns().ActiveTxnCount() != 0) {
    r.Fail("transactions left active after the timed phase");
  }
  auto report = w.VerifyImage();
  if (Check(r, report, "VerifyImage") && !report->ok()) {
    r.Fail("invfs_check: " + report->ToString());
  }
  r.space_amp = SpaceAmp(w, live_bytes);
}

// The read workloads' promises: the working set stays cached, and readers
// never touch the lock manager.
void CheckReadPhase(PassResult& r) {
  if (r.counts[kBufferMisses] != 0) {
    r.Fail(std::to_string(r.counts[kBufferMisses]) +
           " buffer misses: the working set did not stay cached");
  }
  if (r.counts[kLockAcquisitions] != 0) {
    r.Fail(std::to_string(r.counts[kLockAcquisitions]) +
           " lock acquisitions on a read-only path");
  }
}

// Runs `body(t)` on `threads` threads released together; returns the wall
// nanoseconds from the first start to the last finish.
template <typename Body>
uint64_t RunThreads(int threads, Body&& body) {
  std::vector<uint64_t> start(threads), end(threads);
  std::latch ready(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.arrive_and_wait();
      start[t] = NowNs();
      body(t);
      end[t] = NowNs();
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  return *std::max_element(end.begin(), end.end()) -
         *std::min_element(start.begin(), start.end());
}

// Mean wall µs of one read-only Begin+Commit pair on `db`, with `threads`
// threads doing pairs at once.
double TimeReadOnlyTxns(PassResult& r, Database& db, int threads) {
  constexpr int kPairs = 20000;
  std::atomic<uint64_t> errors{0};
  const uint64_t wall = RunThreads(threads, [&](int) {
    for (int i = 0; i < kPairs; ++i) {
      auto txn = db.Begin(invfs::TxnMode::kReadOnly);
      if (!txn.ok() || !db.Commit(*txn).ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  if (errors.load() != 0) {
    r.Fail("read-only Begin/Commit failed " + std::to_string(errors.load()) +
           " times");
  }
  return static_cast<double>(wall) / 1e3 / kPairs;
}

// ------------------------------------------------------------ paper_table3

// Transport decorator: times RoundTrip as the net.roundtrip span.
class TimedTransport final : public invfs::Transport {
 public:
  TimedTransport(invfs::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  Result<std::vector<std::byte>> RoundTrip(std::span<const std::byte> request,
                                           invfs::SimMicros timeout_us) override {
    return Span(*tracer_, kNetRoundTrip,
                [&] { return inner_->RoundTrip(request, timeout_us); });
  }

 private:
  invfs::Transport* inner_;
  Tracer* tracer_;
};

constexpr char kTable3File[] = "/bench25mb.dat";
constexpr int64_t kTable3FileBytes = 25LL << 20;
constexpr int64_t kTable3Transfer = 1LL << 20;

}  // namespace

// Table 3's nine tests through the client/server path, timed exactly as
// RunPaperBenchmark times them: caches flushed before each test, the clock
// started after the transaction bracket and open of the transfer tests. The
// client stack mirrors InversionWorld::remote_api() (a RemoteFileClient over
// a LoopbackTransport charging the world's NetModel parameters) so the
// RoundTrip decorator and the NetModel totals are reachable.
PassResult PaperTable3Pass(const PassConfig& config) {
  PassResult r;
  std::vector<std::byte> model(kTable3FileBytes);  // the file's contents
  Stopwatch setup(config.probe);
  std::unique_ptr<InversionWorld> world = NewWorld(r);
  if (world == nullptr) {
    return r;
  }
  Database& db = world->db();
  invfs::InversionServer server(&world->fs());
  NetModel net(&world->clock(), invfs::WorldOptions().inversion_net);
  invfs::LoopbackTransport loopback(&server, &net);
  TimedTransport timed(&loopback, &r.spans);
  invfs::RpcClientOptions client_options;
  client_options.clock = &world->clock();
  client_options.metrics = &db.metrics();
  invfs::RemoteFileClient client(
      config.traced ? static_cast<invfs::Transport*>(&timed) : &loopback,
      client_options);
  r.setup_s = setup.Stop();

  auto call = [&](auto&& fn) { return Span(r.spans, kNetCall, fn); };
  // One FileApi-level read or write: timed as an op and checked against the
  // model of the file's contents.
  auto io = [&](int fd, bool write, std::span<std::byte> buf, int64_t offset) {
    const uint64_t start = NowNs();
    Result<int64_t> n = write ? call([&] { return client.p_write(fd, buf); })
                              : call([&] { return client.p_read(fd, buf); });
    r.latency_ns.push_back(static_cast<uint32_t>(NowNs() - start));
    ++r.ops;
    if (!Check(r, n, write ? "p_write" : "p_read")) {
      return;
    }
    if (*n != static_cast<int64_t>(buf.size())) {
      r.Fail("short transfer at offset " + std::to_string(offset));
      return;
    }
    std::byte* at = model.data() + offset;
    if (write) {
      std::memcpy(at, buf.data(), buf.size());
      r.bytes_written += buf.size();
    } else if (std::memcmp(at, buf.data(), buf.size()) != 0) {
      r.Fail("p_read returned wrong bytes at offset " + std::to_string(offset));
    } else {
      r.bytes_read += buf.size();
    }
  };

  // Test 1: create the 25 MB file in page-sized writes.
  {
    std::vector<std::byte> payload(kChunk);
    FillPayload(payload, config.seed);
    r.inputs_digest = Mix(config.seed, static_cast<uint64_t>(payload[0]));
    if (!Check(r, db.FlushCaches(), "FlushCaches")) {
      return r;
    }
    Window w(r, db, &net, config);
    if (!Check(r, call([&] { return client.p_begin(); }), "p_begin")) {
      return r;
    }
    Result<int> fd = call([&] { return client.p_creat(kTable3File); });
    if (!Check(r, fd, "p_creat")) {
      return r;
    }
    for (int64_t at = 0; at < kTable3FileBytes; at += kChunk) {
      const int64_t n = std::min(kChunk, kTable3FileBytes - at);
      io(*fd, true, std::span(payload.data(), static_cast<size_t>(n)), at);
      w.Tick();
    }
    Check(r, call([&] { return client.p_close(*fd); }), "p_close");
    Check(r, call([&] { return client.p_commit(); }), "p_commit");
    r.table3_sim_s.push_back(w.End());
  }

  Rng rng(config.seed);
  auto timed_io = [&](bool write, int64_t unit, bool random, int64_t total) {
    std::vector<std::byte> buf(static_cast<size_t>(unit));
    if (write) {
      FillPayload(buf, config.seed ^ 0xABCD);
    }
    const int64_t ops = (total + unit - 1) / unit;
    if (!Check(r, call([&] { return client.p_begin(); }), "p_begin")) {
      return;
    }
    Result<int> fd = call([&] {
      return client.p_open(kTable3File, write ? OpenMode::kWrite : OpenMode::kRead);
    });
    if (!Check(r, fd, "p_open") || !Check(r, db.FlushCaches(), "FlushCaches")) {
      return;
    }
    Window w(r, db, &net, config);
    for (int64_t i = 0; i < ops; ++i) {
      const int64_t offset =
          random ? static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(
                       (kTable3FileBytes - unit) / unit))) * unit
                 : i * unit;
      r.inputs_digest = Mix(r.inputs_digest, static_cast<uint64_t>(offset));
      if (Check(r, call([&] { return client.p_lseek(*fd, offset, Whence::kSet); }),
                "p_lseek")) {
        io(*fd, write, buf, offset);
      }
      w.Tick();
    }
    Check(r, call([&] { return client.p_close(*fd); }), "p_close");
    Check(r, call([&] { return client.p_commit(); }), "p_commit");
    r.table3_sim_s.push_back(w.End());
  };
  timed_io(false, 1, true, 1);                                  // byte read
  timed_io(true, 1, true, 1);                                   // byte write
  timed_io(false, kTable3Transfer, false, kTable3Transfer);     // 1 MB read
  timed_io(false, kChunk, false, kTable3Transfer);              // seq pages
  timed_io(false, kChunk, true, kTable3Transfer);               // random pages
  timed_io(true, kTable3Transfer, false, kTable3Transfer);      // 1 MB write
  timed_io(true, kChunk, false, kTable3Transfer);               // seq pages
  timed_io(true, kChunk, true, kTable3Transfer);                // random pages

  if (config.traced) {
    r.ro_txn_us = TimeReadOnlyTxns(r, db, 1);
  }
  CheckImage(r, *world, kTable3FileBytes);
  return r;
}

// ------------------------------------------------- hot_read, parallel_read

namespace {

constexpr int kReadFiles = 16;
constexpr int kReadChunks = 6;
constexpr int64_t kReadFileBytes = kReadChunks * kChunk;
constexpr uint64_t kReadOpsPerPass = 50'000;

std::string ReadPath(int f) { return "/hot" + std::to_string(f); }

// 16 files of 6 chunks, each written twice in two transactions, so every
// chunk has one dead version that a historical open still sees.
struct ReadImage {
  uint64_t seed = 0;           // chunk payloads derive from it
  invfs::Timestamp as_of = 0;  // between the two commits

  // Payload seed of chunk `c` of file `f`, version `v` (0 = historical).
  uint64_t ChunkSeed(int v, int f, int c) const {
    return Mix(Mix(Mix(seed, v), f), c);
  }
};

bool BuildReadImage(PassResult& r, InversionWorld& w, uint64_t seed,
                    ReadImage& img) {
  InvSession& s = w.session();
  img.seed = seed;
  r.inputs_digest = Mix(r.inputs_digest, seed);
  std::vector<std::byte> bytes(kReadFileBytes);
  for (int v = 0; v < 2; ++v) {
    if (!Check(r, s.p_begin(), "p_begin")) {
      return false;
    }
    for (int f = 0; f < kReadFiles; ++f) {
      for (int c = 0; c < kReadChunks; ++c) {
        FillPayload(std::span(bytes).subspan(c * kChunk, kChunk),
                    img.ChunkSeed(v, f, c));
      }
      Result<int> fd = v == 0 ? s.p_creat(ReadPath(f))
                              : s.p_open(ReadPath(f), OpenMode::kWrite);
      if (!Check(r, fd, "p_creat/p_open") ||
          !Check(r, s.p_write(*fd, bytes), "p_write") ||
          !Check(r, s.p_close(*fd), "p_close")) {
        return false;
      }
    }
    if (!Check(r, s.p_commit(), "p_commit")) {
      return false;
    }
    if (v == 0) {
      img.as_of = w.db().Now();
    }
  }
  return true;
}

// One reader: a session with every file open twice, current and as of the
// first version's commit.
struct Reader {
  InvSession* session = nullptr;
  int fd[2][kReadFiles] = {};  // [0] historical, [1] current
};

// One op: p_lseek to a chunk plus one chunk-sized p_read, checked byte for
// byte against the version the fd must see.
void ReadOp(PassResult& r, const Reader& rd, const ReadImage& img, int v, int f,
            int c, std::vector<std::byte>& buf, bool timed) {
  const int fd = rd.fd[v][f];
  const int64_t offset = c * kChunk;
  const uint64_t start = NowNs();
  Result<int64_t> pos = rd.session->p_lseek(fd, offset, Whence::kSet);
  Result<int64_t> n =
      Span(r.spans, kInvRead, [&] { return rd.session->p_read(fd, buf); });
  if (timed) {
    r.latency_ns.push_back(static_cast<uint32_t>(NowNs() - start));
    ++r.ops;
  }
  if (!Check(r, pos, "p_lseek") || !Check(r, n, "p_read")) {
    return;
  }
  if (*n != kChunk ||
      !MatchesPayload(buf, img.ChunkSeed(v, f, c))) {
    r.Fail("p_read of " + ReadPath(f) + (v == 0 ? " (as of v1)" : "") +
           " returned wrong bytes at offset " + std::to_string(offset));
    return;
  }
  if (timed) {
    r.bytes_read += kChunk;
  }
}

// Opens every fd of `rd` and reads each chunk once through it, so the timed
// phase starts with the whole working set cached.
bool OpenReader(PassResult& r, InvSession& s, const ReadImage& img, Reader& rd) {
  rd.session = &s;
  for (int v = 0; v < 2; ++v) {
    for (int f = 0; f < kReadFiles; ++f) {
      Result<int> fd = s.p_open(ReadPath(f), OpenMode::kRead,
                                v == 0 ? img.as_of : invfs::kTimestampNow);
      if (!Check(r, fd, "p_open")) {
        return false;
      }
      rd.fd[v][f] = *fd;
    }
  }
  std::vector<std::byte> buf(kChunk);
  for (int v = 0; v < 2; ++v) {
    for (int f = 0; f < kReadFiles; ++f) {
      for (int c = 0; c < kReadChunks; ++c) {
        ReadOp(r, rd, img, v, f, c, buf, /*timed=*/false);
      }
    }
  }
  return r.failed == 0;
}

// `ops` closed-loop reads: a random file and chunk, and 1 in 8 through the
// historical fd.
void ReadLoop(PassResult& r, const Reader& rd, const ReadImage& img,
              uint64_t ops, uint64_t seed, Stopwatch& watch) {
  Rng rng(seed);
  std::vector<std::byte> buf(kChunk);
  r.latency_ns.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    const int v = rng.Uniform(8) == 0 ? 0 : 1;
    const int f = static_cast<int>(rng.Uniform(kReadFiles));
    const int c = static_cast<int>(rng.Uniform(kReadChunks));
    ReadOp(r, rd, img, v, f, c, buf, /*timed=*/true);
    watch.Tick();
  }
}

}  // namespace

PassResult HotReadPass(const PassConfig& config) {
  PassResult r;
  Stopwatch setup(config.probe);
  std::unique_ptr<InversionWorld> world = NewWorld(r);
  ReadImage img;
  Reader reader;
  if (world == nullptr || !BuildReadImage(r, *world, config.seed, img) ||
      !OpenReader(r, world->session(), img, reader)) {
    return r;
  }
  r.setup_s = setup.Stop();

  Window w(r, world->db(), nullptr, config);
  ReadLoop(r, reader, img, kReadOpsPerPass, Mix(config.seed, 0x40), w.watch());
  w.End();
  r.inputs_digest = Mix(r.inputs_digest, Mix(config.seed, 0x40));
  CheckReadPhase(r);
  if (config.traced) {
    r.ro_txn_us = TimeReadOnlyTxns(r, world->db(), 1);
  }
  CheckImage(r, *world, kReadFiles * kReadFileBytes);
  return r;
}

// hot_read's image and op mix on `threads` threads, one InvSession each;
// the ops of a pass are split evenly across the threads.
PassResult ParallelReadPass(const PassConfig& config) {
  PassResult r;
  const int threads = config.threads;
  Stopwatch setup(config.probe);
  std::unique_ptr<InversionWorld> world = NewWorld(r);
  ReadImage img;
  if (world == nullptr || !BuildReadImage(r, *world, config.seed, img)) {
    return r;
  }
  std::vector<std::unique_ptr<InvSession>> sessions;
  std::vector<Reader> readers(threads);
  for (int t = 0; t < threads; ++t) {
    auto session = world->fs().NewSession();
    if (!Check(r, session, "NewSession")) {
      return r;
    }
    sessions.push_back(std::move(*session));
    if (!OpenReader(r, *sessions.back(), img, readers[t])) {
      return r;
    }
  }
  r.setup_s = setup.Stop();

  // Each thread scales its own ops by its own probes; the pass takes as long
  // as its slowest thread.
  Database& db = world->db();
  std::vector<PassResult> parts(threads);
  const Counts before = SampleCounts(db, nullptr);
  const invfs::SimMicros sim_start = db.clock().Peek();
  RunThreads(threads, [&](int t) {
    PassResult& p = parts[t];
    p.spans.on = config.traced;
    const uint64_t ops = kReadOpsPerPass / threads +
                         (t == 0 ? kReadOpsPerPass % threads : 0);
    Stopwatch watch(config.probe, &p.latency_ns);
    ReadLoop(p, readers[t], img, ops, Mix(config.seed, 0x40 + t), watch);
    p.wall_s = watch.Stop();
    p.raw_wall_s = watch.raw_s();
  });
  r.sim_s = db.clock().SecondsSince(sim_start);
  r.counts = SampleCounts(db, nullptr) - before;
  for (int t = 0; t < threads; ++t) {
    PassResult& p = parts[t];
    r.wall_s = std::max(r.wall_s, p.wall_s);
    r.raw_wall_s = std::max(r.raw_wall_s, p.raw_wall_s);
    r.inputs_digest = Mix(r.inputs_digest, Mix(config.seed, 0x40 + t));
    r.ops += p.ops;
    r.bytes_read += p.bytes_read;
    r.latency_ns.insert(r.latency_ns.end(), p.latency_ns.begin(),
                        p.latency_ns.end());
    r.spans.Merge(p.spans);
    if (p.failed != 0) {
      r.Fail(p.first_error);
      r.failed += p.failed - 1;
    }
  }
  CheckReadPhase(r);
  if (config.traced) {
    r.ro_txn_us = TimeReadOnlyTxns(r, db, threads);
  }
  CheckImage(r, *world, kReadFiles * kReadFileBytes);
  return r;
}

// ---------------------------------------------------------------- small_txn

namespace {

constexpr int kTxnNames = 64;
constexpr int64_t kTxnFileBytes = 2048;
constexpr uint64_t kTxnOpsPerPass = 1000;

std::string TxnPath(int n) { return "/small" + std::to_string(n); }

}  // namespace

// Each op is one explicit transaction that replaces one of 64 names with a
// fresh 2 KB file: p_begin, unlink, p_creat, p_write, p_close, p_commit.
// Set-up creates all 64 names, so every op unlinks. Each commit is checked
// with stat (new oid, 2 KB), and after the phase every file is read back.
PassResult SmallTxnPass(const PassConfig& config) {
  PassResult r;
  Stopwatch setup(config.probe);
  std::unique_ptr<InversionWorld> world = NewWorld(r);
  if (world == nullptr) {
    return r;
  }
  InvSession& s = world->session();
  std::vector<std::byte> buf(kTxnFileBytes);
  std::vector<invfs::Oid> oid(kTxnNames);
  std::vector<uint64_t> payload_seed(kTxnNames);

  // Replaces (or first creates) name `n` with payload `seed` in one
  // transaction; returns false on the first failed call.
  auto replace = [&](int n, uint64_t seed, bool unlink_first) {
    const std::string path = TxnPath(n);
    FillPayload(buf, seed);
    if (!Check(r, s.p_begin(), "p_begin")) {
      return false;
    }
    auto body = [&] {
      if (unlink_first &&
          !Check(r, Span(r.spans, kInvUnlink, [&] { return s.unlink(path); }),
                 "unlink")) {
        return false;
      }
      Result<int> fd = Span(r.spans, kInvCreat, [&] { return s.p_creat(path); });
      return Check(r, fd, "p_creat") &&
             Check(r, Span(r.spans, kInvWrite, [&] { return s.p_write(*fd, buf); }),
                   "p_write") &&
             Check(r, s.p_close(*fd), "p_close") &&
             Check(r, Span(r.spans, kInvCommit, [&] { return s.p_commit(); }),
                   "p_commit");
    };
    if (!body()) {
      if (s.in_txn()) {
        (void)s.p_abort();
      }
      return false;
    }
    return true;
  };
  // stat after a commit: a new file of the right size under the name.
  auto check_committed = [&](int n) {
    Result<invfs::FileStat> st = s.stat(TxnPath(n));
    if (!Check(r, st, "stat")) {
      return;
    }
    if (st->size != kTxnFileBytes || st->oid == oid[n]) {
      r.Fail("stat of " + TxnPath(n) + " after commit: size " +
             std::to_string(st->size) + ", oid " + std::to_string(st->oid));
    }
    oid[n] = st->oid;
  };

  for (int n = 0; n < kTxnNames; ++n) {
    payload_seed[n] = Mix(config.seed, n);
    if (!replace(n, payload_seed[n], /*unlink_first=*/false)) {
      return r;
    }
    check_committed(n);
  }
  r.setup_s = setup.Stop();

  Rng rng(config.seed);
  {
    Window w(r, world->db(), nullptr, config);
    for (uint64_t i = 0; i < kTxnOpsPerPass; ++i) {
      const int n = static_cast<int>(rng.Uniform(kTxnNames));
      const uint64_t seed = Mix(config.seed, (i + 1) << 8 | n);
      r.inputs_digest = Mix(r.inputs_digest, seed);
      const uint64_t start = NowNs();
      const bool ok = replace(n, seed, /*unlink_first=*/true);
      r.latency_ns.push_back(static_cast<uint32_t>(NowNs() - start));
      ++r.ops;
      if (ok) {
        payload_seed[n] = seed;
        r.bytes_written += kTxnFileBytes;
        check_committed(n);
      }
      w.Tick();
    }
    w.End();
  }

  // Every name must hold the payload of its last committed replacement.
  std::vector<std::byte> got(kTxnFileBytes);
  for (int n = 0; n < kTxnNames; ++n) {
    Result<int> fd = s.p_open(TxnPath(n), OpenMode::kRead);
    if (!Check(r, fd, "p_open")) {
      continue;
    }
    Result<int64_t> got_n = s.p_read(*fd, got);
    if (Check(r, got_n, "p_read") &&
        (*got_n != kTxnFileBytes || !MatchesPayload(got, payload_seed[n]))) {
      r.Fail("read-back of " + TxnPath(n) + " returned wrong bytes");
    }
    Check(r, s.p_close(*fd), "p_close");
  }
  if (config.traced) {
    r.ro_txn_us = TimeReadOnlyTxns(r, world->db(), 1);
  }
  CheckImage(r, *world, kTxnNames * kTxnFileBytes);
  return r;
}

}  // namespace perfbench

// Unit and stack tests for the fault-injection layer: crash points, the
// SwitchEntry device wrapper (fault injection, retry, sticky read-only), and
// the graceful-degradation paths they feed (commit-log fail-stop, read-only
// devices surfaced through RPC and the NFS gateway).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/catalog/database.h"
#include "src/device/device.h"
#include "src/fault/crash_points.h"
#include "src/fault/switch_entry.h"
#include "src/inversion/inv_fs.h"
#include "src/net/nfs_gateway.h"
#include "src/net/rpc.h"
#include "src/obs/span.h"

namespace invfs {
namespace {

// ---- CrashPointRegistry -----------------------------------------------------

// The registry is a process-wide singleton; every test leaves it disarmed.
struct RegistryGuard {
  ~RegistryGuard() { CrashPointRegistry::Instance().Disarm(); }
};

TEST(CrashPoints, InertWhenNeitherRecordingNorArmed) {
  RegistryGuard guard;
  CrashPointRegistry::Hit("anything");
  EXPECT_FALSE(CrashPointRegistry::Instance().fired());
}

TEST(CrashPoints, RecordingCountsHitsPerPoint) {
  RegistryGuard guard;
  auto& reg = CrashPointRegistry::Instance();
  reg.StartRecording();
  CrashPointRegistry::Hit("alpha");
  CrashPointRegistry::Hit("alpha");
  CrashPointRegistry::Hit("beta");
  CrashPointRegistry::Hit("alpha");
  auto counts = reg.StopRecording();
  EXPECT_EQ(counts["alpha"], 3u);
  EXPECT_EQ(counts["beta"], 1u);
  // Recording stopped: further hits are free and uncounted.
  CrashPointRegistry::Hit("alpha");
  EXPECT_TRUE(reg.StopRecording().empty());
}

TEST(CrashPoints, ArmedCallbackFiresExactlyOnceAtNthOccurrence) {
  RegistryGuard guard;
  auto& reg = CrashPointRegistry::Instance();
  int fired = 0;
  reg.Arm("point", 2, [&fired] { ++fired; });
  CrashPointRegistry::Hit("other");  // different point: does not count
  CrashPointRegistry::Hit("point");  // occurrence 1: below threshold
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(reg.fired());
  CrashPointRegistry::Hit("point");  // occurrence 2: fires
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(reg.fired());
  CrashPointRegistry::Hit("point");  // once only
  EXPECT_EQ(fired, 1);
}

// ---- SwitchEntry (device level) --------------------------------------------

constexpr Oid kRel = 5000;

std::vector<std::byte> FilledPage(char c) {
  return std::vector<std::byte>(kPageSize, std::byte{static_cast<uint8_t>(c)});
}

class SwitchEntryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<SwitchEntry>(std::make_unique<NvramDevice>(&store_),
                                         &clock_, &metrics_, &injector_);
    ASSERT_TRUE(dev_->CreateRelation(kRel).ok());
  }

  uint64_t Retries() {
    return metrics_.GetCounter("device.retries", "nvram")->Value();
  }

  MemBlockStore store_;
  FaultInjector injector_;
  SimClock clock_;
  MetricsRegistry metrics_;
  std::unique_ptr<SwitchEntry> dev_;
};

TEST_F(SwitchEntryTest, TransientErrorFiresOnceThenSameWriteSucceeds) {
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1});
  const auto page = FilledPage('A');
  // The first attempt fails with kTransientIo: it is retried (a permanent
  // error would not be) and does not trip read-only. The retry is the next
  // write position, so it passes and the caller sees success.
  EXPECT_TRUE(dev_->WriteBlock(kRel, 0, page).ok());
  EXPECT_EQ(Retries(), 1u);
  EXPECT_FALSE(dev_->read_only());
  EXPECT_EQ(injector_.faults_fired(), 1u);
  EXPECT_EQ(injector_.writes_since_arm(), 2u);

  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_EQ(std::memcmp(out.data(), page.data(), kPageSize), 0);
}

TEST_F(SwitchEntryTest, CrashHaltsEveryLaterOperation) {
  // A second entry on the same injector, like another device of the same
  // Database.
  MemBlockStore other_store;
  SwitchEntry other(std::make_unique<NvramDevice>(&other_store), &clock_,
                    &metrics_, &injector_);
  ASSERT_TRUE(other.CreateRelation(kRel).ok());
  ASSERT_TRUE(other.WriteBlock(kRel, 0, FilledPage('O')).ok());

  injector_.ArmOne({FaultSpec::Kind::kCrash, FaultSpec::Op::kWrite, 2});
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('A')).ok());
  Status crash = dev_->WriteBlock(kRel, 1, FilledPage('B'));
  ASSERT_FALSE(crash.ok());
  EXPECT_TRUE(injector_.crashed());
  // The halt is a hard I/O error, so the entry it struck trips read-only.
  EXPECT_TRUE(crash.IsReadOnlyDevice()) << crash.ToString();
  // The halted write never reached the store, and the frozen image refuses
  // all further traffic — exactly a powered-off machine.
  auto nblocks = dev_->Underlying()->NumBlocks(kRel);
  ASSERT_TRUE(nblocks.ok());
  EXPECT_EQ(*nblocks, 1u);
  std::vector<std::byte> out(kPageSize);
  EXPECT_FALSE(dev_->ReadBlock(kRel, 0, out).ok());
  // The untripped entry fails every operation too, sync included.
  EXPECT_FALSE(other.ReadBlock(kRel, 0, out).ok());
  EXPECT_FALSE(other.Sync().ok());
  EXPECT_FALSE(other.CreateRelation(kRel + 1).ok());
  EXPECT_FALSE(other.DropRelation(kRel).ok());
}

TEST_F(SwitchEntryTest, TornWriteKeepsAProperSectorSubsetAndReportsSuccess) {
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('B')).ok());
  injector_.ArmOne({FaultSpec::Kind::kTornWrite, FaultSpec::Op::kWrite, 1});
  // The lying disk: the caller sees success, the media holds a mix.
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('A')).ok());
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  size_t new_sectors = 0, old_sectors = 0;
  for (size_t off = 0; off < kPageSize; off += 512) {
    char c = static_cast<char>(out[off]);
    for (size_t i = 0; i < 512; ++i) {
      ASSERT_EQ(static_cast<char>(out[off + i]), c)
          << "sector " << off / 512 << " must be atomic";
    }
    (c == 'A' ? new_sectors : old_sectors) += 1;
  }
  EXPECT_GT(new_sectors, 0u);
  EXPECT_GT(old_sectors, 0u) << "a torn write must lose something";
}

TEST_F(SwitchEntryTest, BitFlipPersistsExactlyOneFlippedBit) {
  injector_.ArmOne({FaultSpec::Kind::kBitFlip, FaultSpec::Op::kWrite, 1});
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('\0')).ok());
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  int set_bits = 0;
  for (std::byte b : out) {
    set_bits += __builtin_popcount(static_cast<unsigned>(b));
  }
  EXPECT_EQ(set_bits, 1);
}

TEST_F(SwitchEntryTest, TransientWriteRetriedInvisiblyWithBackoff) {
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1});
  const SimMicros t0 = clock_.Peek();
  EXPECT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('A')).ok());
  EXPECT_EQ(injector_.faults_fired(), 1u);
  EXPECT_EQ(Retries(), 1u);
  EXPECT_GT(clock_.Peek(), t0) << "backoff must be charged to the clock";
  EXPECT_FALSE(dev_->read_only());
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_EQ(static_cast<char>(out[0]), 'A');
}

TEST_F(SwitchEntryTest, TransientReadRetriedAndDoesNotTripReadOnly) {
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('R')).ok());
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kRead, 1});
  std::vector<std::byte> out(kPageSize);
  EXPECT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_EQ(static_cast<char>(out[0]), 'R');
  EXPECT_GE(Retries(), 1u);
  EXPECT_FALSE(dev_->read_only());
}

TEST_F(SwitchEntryTest, PermanentWriteTripsStickyReadOnlyButReadsKeepFlowing) {
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('K')).ok());
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  Status failed = dev_->WriteBlock(kRel, 1, FilledPage('X'));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsReadOnlyDevice());
  EXPECT_TRUE(dev_->read_only());
  EXPECT_EQ(metrics_.GetCounter("device.permanent_errors", "nvram")->Value(), 1u);

  // Sticky: later writes/creates/drops are refused without touching the
  // device, even with no fault armed.
  EXPECT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('Y')).IsReadOnlyDevice());
  EXPECT_TRUE(dev_->CreateRelation(kRel + 1).IsReadOnlyDevice());
  EXPECT_TRUE(dev_->DropRelation(kRel).IsReadOnlyDevice());
  // Degradation, not death: persisted data stays readable.
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_EQ(static_cast<char>(out[0]), 'K');
}

// ---- full stack: commit log, fail-stop, RPC / NFS surfacing -----------------

// Transport that skips the cost model: frames go straight to the server.
class DirectTransport final : public Transport {
 public:
  explicit DirectTransport(InversionServer* server) : server_(server) {}
  Result<std::vector<std::byte>> RoundTrip(
      std::span<const std::byte> request, SimMicros /*timeout_us*/) override {
    return server_->Handle(request);
  }

 private:
  InversionServer* server_;
};

class FaultStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.fault_injector = &injector_;
    auto db = Database::Open(&env_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    fs_ = std::make_unique<InversionFs>(db_.get());
    ASSERT_TRUE(fs_->Mount().ok());
    auto session = fs_->NewSession();
    ASSERT_TRUE(session.ok());
    s_ = std::move(*session);
  }

  void MakeFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_creat(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }

  // Open a transaction whose data pages are already durable, so the only
  // device write its commit performs is the commit-log page.
  void StageTxnWithFlushedData(const std::string& path) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_open(path, OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    const std::string data = "rewritten";
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(db_->FlushCaches().ok());
  }

  // Spans named `name` in the database's ring, oldest first.
  std::vector<SpanRecord> SpansNamed(std::string_view name) {
    std::vector<SpanRecord> out;
    for (const SpanRecord& r : db_->metrics().spans().Snapshot()) {
      if (name == r.name) {
        out.push_back(r);
      }
    }
    return out;
  }

  // The span with id `id` in the database's ring.
  SpanRecord SpanById(uint64_t id) {
    for (const SpanRecord& r : db_->metrics().spans().Snapshot()) {
      if (r.span_id == id) {
        return r;
      }
    }
    ADD_FAILURE() << "span " << id << " is not in the ring";
    return SpanRecord{};
  }

  // Declared before db_ so it outlives the switch entries that point at it.
  StorageEnv env_;
  FaultInjector injector_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

// Satellite (a): a transient error on the commit-log flush must be absorbed
// by the retry policy — commit succeeds and the log is not poisoned.
TEST_F(FaultStackTest, TransientCommitLogFlushRetriedNotPoisoned) {
  MakeFile("/t.dat", "payload");
  StageTxnWithFlushedData("/t.dat");
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1});
  ASSERT_TRUE(s_->p_commit().ok());
  EXPECT_EQ(injector_.faults_fired(), 1u);
  EXPECT_FALSE(db_->commit_log().poisoned());
  EXPECT_FALSE(db_->read_only());
  const uint64_t retries =
      db_->metrics().GetCounter("device.retries", "nvram")->Value() +
      db_->metrics().GetCounter("device.retries", "magnetic")->Value() +
      db_->metrics().GetCounter("device.retries", "sony_jukebox")->Value();
  EXPECT_GE(retries, 1u);

  // The commit really took: the new content is durable and visible.
  auto fd = s_->p_open("/t.dat", OpenMode::kRead);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(9);
  auto n = s_->p_read(*fd, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::memcmp(buf.data(), "rewritten", 9), 0);
}

// Tentpole degradation: a permanent failure of the commit-log flush poisons
// the log and the whole database goes cleanly fail-stop read-only, which RPC
// clients and the NFS gateway see as kReadOnlyDevice / EROFS.
TEST_F(FaultStackTest, PermanentCommitLogFailureIsFailStopReadOnly) {
  MakeFile("/p.dat", "payload");
  StageTxnWithFlushedData("/p.dat");
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  Status commit = s_->p_commit();
  ASSERT_FALSE(commit.ok());
  EXPECT_TRUE(commit.IsReadOnlyDevice()) << commit.ToString();

  EXPECT_TRUE(db_->commit_log().poisoned());
  EXPECT_TRUE(db_->read_only());
  Status begin = db_->Begin().status();
  EXPECT_TRUE(begin.IsReadOnlyDevice());
  EXPECT_EQ(NfsErrnoFor(begin), EROFS);
  EXPECT_EQ(NfsErrnoFor(Status::IoError("dead disk")), EIO);

  // The same refusal crosses the RPC wire with its code intact.
  InversionServer server(fs_.get());
  DirectTransport transport(&server);
  RemoteFileClient client(&transport);
  EXPECT_TRUE(client.p_begin().IsReadOnlyDevice());
  EXPECT_TRUE(client.p_creat("/new.dat").status().IsReadOnlyDevice());

  // And the NFS gateway maps it to EROFS at its trust boundary.
  InvNfsGateway gateway(fs_.get());
  Status creat = gateway.Creat("/nfs.dat").status();
  ASSERT_FALSE(creat.ok());
  EXPECT_EQ(NfsErrnoFor(creat), EROFS);
}

// Tentpole degradation, data-device flavor: a permanent write error trips the
// device read-only mid-transaction; writers fail with kReadOnlyDevice but
// read transactions keep beginning, reading, and committing (their commits
// need no log write — CommitLog::CommitTxnReadOnly).
TEST_F(FaultStackTest, TrippedDataDeviceKeepsReadTransactionsWorking) {
  MakeFile("/keep.dat", "stable");
  ASSERT_TRUE(db_->FlushCaches().ok());

  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_open("/keep.dat", OpenMode::kWrite);
  ASSERT_TRUE(fd.ok());
  const std::string junk = "doomed";
  ASSERT_TRUE(
      s_->p_write(*fd, std::as_bytes(std::span(junk.data(), junk.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  Status flush = db_->FlushCaches();
  ASSERT_FALSE(flush.ok());
  EXPECT_TRUE(flush.IsReadOnlyDevice()) << flush.ToString();
  ASSERT_TRUE(s_->p_abort().ok());

  // The log was never asked to flush, so the database is degraded, not dead.
  EXPECT_FALSE(db_->commit_log().poisoned());
  EXPECT_FALSE(db_->read_only());

  // Reads — including their implicit single-op transactions — still work.
  auto rfd = s_->p_open("/keep.dat", OpenMode::kRead);
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  std::vector<std::byte> buf(6);
  auto n = s_->p_read(*rfd, buf);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(std::memcmp(buf.data(), "stable", 6), 0);
  ASSERT_TRUE(s_->p_close(*rfd).ok());

  // Teardown must not flush the still-dirty pool against the dead device.
  db_->Crash();
}

// Fault-path events are spans: the device tripping read-only is one
// device.read_only_trip span carrying the tripping error code. The error
// policy sits above the instrumentation, so the trip is recorded after the
// failed device.write.* attempt closes, under the same write-back span.
TEST_F(FaultStackTest, ReadOnlyTripIsASpanUnderTheFailedWriteBack) {
  MakeFile("/trip.dat", "stable");
  ASSERT_TRUE(db_->FlushCaches().ok());
  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_open("/trip.dat", OpenMode::kWrite);
  ASSERT_TRUE(fd.ok());
  const std::string junk = "doomed";
  ASSERT_TRUE(
      s_->p_write(*fd, std::as_bytes(std::span(junk.data(), junk.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  ASSERT_FALSE(db_->FlushCaches().ok());
  ASSERT_TRUE(s_->p_abort().ok());

  const std::vector<SpanRecord> trips = SpansNamed("device.read_only_trip");
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].a, static_cast<uint64_t>(ErrorCode::kIoError));
  const SpanRecord parent = SpanById(trips[0].parent_id);
  ASSERT_NE(parent.name, nullptr);
  EXPECT_STREQ(parent.name, "buffer.write_back");
  // The failed attempt is the trip's sibling: a device.write.* span under
  // the same write-back, for the block the write-back covers.
  int failed_attempts = 0;
  for (const SpanRecord& r : db_->metrics().spans().Snapshot()) {
    if (r.parent_id == parent.span_id &&
        std::string_view(r.name).starts_with("device.write.")) {
      ++failed_attempts;
      EXPECT_EQ(r.a, parent.a);
      EXPECT_EQ(r.b, parent.b);
      EXPECT_LE(r.start_micros + r.dur_micros, trips[0].start_micros);
    }
  }
  EXPECT_EQ(failed_attempts, 1);

  // Teardown must not flush the still-dirty pool against the dead device.
  db_->Crash();
}

// Two transient errors in a row on the commit-log flush: one device.retry
// span records both retries in a and the summed backoff (100 + 200 µs under
// the default policy) in b, nested under the log.flush it rescued.
TEST_F(FaultStackTest, RetrySpanCarriesAttemptsAndSummedBackoff) {
  MakeFile("/r.dat", "payload");
  StageTxnWithFlushedData("/r.dat");
  injector_.Arm({{FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1},
                 {FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 2}});
  ASSERT_TRUE(s_->p_commit().ok());
  EXPECT_EQ(injector_.faults_fired(), 2u);

  const std::vector<SpanRecord> retries = SpansNamed("device.retry");
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].a, 2u);
  EXPECT_EQ(retries[0].b, static_cast<uint64_t>(SwitchEntry::kBackoffUs +
                                                2 * SwitchEntry::kBackoffUs));
  const SpanRecord parent = SpanById(retries[0].parent_id);
  ASSERT_NE(parent.name, nullptr);
  EXPECT_STREQ(parent.name, "log.flush");
}

// Every physical attempt is instrumented. One transient fault on a data-page
// write-back costs two counted magnetic writes, each with its own
// device.write.magnetic span; the failed one hangs off the write-back and the
// retried one off the device.retry span.
TEST_F(FaultStackTest, RetriedWriteBackCountsAndTracesEveryAttempt) {
  MakeFile("/w.dat", "stable");
  ASSERT_TRUE(db_->FlushCaches().ok());
  // Dirty the file's one data page, and nothing else.
  auto file = fs_->ResolvePath("/w.dat", db_->SnapshotAt(db_->Now()));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto chunks = db_->catalog().GetTable("inv" + std::to_string(*file));
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  {
    auto page = db_->buffers().Pin((*chunks)->oid, 0);
    ASSERT_TRUE(page.ok());
    page->MarkDirty();
  }

  Counter* writes = db_->metrics().GetCounter("device.writes", "magnetic");
  Counter* write_bytes =
      db_->metrics().GetCounter("device.write_bytes", "magnetic");
  const uint64_t writes_before = writes->Value();
  const uint64_t bytes_before = write_bytes->Value();
  const uint64_t write_backs_before = db_->buffers().write_backs();
  const size_t attempt_spans_before = SpansNamed("device.write.magnetic").size();
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1});
  ASSERT_TRUE(db_->FlushCaches().ok());
  EXPECT_EQ(injector_.faults_fired(), 1u);

  // The flush writes back exactly the one data page, in two attempts.
  ASSERT_EQ(db_->buffers().write_backs() - write_backs_before, 1u);
  EXPECT_EQ(writes->Value() - writes_before, 2u);
  EXPECT_EQ(write_bytes->Value() - bytes_before, 2 * kPageSize);
  const std::vector<SpanRecord> attempts = SpansNamed("device.write.magnetic");
  ASSERT_EQ(attempts.size() - attempt_spans_before, 2u);
  const SpanRecord& failed = attempts[attempts.size() - 2];
  const SpanRecord& retried = attempts.back();

  const std::vector<SpanRecord> retries = SpansNamed("device.retry");
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].a, 1u);
  EXPECT_EQ(retried.parent_id, retries[0].span_id);
  const SpanRecord write_back = SpanById(retries[0].parent_id);
  ASSERT_NE(write_back.name, nullptr);
  EXPECT_STREQ(write_back.name, "buffer.write_back");
  EXPECT_EQ(failed.parent_id, write_back.span_id);
  for (const SpanRecord* attempt : {&failed, &retried}) {
    EXPECT_EQ(attempt->a, write_back.a);
    EXPECT_EQ(attempt->b, write_back.b);
  }
  EXPECT_EQ(write_back.a, (*chunks)->oid);
}

// A failed group-commit flush poisons the log, recorded as one log.poisoned
// span carrying the error code that is now sticky on the commit log.
TEST_F(FaultStackTest, PoisonedLogIsASpan) {
  MakeFile("/q.dat", "payload");
  StageTxnWithFlushedData("/q.dat");
  EXPECT_TRUE(SpansNamed("log.poisoned").empty());
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  Status commit = s_->p_commit();
  ASSERT_FALSE(commit.ok());
  ASSERT_TRUE(db_->commit_log().poisoned());

  const std::vector<SpanRecord> poisoned = SpansNamed("log.poisoned");
  ASSERT_EQ(poisoned.size(), 1u);
  // The policy device tripped read-only under the flush, so that is the
  // error the log keeps.
  EXPECT_EQ(poisoned[0].a, static_cast<uint64_t>(ErrorCode::kReadOnlyDevice));
  EXPECT_EQ(SpansNamed("device.read_only_trip").size(), 1u);
}

}  // namespace
}  // namespace invfs

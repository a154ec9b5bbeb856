// Tests for the unreliable-network fault domain: FaultyTransport determinism,
// retry/timeout/backoff behaviour, the server's duplicate-request cache
// (replay, eviction, loss), session-epoch recovery after connection resets,
// and the client's trust boundary against malformed response frames.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/faulty_transport.h"
#include "src/harness/worlds.h"
#include "src/net/rpc.h"
#include "src/util/random.h"

namespace invfs {
namespace {

std::span<const std::byte> AsBytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// Raw request frame in the wire format (see rpc.h): used to impersonate a
// client's retries precisely, seq by seq.
std::vector<std::byte> Frame(uint64_t client_id, uint64_t seq, uint32_t epoch,
                             RpcOp op, const ByteWriter& args) {
  ByteWriter w;
  w.Str("");  // tenant
  w.U64(client_id);
  w.U64(seq);
  w.U32(epoch);
  w.U8(static_cast<uint8_t>(op));
  w.Bytes(args.data());
  return std::vector<std::byte>(w.data());
}

struct DecodedResponse {
  bool ok = false;
  ErrorCode code = ErrorCode::kOk;
  std::string message;
};

DecodedResponse Decode(const std::vector<std::byte>& response) {
  ByteReader r(response);
  DecodedResponse d;
  d.ok = r.U8() != 0;
  if (!d.ok) {
    d.code = static_cast<ErrorCode>(r.U8());
    d.message = r.Str();
  }
  return d;
}

class NetFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = InversionWorld::Create();
    ASSERT_TRUE(world.ok());
    world_ = std::move(*world);
    server_ = std::make_unique<InversionServer>(&world_->fs());
    net_ = std::make_unique<NetModel>(&world_->clock(), NetParams{});
    loop_ = std::make_unique<LoopbackTransport>(server_.get(), net_.get());
    wire_ = std::make_unique<FaultyTransport>(loop_.get(), &world_->clock(),
                                              0xBEEF, &world_->db().metrics());
    RpcClientOptions copts;
    copts.clock = &world_->clock();
    copts.metrics = &world_->db().metrics();
    client_ = std::make_unique<RemoteFileClient>(wire_.get(), copts);
  }

  uint64_t CounterValue(const char* name) {
    return world_->db().metrics().GetCounter(name)->Value();
  }

  std::string ReadAll(const std::string& path) {
    auto fd = client_->p_open(path, OpenMode::kRead);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) {
      return {};
    }
    std::vector<std::byte> buf(1 << 16);
    auto n = client_->p_read(*fd, buf);
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_TRUE(client_->p_close(*fd).ok());
    if (!n.ok()) {
      return {};
    }
    return std::string(reinterpret_cast<const char*>(buf.data()),
                       static_cast<size_t>(*n));
  }

  std::unique_ptr<InversionWorld> world_;
  std::unique_ptr<InversionServer> server_;
  std::unique_ptr<NetModel> net_;
  std::unique_ptr<LoopbackTransport> loop_;
  std::unique_ptr<FaultyTransport> wire_;
  std::unique_ptr<RemoteFileClient> client_;
};

TEST_F(NetFaultTest, ScheduledFaultFiresAtExactPositionOnce) {
  auto fd = client_->p_creat("/sched.txt");
  ASSERT_TRUE(fd.ok());
  NetFaultSpec spec;
  spec.kind = NetFaultSpec::Kind::kDropRequest;
  spec.at = 2;  // second exchange after Arm
  wire_->ArmOne(spec);
  const uint64_t retries_before = client_->retries();
  // Exchange 1: untouched. Exchange 2: dropped, retried (exchange 3 succeeds).
  ASSERT_TRUE(client_->p_write(*fd, AsBytes("one")).ok());    // 1
  ASSERT_TRUE(client_->p_write(*fd, AsBytes("two")).ok());    // 2 drop + 3
  ASSERT_TRUE(client_->p_write(*fd, AsBytes("three")).ok());  // 4
  EXPECT_EQ(wire_->faults_fired(), 1u);
  EXPECT_EQ(client_->retries(), retries_before + 1);
  EXPECT_EQ(wire_->exchanges_since_arm(), 4u);
  ASSERT_TRUE(client_->p_close(*fd).ok());
  EXPECT_EQ(ReadAll("/sched.txt"), "onetwothree");
}

TEST_F(NetFaultTest, DroppedRequestChargesTheTimeoutAndBackoff) {
  auto fd = client_->p_creat("/t.txt");
  ASSERT_TRUE(fd.ok());
  NetFaultSpec spec;
  spec.kind = NetFaultSpec::Kind::kDropRequest;
  wire_->ArmOne(spec);
  const SimMicros before = world_->clock().Peek();
  ASSERT_TRUE(client_->p_write(*fd, AsBytes("x")).ok());
  const SimMicros elapsed = world_->clock().Peek() - before;
  // At least the full per-attempt deadline plus the first backoff step.
  const RpcRetryPolicy rp;
  EXPECT_GE(elapsed, rp.timeout_us + rp.backoff_base_us);
  EXPECT_EQ(CounterValue("rpc.client.timeouts"), 1u);
}

TEST_F(NetFaultTest, DroppedResponseIsReplayedFromTheDrcNotReExecuted) {
  auto fd = client_->p_creat("/drc.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client_->p_write(*fd, AsBytes("base")).ok());
  // The server executes the append, the ack is lost, the retry must replay
  // the cached reply: exactly one "dup?" in the file afterwards.
  NetFaultSpec spec;
  spec.kind = NetFaultSpec::Kind::kDropResponse;
  wire_->ArmOne(spec);
  auto n = client_->p_write(*fd, AsBytes("dup?"));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 4);
  ASSERT_TRUE(client_->p_close(*fd).ok());
  EXPECT_EQ(CounterValue("rpc.server.drc_hits"), 1u);
  EXPECT_EQ(ReadAll("/drc.txt"), "basedup?");
}

TEST_F(NetFaultTest, DuplicateDeliveryAppliesTheOpOnce) {
  auto fd = client_->p_creat("/dup.txt");
  ASSERT_TRUE(fd.ok());
  NetFaultSpec spec;
  spec.kind = NetFaultSpec::Kind::kDuplicateRequest;
  wire_->ArmOne(spec);
  ASSERT_TRUE(client_->p_write(*fd, AsBytes("once")).ok());
  ASSERT_TRUE(client_->p_close(*fd).ok());
  EXPECT_EQ(CounterValue("rpc.server.drc_hits"), 1u);
  EXPECT_EQ(ReadAll("/dup.txt"), "once");
}

TEST_F(NetFaultTest, TruncatedResponseRetriesUnderTheSameSeqToSuccess) {
  auto fd = client_->p_creat("/trunc.txt");
  ASSERT_TRUE(fd.ok());
  NetFaultSpec spec;
  spec.kind = NetFaultSpec::Kind::kTruncateResponse;
  wire_->ArmOne(spec);
  // The write executes server-side; the mangled reply must be treated as a
  // lost response (retry, DRC replay), never as a final decode error for an
  // op that was in fact applied.
  auto n = client_->p_write(*fd, AsBytes("whole"));
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 5);
  ASSERT_TRUE(client_->p_close(*fd).ok());
  EXPECT_EQ(ReadAll("/trunc.txt"), "whole");
  EXPECT_GE(CounterValue("rpc.client.corrupt_responses") +
                CounterValue("rpc.client.timeouts"),
            1u);
}

// Forwards every exchange to the server; the first reply after Cut(n) comes
// back cut to its first n bytes. So the op is applied, its reply is mangled
// in transit, and the retry under the same seq gets the intact reply.
class CutReplyTransport final : public Transport {
 public:
  explicit CutReplyTransport(Transport* inner) : inner_(inner) {}

  void Cut(size_t n) { cut_ = n; }
  // Intact size of the last reply a Cut applied to.
  size_t intact_size() const { return intact_size_; }

  Result<std::vector<std::byte>> RoundTrip(std::span<const std::byte> request,
                                           SimMicros timeout_us) override {
    auto reply = inner_->RoundTrip(request, timeout_us);
    if (reply.ok() && cut_.has_value()) {
      intact_size_ = reply->size();
      reply->resize(std::min(*cut_, reply->size()));
      cut_.reset();
    }
    return reply;
  }

 private:
  Transport* inner_;
  std::optional<size_t> cut_;
  size_t intact_size_ = 0;
};

// Every op with a non-empty reply, its reply cut at every prefix length: the
// call must succeed with the intact reply's value, the server must have
// executed the op once (a non-idempotent op's retry is a DRC replay; an
// idempotent one is re-executed, which is harmless by definition), and the
// client must count the mangled reply.
TEST_F(NetFaultTest, EveryTruncatedReplyIsRetriedAndAppliedOnce) {
  CutReplyTransport cutter(loop_.get());
  RpcClientOptions copts;
  copts.clock = &world_->clock();
  copts.metrics = &world_->db().metrics();
  struct Case {
    const char* label;  // rpc.latency_us label: one observation per execution
    bool idempotent;
    // Runs the op in `dir`, whose f.txt holds "hello" and is open as `fd`
    // at offset 0.
    std::function<void(RemoteFileClient& c, const std::string& dir, int fd)>
        run;
  };
  const Case cases[] = {
      {"creat", false,
       [](RemoteFileClient& c, const std::string& dir, int) {
         EXPECT_TRUE(c.p_creat(dir + "/g.txt").ok());
       }},
      {"open", false,
       [](RemoteFileClient& c, const std::string& dir, int) {
         EXPECT_TRUE(c.p_open(dir + "/f.txt", OpenMode::kRead).ok());
       }},
      {"read", false,
       [](RemoteFileClient& c, const std::string&, int fd) {
         std::vector<std::byte> buf(8);
         auto n = c.p_read(fd, buf);
         ASSERT_TRUE(n.ok()) << n.status().ToString();
         EXPECT_EQ(std::string(reinterpret_cast<const char*>(buf.data()),
                               static_cast<size_t>(*n)),
                   "hello");
       }},
      {"write", false,
       [](RemoteFileClient& c, const std::string&, int fd) {
         auto n = c.p_write(fd, AsBytes("abc"));
         ASSERT_TRUE(n.ok()) << n.status().ToString();
         EXPECT_EQ(*n, 3);
         EXPECT_EQ(c.p_fstat(fd)->size, 5);
       }},
      {"lseek", false,
       [](RemoteFileClient& c, const std::string&, int fd) {
         auto pos = c.p_lseek(fd, 2, Whence::kCur);
         ASSERT_TRUE(pos.ok()) << pos.status().ToString();
         EXPECT_EQ(*pos, 2);
       }},
      {"fstat", true,
       [](RemoteFileClient& c, const std::string&, int fd) {
         auto st = c.p_fstat(fd);
         ASSERT_TRUE(st.ok()) << st.status().ToString();
         EXPECT_EQ(st->size, 5);
       }},
      {"stat", true,
       [](RemoteFileClient& c, const std::string& dir, int) {
         auto st = c.stat(dir + "/f.txt");
         ASSERT_TRUE(st.ok()) << st.status().ToString();
         EXPECT_EQ(st->name, "f.txt");
       }},
      {"readdir", true,
       [](RemoteFileClient& c, const std::string& dir, int) {
         auto entries = c.readdir(dir);
         ASSERT_TRUE(entries.ok()) << entries.status().ToString();
         ASSERT_EQ(entries->size(), 1u);
         EXPECT_EQ((*entries)[0].name, "f.txt");
       }},
      {"query", false,
       [](RemoteFileClient& c, const std::string& dir, int) {
         auto rs = c.Query("retrieve (n.filename) from n in naming where "
                           "n.filename = \"" + dir.substr(1) + "\"");
         ASSERT_TRUE(rs.ok()) << rs.status().ToString();
         ASSERT_EQ(rs->rows.size(), 1u);
         EXPECT_EQ(rs->rows[0][0].AsText(), dir.substr(1));
       }},
  };
  int runs = 0;
  // One run of `k` from a new client in a new directory, its reply cut to
  // `cut` bytes; returns the intact reply's size.
  auto run_once = [&](const Case& k, size_t cut) {
    RemoteFileClient c(&cutter, copts);
    char dir[16];
    std::snprintf(dir, sizeof(dir), "/d%04d", runs++);
    EXPECT_TRUE(c.mkdir(dir).ok());
    auto fd = c.p_creat(std::string(dir) + "/f.txt");
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    EXPECT_TRUE(c.p_write(*fd, AsBytes("hello")).ok());
    EXPECT_TRUE(c.p_lseek(*fd, 0, Whence::kSet).ok());
    const uint64_t corrupt = CounterValue("rpc.client.corrupt_responses");
    Histogram* executions =
        world_->db().metrics().GetHistogram("rpc.latency_us", k.label);
    const uint64_t executed = executions->Count();
    cutter.Cut(cut);
    k.run(c, dir, *fd);
    if (cut < cutter.intact_size()) {
      EXPECT_EQ(CounterValue("rpc.client.corrupt_responses"), corrupt + 1);
      EXPECT_EQ(executions->Count() - executed, k.idempotent ? 2u : 1u);
    }
    return cutter.intact_size();
  };
  for (const Case& k : cases) {
    const size_t intact = run_once(k, SIZE_MAX);
    ASSERT_GT(intact, 1u) << k.label << ": reply has a payload";
    for (size_t cut = 0; cut < intact; ++cut) {
      SCOPED_TRACE(std::string(k.label) + " cut to " + std::to_string(cut));
      run_once(k, cut);
    }
  }
}

TEST_F(NetFaultTest, ResetMidTransactionAbortsItAndReleasesEverything) {
  ASSERT_TRUE(client_->p_begin().ok());
  auto fd = client_->p_creat("/txn.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client_->p_write(*fd, AsBytes("doomed")).ok());
  const uint32_t epoch_before = client_->epoch();
  NetFaultSpec spec;
  spec.kind = NetFaultSpec::Kind::kReset;
  wire_->ArmOne(spec);
  // The connection dies under the open transaction. The retry announces a
  // new epoch; the server must abort the orphan and say so — not hang, not
  // leak locks, not silently continue the transaction.
  const Status st = client_->p_write(*fd, AsBytes("more")).status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kTxnAborted) << st.ToString();
  EXPECT_EQ(client_->epoch(), epoch_before + 1);
  EXPECT_EQ(CounterValue("rpc.server.epoch_bumps"), 1u);
  EXPECT_EQ(world_->db().locks().NumLockedRelations(), 0u);
  EXPECT_EQ(world_->db().txns().ActiveTxnCount(), 0u);
  // The transaction never happened...
  EXPECT_TRUE(client_->stat("/txn.txt").status().IsNotFound());
  // ...and the same stub keeps working in its new session epoch.
  auto fd2 = client_->p_creat("/after.txt");
  ASSERT_TRUE(fd2.ok()) << fd2.status().ToString();
  ASSERT_TRUE(client_->p_close(*fd2).ok());
  EXPECT_TRUE(client_->stat("/after.txt").ok());
}

TEST_F(NetFaultTest, ResetOutsideTransactionIsAbsorbedSilently) {
  NetFaultSpec spec;
  spec.kind = NetFaultSpec::Kind::kReset;
  wire_->ArmOne(spec);
  // No open transaction: the reset costs an epoch bump and a retry, and the
  // op itself (never delivered before the reset) executes exactly once.
  auto fd = client_->p_creat("/quiet.txt");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(client_->p_write(*fd, AsBytes("fine")).ok());
  ASSERT_TRUE(client_->p_close(*fd).ok());
  EXPECT_EQ(ReadAll("/quiet.txt"), "fine");
  EXPECT_EQ(CounterValue("rpc.client.resets"), 1u);
}

TEST_F(NetFaultTest, RateModeIsDeterministicPerSeed) {
  auto run = [&](uint64_t seed) {
    FaultyTransport t(loop_.get(), &world_->clock(), seed);
    NetFaultRates rates;
    rates.drop_request = 0.3;
    rates.truncate = 0.2;
    t.ArmRates(rates);
    RpcClientOptions copts;
    copts.clock = &world_->clock();
    RemoteFileClient c(&t, copts);
    for (int i = 0; i < 10; ++i) {
      (void)c.stat("/nope" + std::to_string(i));
    }
    return t.faults_fired();
  };
  const uint64_t a = run(0xA11CE);
  const uint64_t b = run(0xA11CE);
  EXPECT_EQ(a, b) << "same seed, same draws";
  EXPECT_GT(a, 0u) << "30% drop over >=20 exchanges should fire";
}

// ---- duplicate-request cache bounds (manual frames) -------------------------

class DrcBoundsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = InversionWorld::Create();
    ASSERT_TRUE(world.ok());
    world_ = std::move(*world);
    RpcServerOptions sopts;
    sopts.drc_capacity = 1;  // pathological: every new reply evicts the last
    sopts.max_clients = 2;
    server_ = std::make_unique<InversionServer>(&world_->fs(), sopts);
  }

  std::unique_ptr<InversionWorld> world_;
  std::unique_ptr<InversionServer> server_;
};

TEST_F(DrcBoundsTest, EvictedRetryFailsCrisplyInsteadOfReExecuting) {
  ByteWriter creat;
  creat.Str("/e.txt");
  creat.U8(kDeviceMagneticDisk);
  creat.Str("root");   // owner
  creat.Str("file");   // type
  creat.U8(0);         // compressed
  creat.U8(1);         // keep_history
  auto r1 = Decode(server_->Handle(Frame(9, 1, 1, RpcOp::kCreat, creat)));
  ASSERT_TRUE(r1.ok) << r1.message;
  const std::vector<std::byte> replay =
      server_->Handle(Frame(9, 1, 1, RpcOp::kCreat, creat));
  // (That second delivery of seq 1 was a replay — same fd, no AlreadyExists.)
  ByteReader fd_reader(replay);
  ASSERT_EQ(fd_reader.U8(), 1u);
  const int fd = static_cast<int>(fd_reader.U32());

  ByteWriter w1;
  w1.U32(static_cast<uint32_t>(fd));
  w1.Blob(AsBytes("aa"));
  ASSERT_TRUE(Decode(server_->Handle(Frame(9, 2, 1, RpcOp::kWrite, w1))).ok);
  // Capacity 1: caching seq 2's reply evicted seq 1's; caching seq 3's
  // evicts seq 2's.
  ByteWriter w2;
  w2.U32(static_cast<uint32_t>(fd));
  w2.Blob(AsBytes("bb"));
  ASSERT_TRUE(Decode(server_->Handle(Frame(9, 3, 1, RpcOp::kWrite, w2))).ok);
  EXPECT_EQ(server_->drc_entries(), 1u);

  // A retry of seq 2 now finds no cached reply. Silent re-execution would
  // append "aa" again; the server must refuse instead.
  auto retry = Decode(server_->Handle(Frame(9, 2, 1, RpcOp::kWrite, w1)));
  ASSERT_FALSE(retry.ok);
  EXPECT_EQ(retry.code, ErrorCode::kInternal) << retry.message;
  EXPECT_NE(retry.message.find("evicted"), std::string::npos) << retry.message;

  // Close via a fresh seq, then prove the file holds exactly one "aa".
  ByteWriter cl;
  cl.U32(static_cast<uint32_t>(fd));
  ASSERT_TRUE(Decode(server_->Handle(Frame(9, 4, 1, RpcOp::kClose, cl))).ok);
  auto check = world_->session().p_open("/e.txt", OpenMode::kRead);
  ASSERT_TRUE(check.ok());
  std::vector<std::byte> buf(64);
  auto n = world_->session().p_read(*check, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(buf.data()),
                        static_cast<size_t>(*n)),
            "aabb");
  ASSERT_TRUE(world_->session().p_close(*check).ok());
}

TEST_F(DrcBoundsTest, StaleEpochFramesAreRejected) {
  ByteWriter args;
  args.Str("/");
  args.U64(kTimestampNow);
  ASSERT_TRUE(Decode(server_->Handle(Frame(5, 1, 3, RpcOp::kReaddir, args))).ok);
  auto stale = Decode(server_->Handle(Frame(5, 2, 2, RpcOp::kReaddir, args)));
  ASSERT_FALSE(stale.ok);
  EXPECT_EQ(stale.code, ErrorCode::kInvalidArgument);
  EXPECT_NE(stale.message.find("stale"), std::string::npos) << stale.message;
}

TEST_F(DrcBoundsTest, ClientTableIsBounded) {
  ByteWriter args;
  args.Str("/");
  args.U64(kTimestampNow);
  ASSERT_TRUE(Decode(server_->Handle(Frame(1, 1, 1, RpcOp::kReaddir, args))).ok);
  ASSERT_TRUE(Decode(server_->Handle(Frame(2, 1, 1, RpcOp::kReaddir, args))).ok);
  auto third = Decode(server_->Handle(Frame(3, 1, 1, RpcOp::kReaddir, args)));
  ASSERT_FALSE(third.ok);
  EXPECT_EQ(third.code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(server_->num_clients(), 2u);
}

// ---- client trust boundary --------------------------------------------------

// Transport returning attacker-controlled response frames.
class EvilTransport final : public Transport {
 public:
  explicit EvilTransport(std::vector<std::vector<std::byte>> responses)
      : responses_(std::move(responses)) {}

  Result<std::vector<std::byte>> RoundTrip(std::span<const std::byte> /*req*/,
                                           SimMicros /*timeout_us*/) override {
    if (i_ >= responses_.size()) {
      return Status::IoError("script exhausted");
    }
    return responses_[i_++];
  }

 private:
  std::vector<std::vector<std::byte>> responses_;
  size_t i_ = 0;
};

TEST(ClientTrustBoundaryTest, MalformedResponsesSurfaceStatusNeverCrashOrHang) {
  SimClock clock;
  Rng rng(0x5EED);
  // Random garbage frames of every small size, plus adversarial shapes:
  // truncated headers, truncated error frames, ok-frames with huge length
  // prefixes for blob/list decoders.
  std::vector<std::vector<std::byte>> shapes;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::byte> frame(rng.Uniform(24));
    for (auto& b : frame) {
      b = std::byte{static_cast<uint8_t>(rng.Uniform(256))};
    }
    shapes.push_back(std::move(frame));
  }
  {
    ByteWriter huge_blob;  // p_read: ok + blob claiming 4 GB
    huge_blob.U8(1);
    huge_blob.U32(0xFFFFFFFFu);
    shapes.push_back(std::vector<std::byte>(huge_blob.data()));
    ByteWriter huge_list;  // readdir/query: ok + 4 billion entries
    huge_list.U8(1);
    huge_list.U32(0xFFFFFFFFu);
    huge_list.U32(0xFFFFFFFFu);
    shapes.push_back(std::vector<std::byte>(huge_list.data()));
    ByteWriter half_error;  // error frame cut before the message
    half_error.U8(0);
    shapes.push_back(std::vector<std::byte>(half_error.data()));
    shapes.push_back({});  // empty frame
  }
  // One attempt per call: every response consumed exactly once, every result
  // must be a clean Status (possibly ok for Status-only ops with an ok frame).
  for (size_t start = 0; start < shapes.size(); ++start) {
    std::vector<std::vector<std::byte>> script(shapes.begin() + start,
                                               shapes.end());
    EvilTransport evil(std::move(script));
    RpcClientOptions copts;
    copts.clock = &clock;
    copts.retry.max_attempts = 1;
    RemoteFileClient c(&evil, copts);
    (void)c.p_creat("/x");
    std::vector<std::byte> buf(64);
    (void)c.p_read(3, buf);
    (void)c.readdir("/");
    (void)c.Query("retrieve (f.file) from f in fileatt");
    (void)c.stat("/x");
    (void)c.p_lseek(3, 0, Whence::kSet);
  }
  SUCCEED() << "no crash, no hang, no overallocation";
}

}  // namespace
}  // namespace invfs

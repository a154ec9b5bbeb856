// Unit tests: the RPC layer — marshalling, dispatch, error propagation, and
// behavioural parity between remote and local sessions.

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "src/harness/worlds.h"
#include "src/net/rpc.h"
#include "src/util/random.h"

namespace invfs {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto world = InversionWorld::Create();
    ASSERT_TRUE(world.ok());
    world_ = std::move(*world);
    server_ = std::make_unique<InversionServer>(&world_->fs());
    net_ = std::make_unique<NetModel>(&world_->clock(), NetParams{});
    transport_ = std::make_unique<LoopbackTransport>(server_.get(), net_.get());
    client_ = std::make_unique<RemoteFileClient>(transport_.get());
  }

  std::unique_ptr<InversionWorld> world_;
  std::unique_ptr<InversionServer> server_;
  std::unique_ptr<NetModel> net_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<RemoteFileClient> client_;
};

TEST_F(RpcTest, FileRoundtripOverTheWire) {
  ASSERT_TRUE(client_->p_begin().ok());
  auto fd = client_->p_creat("/remote.txt");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string data = "bytes over a marshalled protocol";
  auto n = client_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size())));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, static_cast<int64_t>(data.size()));
  ASSERT_TRUE(client_->p_lseek(*fd, 0, Whence::kSet).ok());
  std::vector<std::byte> buf(data.size());
  auto read = client_->p_read(*fd, buf);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, static_cast<int64_t>(data.size()));
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), data.size()), 0);
  ASSERT_TRUE(client_->p_close(*fd).ok());
  ASSERT_TRUE(client_->p_commit().ok());
}

TEST_F(RpcTest, TransactionsWorkRemotely) {
  ASSERT_TRUE(client_->p_begin().ok());
  auto fd = client_->p_creat("/doomed.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client_->p_close(*fd).ok());
  ASSERT_TRUE(client_->p_abort().ok());
  EXPECT_TRUE(client_->stat("/doomed.txt").status().IsNotFound());
  // Nested transaction rejected remotely, same as locally.
  ASSERT_TRUE(client_->p_begin().ok());
  EXPECT_FALSE(client_->p_begin().ok());
  ASSERT_TRUE(client_->p_commit().ok());
}

TEST_F(RpcTest, NamespaceOpsAndStat) {
  ASSERT_TRUE(client_->mkdir("/dir").ok());
  auto fd = client_->p_creat("/dir/a.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client_->p_close(*fd).ok());
  ASSERT_TRUE(client_->rename("/dir/a.txt", "/dir/b.txt").ok());
  auto st = client_->stat("/dir/b.txt");
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->is_directory);
  auto entries = client_->readdir("/dir");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "b.txt");
  ASSERT_TRUE(client_->unlink("/dir/b.txt").ok());
  EXPECT_TRUE(client_->readdir("/dir")->empty());
}

TEST_F(RpcTest, TimeTravelOpenOverTheWire) {
  auto fd = client_->p_creat("/tt.txt");
  ASSERT_TRUE(fd.ok());
  const std::string v1 = "one";
  ASSERT_TRUE(client_->p_write(*fd, std::as_bytes(std::span(v1.data(), 3))).ok());
  ASSERT_TRUE(client_->p_close(*fd).ok());
  const Timestamp t1 = world_->db().Now();
  fd = client_->p_open("/tt.txt", OpenMode::kWrite);
  ASSERT_TRUE(fd.ok());
  const std::string v2 = "two";
  ASSERT_TRUE(client_->p_write(*fd, std::as_bytes(std::span(v2.data(), 3))).ok());
  ASSERT_TRUE(client_->p_close(*fd).ok());

  auto old_fd = client_->p_open("/tt.txt", OpenMode::kRead, t1);
  ASSERT_TRUE(old_fd.ok());
  std::vector<std::byte> buf(3);
  ASSERT_TRUE(client_->p_read(*old_fd, buf).ok());
  EXPECT_EQ(std::memcmp(buf.data(), "one", 3), 0);
  ASSERT_TRUE(client_->p_close(*old_fd).ok());
  EXPECT_EQ(client_->p_open("/tt.txt", OpenMode::kWrite, t1).status().code(),
            ErrorCode::kReadOnly);
}

TEST_F(RpcTest, QueryOverTheWire) {
  auto fd = client_->p_creat("/q.txt");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client_->p_close(*fd).ok());
  auto rs = client_->Query(
      "retrieve (n.filename) from n in naming where n.filename = \"q.txt\"");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsText(), "q.txt");
}

TEST_F(RpcTest, ErrorsCrossTheWireWithCodes) {
  EXPECT_TRUE(client_->p_open("/absent", OpenMode::kRead).status().IsNotFound());
  EXPECT_EQ(client_->p_read(999, std::span<std::byte>()).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_FALSE(client_->Query("retrieve garbage (").ok());
}

// Forwards to an inner transport and keeps the last request and reply.
class RecordingTransport final : public Transport {
 public:
  explicit RecordingTransport(Transport* inner) : inner_(inner) {}

  Result<std::vector<std::byte>> RoundTrip(std::span<const std::byte> request,
                                           SimMicros timeout_us) override {
    request_.assign(request.begin(), request.end());
    auto reply = inner_->RoundTrip(request, timeout_us);
    reply_ = reply.ok() ? *reply : std::vector<std::byte>{};
    return reply;
  }

  const std::vector<std::byte>& request() const { return request_; }
  const std::vector<std::byte>& reply() const { return reply_; }

 private:
  Transport* inner_;
  std::vector<std::byte> request_;
  std::vector<std::byte> reply_;
};

std::string Hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(b) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(b) & 0xF]);
  }
  return out;
}

// Golden frames are written with spaces between fields for the reader.
std::string Unspaced(std::string_view hex) {
  std::string out;
  for (char ch : hex) {
    if (ch != ' ') {
      out.push_back(ch);
    }
  }
  return out;
}

// A well-formed request header for a new client (tenant "", seq 1, epoch 1):
// a frame built on it reaches its op's argument decoder.
ByteWriter Header(uint64_t client_id, uint8_t op) {
  ByteWriter w;
  w.Str("");
  w.U64(client_id);
  w.U64(1);
  w.U32(1);
  w.U8(op);
  return w;
}
constexpr size_t kUntaggedHeaderBytes = 25;

// Each op's argument bytes as the stub encodes them, captured off the wire
// and keyed by op byte.
std::map<uint8_t, std::vector<std::byte>> StubArgs(Transport* inner) {
  RecordingTransport recorder(inner);
  RemoteFileClient c(&recorder);
  std::vector<std::byte> buf(4);
  const std::function<void()> calls[] = {
      [&] { (void)c.p_begin(); },
      [&] { (void)c.p_commit(); },
      [&] { (void)c.p_abort(); },
      [&] { (void)c.p_creat("/fuzz.txt"); },
      [&] { (void)c.p_open("/fuzz.txt", OpenMode::kWrite); },
      [&] { (void)c.p_close(3); },
      [&] { (void)c.p_read(3, buf); },
      [&] { (void)c.p_write(3, buf); },
      [&] { (void)c.p_lseek(3, 2, Whence::kCur); },
      [&] { (void)c.p_fstat(3); },
      [&] { (void)c.mkdir("/fuzzdir"); },
      [&] { (void)c.unlink("/fuzz.txt"); },
      [&] { (void)c.rename("/fuzz.txt", "/fuzzdir/f.txt"); },
      [&] { (void)c.stat("/fuzz.txt", 1); },
      [&] { (void)c.readdir("/", 1); },
      [&] { (void)c.Query("retrieve (n.filename) from n in naming"); },
  };
  std::map<uint8_t, std::vector<std::byte>> args;
  for (const auto& call : calls) {
    call();
    const std::vector<std::byte>& request = recorder.request();
    args[static_cast<uint8_t>(request[kUntaggedHeaderBytes - 1])].assign(
        request.begin() + kUntaggedHeaderBytes, request.end());
  }
  return args;
}

// Pins the wire format: one request frame and one ok-reply frame per op,
// byte for byte. Every frame is priced by NetModel, so a changed byte moves
// the simulated seconds of the client/server figures.
TEST_F(RpcTest, EveryOpsFramesAreByteExact) {
  RecordingTransport recorder(transport_.get());
  RpcClientOptions copts;
  copts.client_id = 0x0102030405060708;
  RemoteFileClient c(&recorder, copts);
  c.set_tenant("t");
  CreatOptions copt;
  copt.owner = "ann";
  copt.type = "file";
  copt.compressed = true;
  copt.keep_history = false;
  int fd = -1;
  std::vector<std::byte> buf(8);
  const std::string data = "wire";
  const auto wire = std::as_bytes(std::span(data.data(), data.size()));
  struct Golden {
    RpcOp op;
    std::function<Status()> call;
    const char* request;
    const char* reply;
  };
  // Header: tenant "t", client id, seq, epoch 1, op byte; then the args.
  const Golden kGolden[] = {
      {RpcOp::kBegin, [&] { return c.p_begin(); },
       "01000000 74 0807060504030201 0100000000000000 01000000 01", "01"},
      {RpcOp::kAbort, [&] { return c.p_abort(); },
       "01000000 74 0807060504030201 0200000000000000 01000000 03", "01"},
      {RpcOp::kBegin, [&] { return c.p_begin(); },
       "01000000 74 0807060504030201 0300000000000000 01000000 01", "01"},
      {RpcOp::kCreat,
       [&] {
         auto r = c.p_creat("/g.txt", copt);
         fd = r.ok() ? *r : -1;
         return r.status();
       },
       "01000000 74 0807060504030201 0400000000000000 01000000 04 "
       "060000002f672e747874 00 03000000616e6e 0400000066696c65 01 00",
       "01 03000000"},
      {RpcOp::kWrite, [&] { return c.p_write(fd, wire).status(); },
       "01000000 74 0807060504030201 0500000000000000 01000000 08 "
       "03000000 0400000077697265",
       "01 0400000000000000"},
      {RpcOp::kLseek, [&] { return c.p_lseek(fd, 1, Whence::kSet).status(); },
       "01000000 74 0807060504030201 0600000000000000 01000000 09 "
       "03000000 0100000000000000 00",
       "01 0100000000000000"},
      {RpcOp::kRead, [&] { return c.p_read(fd, buf).status(); },
       "01000000 74 0807060504030201 0700000000000000 01000000 07 "
       "03000000 08000000",
       "01 03000000697265"},
      {RpcOp::kFstat, [&] { return c.p_fstat(fd).status(); },
       "01000000 74 0807060504030201 0800000000000000 01000000 0a 03000000",
       "01 78000000 05000000672e747874 03000000616e6e 0400000066696c65 "
       "0400000000000000 02f7020000000000 fc8a030000000000 "
       "02f7020000000000 00 00 01"},
      {RpcOp::kClose, [&] { return c.p_close(fd); },
       "01000000 74 0807060504030201 0900000000000000 01000000 06 "
       "03000000",
       "01"},
      {RpcOp::kCommit, [&] { return c.p_commit(); },
       "01000000 74 0807060504030201 0a00000000000000 01000000 02", "01"},
      {RpcOp::kMkdir, [&] { return c.mkdir("/d"); },
       "01000000 74 0807060504030201 0b00000000000000 01000000 0b "
       "020000002f64",
       "01"},
      {RpcOp::kRename, [&] { return c.rename("/g.txt", "/d/g.txt"); },
       "01000000 74 0807060504030201 0c00000000000000 01000000 0d "
       "060000002f672e747874 080000002f642f672e747874",
       "01"},
      {RpcOp::kStat, [&] { return c.stat("/d/g.txt").status(); },
       "01000000 74 0807060504030201 0d00000000000000 01000000 0e "
       "080000002f642f672e747874 ffffffffffffffff",
       "01 78000000 05000000672e747874 03000000616e6e 0400000066696c65 "
       "0400000000000000 02f7020000000000 fc8a030000000000 "
       "02f7020000000000 00 00 01"},
      {RpcOp::kReaddir, [&] { return c.readdir("/d").status(); },
       "01000000 74 0807060504030201 0e00000000000000 01000000 0f "
       "020000002f64 ffffffffffffffff",
       "01 01000000 05000000672e747874 78000000 00"},
      {RpcOp::kOpen,
       [&] { return c.p_open("/d/g.txt", OpenMode::kRead).status(); },
       "01000000 74 0807060504030201 0f00000000000000 01000000 05 "
       "080000002f642f672e747874 00 ffffffffffffffff",
       "01 04000000"},
      {RpcOp::kQuery,
       [&] {
         return c
             .Query("retrieve (n.filename, n.file) from n in naming "
                    "where n.filename = \"g.txt\"")
             .status();
       },
       "01000000 74 0807060504030201 1000000000000000 01000000 10 "
       "49000000 "
       "726574726965766520286e2e66696c656e616d652c206e2e66696c65"
       "292066726f6d206e20696e206e616d696e67207768657265206e2e66"
       "696c656e616d65203d2022672e74787422",
       "01 02000000 0800000066696c656e616d65 0400000066696c65 "
       "01000000 05 05000000672e747874 07 78000000"},
      {RpcOp::kUnlink, [&] { return c.unlink("/d/g.txt"); },
       "01000000 74 0807060504030201 1100000000000000 01000000 0c "
       "080000002f642f672e747874",
       "01"},
  };
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(static_cast<int>(g.op));
    const Status st = g.call();
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(static_cast<uint8_t>(recorder.request()[25]),
              static_cast<uint8_t>(g.op));
    EXPECT_EQ(Hex(recorder.request()), Unspaced(g.request));
    EXPECT_EQ(Hex(recorder.reply()), Unspaced(g.reply));
  }
}

TEST_F(RpcTest, MalformedRequestRejectedNotCrashed) {
  std::vector<std::byte> garbage{std::byte{0xFF}, std::byte{0x00}, std::byte{0x13}};
  auto response = server_->Handle(garbage);
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(static_cast<uint8_t>(response[0]), 0) << "error response expected";
  // Truncated-but-valid-op request: a whole header, then a write whose fd
  // is there but whose data blob is not.
  ByteWriter write = Header(4, static_cast<uint8_t>(RpcOp::kWrite));
  write.U32(3);
  response = server_->Handle(write.data());
  EXPECT_EQ(static_cast<uint8_t>(response[0]), 0);
  // A creat cut short after its owner and type, so only its two flags are
  // missing, is refused before it reaches the session: no file appears.
  ByteWriter creat = Header(5, static_cast<uint8_t>(RpcOp::kCreat));
  creat.Str("/half.txt");
  creat.U8(kDeviceMagneticDisk);
  creat.Str("root");
  creat.Str("file");
  response = server_->Handle(creat.data());
  EXPECT_EQ(static_cast<uint8_t>(response[0]), 0);
  EXPECT_TRUE(world_->session().stat("/half.txt").status().IsNotFound());
}

TEST_F(RpcTest, UnknownOpBytesAreCountedAndRefused) {
  MetricsRegistry& metrics = world_->db().metrics();
  const uint64_t read_only = metrics.GetCounter("rpc.read_only_requests")->Value();
  for (const uint8_t op : {0, 17, 255}) {
    const ByteWriter frame = Header(1000 + op, op);
    const auto response = server_->Handle(frame.data());
    ByteReader r(response);
    EXPECT_EQ(r.U8(), 0);
    EXPECT_EQ(static_cast<ErrorCode>(r.U8()), ErrorCode::kInvalidArgument);
    EXPECT_EQ(r.Str(), "unknown rpc op " + std::to_string(op));
  }
  EXPECT_EQ(metrics.GetCounter("rpc.requests", "unknown")->Value(), 3u);
  EXPECT_EQ(metrics.GetCounter("rpc.read_only_requests")->Value(), read_only);
}

TEST_F(RpcTest, FuzzedFramesAlwaysGetResponsesNeverCrash) {
  Rng rng(0xF422);
  // Pure random frames: garbage opcodes, garbage fields, random lengths.
  for (int i = 0; i < 400; ++i) {
    std::vector<std::byte> frame(rng.Uniform(48));
    for (auto& b : frame) {
      b = std::byte{static_cast<uint8_t>(rng.Uniform(256))};
    }
    auto response = server_->Handle(frame);
    ASSERT_FALSE(response.empty());
    ASSERT_LE(static_cast<uint8_t>(response[0]), 1u);
  }
  // Every op byte (valid and beyond) behind a well-formed header, from a new
  // client each time, so the frame reaches the op's argument decoder. Its
  // args are the stub's own cut short, the stub's with bytes randomised, or
  // random bytes: the decoder must hit its sticky truncation flag, never
  // read off the end, and args cut short must be refused.
  const auto stub_args = StubArgs(transport_.get());
  uint64_t client_id = 1000;
  for (int op = 0; op <= 20; ++op) {
    const auto found = stub_args.find(static_cast<uint8_t>(op));
    const std::vector<std::byte> valid =
        found != stub_args.end() ? found->second : std::vector<std::byte>{};
    for (int i = 0; i < 16; ++i) {
      ByteWriter frame = Header(++client_id, static_cast<uint8_t>(op));
      const bool cut = i % 3 == 0 && !valid.empty();
      std::vector<std::byte> tail = valid;
      if (cut) {
        tail.resize(rng.Uniform(valid.size()));
      } else if (i % 3 == 1) {
        for (auto& b : tail) {
          if (rng.Uniform(4) == 0) {
            b = std::byte{static_cast<uint8_t>(rng.Uniform(256))};
          }
        }
      } else {
        tail.resize(rng.Uniform(2 * valid.size() + 12));
        for (auto& b : tail) {
          b = std::byte{static_cast<uint8_t>(rng.Uniform(256))};
        }
      }
      frame.Bytes(tail);
      auto response = server_->Handle(frame.data());
      ASSERT_FALSE(response.empty());
      ASSERT_LE(static_cast<uint8_t>(response[0]), 1u);
      if (cut) {
        EXPECT_EQ(static_cast<uint8_t>(response[0]), 0)
            << "op " << op << " args cut to " << tail.size() << " bytes";
      }
    }
  }
}

TEST_F(RpcTest, OversizedReadLengthRejectedBeforeAllocation) {
  // A frame asking for a 4 GB read buffer: the server must refuse at its
  // trust boundary instead of allocating. The header (tenant, client id,
  // seq, epoch) must be well-formed so the frame reaches the arg decoder.
  ByteWriter w = Header(77, static_cast<uint8_t>(RpcOp::kRead));
  w.U32(7);            // fd (bogus; never reached)
  w.U32(0xFFFFFFFFu);  // requested length
  auto response = server_->Handle(w.data());
  ASSERT_FALSE(response.empty());
  EXPECT_EQ(static_cast<uint8_t>(response[0]), 0) << "error response expected";
}

TEST_F(RpcTest, WireCostIsCharged) {
  const uint64_t messages_before = net_->total_messages();
  const SimMicros t0 = world_->clock().Peek();
  auto fd = client_->p_creat("/cost.txt");
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> page(8192, std::byte{1});
  ASSERT_TRUE(client_->p_write(*fd, page).ok());
  ASSERT_TRUE(client_->p_close(*fd).ok());
  EXPECT_GE(net_->total_messages(), messages_before + 6);  // 3 calls x 2 legs
  EXPECT_GT(world_->clock().Peek(), t0);
}

TEST_F(RpcTest, RemoteAndLocalSessionsShareOneFileSystem) {
  // The paper: "the same Inversion file can be used by a database application
  // and by a file system client simultaneously."
  auto& local = world_->session();
  ASSERT_TRUE(local.p_begin().ok());
  auto fd = local.p_creat("/shared.txt");
  ASSERT_TRUE(fd.ok());
  const std::string data = "written locally";
  ASSERT_TRUE(
      local.p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
  ASSERT_TRUE(local.p_close(*fd).ok());
  ASSERT_TRUE(local.p_commit().ok());

  auto remote_fd = client_->p_open("/shared.txt", OpenMode::kRead);
  ASSERT_TRUE(remote_fd.ok());
  std::vector<std::byte> buf(data.size());
  auto n = client_->p_read(*remote_fd, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), data.size()), 0);
  ASSERT_TRUE(client_->p_close(*remote_fd).ok());
}

}  // namespace
}  // namespace invfs

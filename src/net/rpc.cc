#include "src/net/rpc.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <tuple>
#include <type_traits>

#include "src/obs/span.h"

namespace invfs {
namespace {

// Largest read a single request frame may ask the server to buffer.
constexpr uint32_t kMaxRpcReadBytes = 64u << 20;

// Auto-assigned stub ids (RpcClientOptions::client_id == 0): process-wide so
// two stubs never collide, deterministic per construction order.
std::atomic<uint64_t> g_next_client_id{1};

// The rpc.client.* instruments are null when the stub has no registry.
void Count(Counter* counter) {
  if (counter != nullptr) {
    counter->Add();
  }
}

// ---- wire types -------------------------------------------------------------
//
// One Put/Get pair per type that crosses the wire, side by side. The client
// stub Puts its arguments and Gets the reply; the server Gets the session
// method's parameters and Puts its result. Both pick the pair by the C++
// type of the value (`int` is an fd, `uint64_t` a timestamp), so a stub and
// the session method it mirrors, which share one signature, share one
// encoding. Get reads through ByteReader's sticky error flag: the caller
// checks r.ok() once, after the last field.

template <typename T>
T Get(ByteReader& r);

// The reply of a status-only op: no payload.
struct NoReply {};
template <>
NoReply Get<NoReply>(ByteReader& /*r*/) {
  return {};
}

void Put(ByteWriter& w, int fd) { w.U32(static_cast<uint32_t>(fd)); }
template <>
int Get<int>(ByteReader& r) {
  return static_cast<int>(r.U32());
}

void Put(ByteWriter& w, uint32_t v) { w.U32(v); }
template <>
uint32_t Get<uint32_t>(ByteReader& r) {
  return r.U32();
}

void Put(ByteWriter& w, int64_t v) { w.I64(v); }
template <>
int64_t Get<int64_t>(ByteReader& r) {
  return r.I64();
}

void Put(ByteWriter& w, uint64_t v) { w.U64(v); }
template <>
uint64_t Get<uint64_t>(ByteReader& r) {
  return r.U64();
}

void Put(ByteWriter& w, OpenMode mode) {
  w.U8(mode == OpenMode::kWrite ? 1 : 0);
}
template <>
OpenMode Get<OpenMode>(ByteReader& r) {
  return r.U8() != 0 ? OpenMode::kWrite : OpenMode::kRead;
}

void Put(ByteWriter& w, Whence whence) { w.U8(static_cast<uint8_t>(whence)); }
template <>
Whence Get<Whence>(ByteReader& r) {
  return static_cast<Whence>(r.U8());
}

void Put(ByteWriter& w, std::string_view s) { w.Str(s); }
template <>
std::string Get<std::string>(ByteReader& r) {
  return r.Str();
}

void Put(ByteWriter& w, std::span<const std::byte> data) { w.Blob(data); }
template <>
std::vector<std::byte> Get<std::vector<std::byte>>(ByteReader& r) {
  return r.Blob();
}

void Put(ByteWriter& w, const CreatOptions& options) {
  w.U8(options.device);
  w.Str(options.owner);
  w.Str(options.type);
  w.U8(options.compressed ? 1 : 0);
  w.U8(options.keep_history ? 1 : 0);
}
template <>
CreatOptions Get<CreatOptions>(ByteReader& r) {
  CreatOptions options;
  options.device = r.U8();
  options.owner = r.Str();
  options.type = r.Str();
  options.compressed = r.U8() != 0;
  options.keep_history = r.U8() != 0;
  return options;
}

void Put(ByteWriter& w, const FileStat& st) {
  w.U32(st.oid);
  w.Str(st.name);
  w.Str(st.owner);
  w.Str(st.type);
  w.I64(st.size);
  w.U64(st.ctime);
  w.U64(st.mtime);
  w.U64(st.atime);
  w.U8(st.device);
  w.U8(st.is_directory ? 1 : 0);
  w.U8(st.compressed ? 1 : 0);
}
template <>
FileStat Get<FileStat>(ByteReader& r) {
  FileStat st;
  st.oid = r.U32();
  st.name = r.Str();
  st.owner = r.Str();
  st.type = r.Str();
  st.size = r.I64();
  st.ctime = r.U64();
  st.mtime = r.U64();
  st.atime = r.U64();
  st.device = r.U8();
  st.is_directory = r.U8() != 0;
  st.compressed = r.U8() != 0;
  return st;
}

void Put(ByteWriter& w, const std::vector<DirEntry>& entries) {
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const DirEntry& e : entries) {
    w.Str(e.name);
    w.U32(e.oid);
    w.U8(e.is_directory ? 1 : 0);
  }
}
template <>
std::vector<DirEntry> Get<std::vector<DirEntry>>(ByteReader& r) {
  const uint32_t n = r.U32();
  std::vector<DirEntry> out;
  // `n` is wire-controlled: bound the reservation by what the payload could
  // possibly hold (>= 9 bytes per entry) and let the sticky reader error end
  // the loop, so an oversized count can neither over-allocate nor spin.
  out.reserve(std::min<size_t>(n, r.remaining() / 9));
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    DirEntry e;
    e.name = r.Str();
    e.oid = r.U32();
    e.is_directory = r.U8() != 0;
    out.push_back(std::move(e));
  }
  return out;
}

// A query result's cells, each tagged with its type.
enum class WireType : uint8_t {
  kNull = 0,
  kBool,
  kInt4,
  kInt8,
  kFloat8,
  kText,
  kBytea,
  kOid,
  kTimestamp,
};

void PutValue(ByteWriter& w, const Value& v) {
  if (v.is_null()) {
    w.U8(static_cast<uint8_t>(WireType::kNull));
  } else if (v.HasType(TypeId::kBool)) {
    w.U8(static_cast<uint8_t>(WireType::kBool));
    w.U8(v.AsBool() ? 1 : 0);
  } else if (v.HasType(TypeId::kInt4)) {
    w.U8(static_cast<uint8_t>(WireType::kInt4));
    w.U32(static_cast<uint32_t>(v.AsInt4()));
  } else if (v.HasType(TypeId::kInt8)) {
    w.U8(static_cast<uint8_t>(WireType::kInt8));
    w.I64(v.AsInt8());
  } else if (v.HasType(TypeId::kFloat8)) {
    w.U8(static_cast<uint8_t>(WireType::kFloat8));
    w.F64(v.AsFloat8());
  } else if (v.HasType(TypeId::kText)) {
    w.U8(static_cast<uint8_t>(WireType::kText));
    w.Str(v.AsText());
  } else if (v.HasType(TypeId::kBytea)) {
    w.U8(static_cast<uint8_t>(WireType::kBytea));
    w.Blob(v.AsBytes());
  } else if (v.HasType(TypeId::kOid)) {
    w.U8(static_cast<uint8_t>(WireType::kOid));
    w.U32(v.AsOid());
  } else {
    w.U8(static_cast<uint8_t>(WireType::kTimestamp));
    w.U64(v.AsTimestamp());
  }
}

Value GetValue(ByteReader& r) {
  switch (static_cast<WireType>(r.U8())) {
    case WireType::kNull:
      return Value::Null();
    case WireType::kBool:
      return Value::Bool(r.U8() != 0);
    case WireType::kInt4:
      return Value::Int4(static_cast<int32_t>(r.U32()));
    case WireType::kInt8:
      return Value::Int8(r.I64());
    case WireType::kFloat8:
      return Value::Float8(r.F64());
    case WireType::kText:
      return Value::Text(r.Str());
    case WireType::kBytea:
      return Value::Bytes(r.Blob());
    case WireType::kOid:
      return Value::MakeOid(r.U32());
    case WireType::kTimestamp:
      return Value::MakeTimestamp(r.U64());
  }
  return Value::Null();
}

void Put(ByteWriter& w, const ResultSet& rs) {
  w.U32(static_cast<uint32_t>(rs.columns.size()));
  for (const std::string& c : rs.columns) {
    w.Str(c);
  }
  w.U32(static_cast<uint32_t>(rs.rows.size()));
  for (const Row& row : rs.rows) {
    for (const Value& v : row) {
      PutValue(w, v);
    }
  }
}
template <>
ResultSet Get<ResultSet>(ByteReader& r) {
  ResultSet rs;
  const uint32_t ncols = r.U32();
  for (uint32_t i = 0; i < ncols && r.ok(); ++i) {
    rs.columns.push_back(r.Str());
  }
  // Both counts are wire-controlled; the r.ok() guards keep a huge count
  // from looping billions of times over an exhausted reader.
  const uint32_t nrows = r.U32();
  for (uint32_t i = 0; i < nrows && r.ok(); ++i) {
    Row row;
    row.reserve(rs.columns.size());
    for (uint32_t c = 0; c < ncols && r.ok(); ++c) {
      row.push_back(GetValue(r));
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

// ---- server side of each op -------------------------------------------------

std::vector<std::byte> ErrorResponse(const Status& status) {
  ByteWriter w;
  w.U8(0);
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

// The decoded, owning form of a session-method parameter.
template <typename P>
struct Owned {
  using type = std::decay_t<P>;
};
template <>
struct Owned<std::string_view> {
  using type = std::string;
};
template <>
struct Owned<std::span<const std::byte>> {
  using type = std::vector<std::byte>;
};

// Decodes `method`'s parameters from the request in declaration order, runs
// it only if every one decoded (a frame cut short inside its args must not
// touch the session), and puts its ok-value, if it returns one, after the
// reply's status byte.
template <typename R, typename... Params>
Status Invoke(R (InvSession::*method)(Params...), ByteReader& r,
              ByteWriter& reply, InvSession& session) {
  // A braced list is evaluated left to right: the args decode in wire order.
  std::tuple<typename Owned<Params>::type...> args{
      Get<typename Owned<Params>::type>(r)...};
  if (!r.ok()) {
    return Status::InvalidArgument("malformed rpc request");
  }
  R result = std::apply(
      [&](auto&... a) { return (session.*method)(a...); }, args);
  if constexpr (std::is_same_v<R, Status>) {
    return result;
  } else {
    if (result.ok()) {
      Put(reply, *result);
    }
    return result.status();
  }
}

template <auto Method>
Status Serve(ByteReader& r, ByteWriter& reply, InvSession& session) {
  return Invoke(Method, r, reply, session);
}

// p_read's wire args are the fd and a length, and the server owns the buffer.
Status ServeRead(ByteReader& r, ByteWriter& reply, InvSession& session) {
  const int fd = Get<int>(r);
  const uint32_t len = Get<uint32_t>(r);
  if (!r.ok()) {
    return Status::InvalidArgument("malformed rpc request");
  }
  // Trust boundary: `len` is wire-controlled. Without a cap a single
  // 9-byte frame could demand a 4 GB allocation before p_read ever runs.
  if (len > kMaxRpcReadBytes) {
    return Status::InvalidArgument(
        "rpc read of " + std::to_string(len) + " bytes exceeds the " +
        std::to_string(kMaxRpcReadBytes) + "-byte frame limit");
  }
  std::vector<std::byte> buf(len);
  INV_ASSIGN_OR_RETURN(const int64_t n, session.p_read(fd, buf));
  Put(reply, std::span<const std::byte>(buf.data(), static_cast<size_t>(n)));
  return Status::Ok();
}

// ---- the op table -----------------------------------------------------------
//
// Each op's one description outside its wire layout. Columns:
//   label       rpc.requests / rpc.latency_us metric label.
//   span        root span name, a static literal so dispatch never interns.
//   read_only   read-only by construction: outside an explicit client
//               transaction the op runs as a read-only single-op transaction
//               — pinned snapshot, no data locks, no commit-log record — so a
//               writer holding exclusive locks never delays it. kOpen and
//               kQuery are *conditionally* read-only (mode / statement kind
//               decides inside the session layer) and are conservatively
//               false.
//   idempotent  a duplicate delivery may safely re-execute the op (the retry
//               class). Strictly narrower than read_only: kRead advances the
//               fd offset and kLseek with Whence::kCur moves it relative to
//               itself, so replaying either observably changes session state
//               even though neither takes a data lock. Every other op has its
//               reply cached in the duplicate-request cache and replayed,
//               never re-executed, on a retry.
//   serve       the server side: decode args, run on the session, put reply.
struct RpcOpInfo {
  RpcOp op;
  const char* label;
  const char* span;
  bool read_only;
  bool idempotent;
  Status (*serve)(ByteReader& r, ByteWriter& reply, InvSession& session);
};

// Indexed by op byte; row 0 answers for every byte outside the enum.
constexpr RpcOpInfo kRpcOps[] = {
    {RpcOp{0}, "unknown", "rpc.unknown", false, false, nullptr},
    {RpcOp::kBegin, "begin", "rpc.begin", false, false,
     Serve<&InvSession::p_begin>},
    {RpcOp::kCommit, "commit", "rpc.commit", false, false,
     Serve<&InvSession::p_commit>},
    {RpcOp::kAbort, "abort", "rpc.abort", false, false,
     Serve<&InvSession::p_abort>},
    {RpcOp::kCreat, "creat", "rpc.creat", false, false,
     Serve<&InvSession::p_creat>},
    {RpcOp::kOpen, "open", "rpc.open", false, false,
     Serve<&InvSession::p_open>},
    {RpcOp::kClose, "close", "rpc.close", false, false,
     Serve<&InvSession::p_close>},
    {RpcOp::kRead, "read", "rpc.read", true, false, ServeRead},
    {RpcOp::kWrite, "write", "rpc.write", false, false,
     Serve<&InvSession::p_write>},
    {RpcOp::kLseek, "lseek", "rpc.lseek", true, false,
     Serve<&InvSession::p_lseek>},
    {RpcOp::kFstat, "fstat", "rpc.fstat", true, true,
     Serve<&InvSession::p_fstat>},
    {RpcOp::kMkdir, "mkdir", "rpc.mkdir", false, false,
     Serve<&InvSession::mkdir>},
    {RpcOp::kUnlink, "unlink", "rpc.unlink", false, false,
     Serve<&InvSession::unlink>},
    {RpcOp::kRename, "rename", "rpc.rename", false, false,
     Serve<&InvSession::rename>},
    {RpcOp::kStat, "stat", "rpc.stat", true, true, Serve<&InvSession::stat>},
    {RpcOp::kReaddir, "readdir", "rpc.readdir", true, true,
     Serve<&InvSession::readdir>},
    {RpcOp::kQuery, "query", "rpc.query", false, false,
     Serve<&InvSession::Query>},
};

static_assert(std::size(kRpcOps) == static_cast<size_t>(RpcOp::kQuery) + 1);
static_assert(
    [] {
      for (size_t i = 0; i < std::size(kRpcOps); ++i) {
        if (static_cast<size_t>(kRpcOps[i].op) != i) {
          return false;
        }
      }
      return true;
    }(),
    "kRpcOps rows must be in op-byte order");

const RpcOpInfo& RpcOpInfoOf(RpcOp op) {
  const auto i = static_cast<size_t>(op);
  return i < std::size(kRpcOps) ? kRpcOps[i] : kRpcOps[0];
}

}  // namespace

// -------------------------------------------------------------------- server

InversionServer::InversionServer(InversionFs* fs, RpcServerOptions options)
    : fs_(fs), options_(options) {
  metrics_ = &fs_->db().metrics();
  bytes_in_ = metrics_->GetCounter("rpc.bytes_in");
  bytes_out_ = metrics_->GetCounter("rpc.bytes_out");
  drc_hits_ = metrics_->GetCounter("rpc.server.drc_hits");
  drc_evictions_ = metrics_->GetCounter("rpc.server.drc_evictions");
  drc_lost_ = metrics_->GetCounter("rpc.server.drc_lost");
  epoch_bumps_ = metrics_->GetCounter("rpc.server.epoch_bumps");
  stale_epochs_ = metrics_->GetCounter("rpc.server.stale_epochs");
}

TenantBinding* InversionServer::BindTenant(const std::string& tenant) {
  if (tenant.empty()) {
    return nullptr;
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(tenant, std::make_unique<TenantBinding>(metrics_, tenant))
             .first;
  }
  return it->second.get();
}

void InversionServer::CacheReply(uint64_t client_id, ClientState& cs,
                                 uint64_t seq,
                                 const std::vector<std::byte>& reply) {
  cs.replies.emplace(seq, reply);
  cs.max_seq = std::max(cs.max_seq, seq);
  drc_fifo_.emplace_back(client_id, seq);
  while (drc_fifo_.size() > options_.drc_capacity) {
    const auto [cid, old_seq] = drc_fifo_.front();
    drc_fifo_.pop_front();
    auto it = clients_.find(cid);
    if (it != clients_.end()) {
      it->second.replies.erase(old_seq);
    }
    drc_evictions_->Add();
  }
}

std::vector<std::byte> InversionServer::Handle(
    std::span<const std::byte> request) {
  bytes_in_->Add(request.size());
  ByteReader r(request);
  const std::string tenant = r.Str();
  const uint64_t client_id = r.U64();
  const uint64_t seq = r.U64();
  const uint32_t epoch = r.U32();
  const RpcOp op = static_cast<RpcOp>(r.U8());
  auto respond = [this](std::vector<std::byte> resp) {
    bytes_out_->Add(resp.size());
    return resp;
  };
  // A header the reader could not fully decode carries no usable identity:
  // reject before creating any per-client state from garbage bytes.
  if (!r.ok()) {
    return respond(ErrorResponse(
        Status::InvalidArgument("malformed rpc request header")));
  }
  // Re-establish the caller's tenant tag before the root span opens so the
  // whole server-side request tree — and every op.latency_us observation the
  // session makes — attributes to the remote tenant.
  ScopedTenantTag tag(BindTenant(tenant));
  const RpcOpInfo& info = RpcOpInfoOf(op);
  const OpInstruments& instruments = InstrumentsFor(op);
  instruments.requests->Add();
  if (instruments.read_only_requests != nullptr) {
    instruments.read_only_requests->Add();
  }

  auto it = clients_.find(client_id);
  if (it == clients_.end()) {
    if (clients_.size() >= options_.max_clients) {
      return respond(ErrorResponse(Status::ResourceExhausted(
          "rpc server at its client limit (" +
          std::to_string(options_.max_clients) + ")")));
    }
    auto session = fs_->NewSession();
    if (!session.ok()) {
      return respond(ErrorResponse(session.status()));
    }
    ClientState fresh;
    fresh.epoch = epoch;
    fresh.session = std::move(*session);
    it = clients_.emplace(client_id, std::move(fresh)).first;
  }
  ClientState& cs = it->second;

  if (epoch < cs.epoch) {
    stale_epochs_->Add();
    return respond(ErrorResponse(Status::InvalidArgument(
        "stale session epoch " + std::to_string(epoch) + " (current " +
        std::to_string(cs.epoch) + ")")));
  }
  if (epoch > cs.epoch) {
    // Session recovery: the client observed a connection reset and announced
    // a new generation. Tear the old session down — its destructor aborts an
    // open transaction (releasing every lock) and closes orphaned fds — and
    // start fresh. If a transaction was in fact orphaned, the triggering
    // request is answered with the abort instead of being executed: its fds
    // and transaction context died with the old epoch, and the client must
    // learn that crisply rather than observe a half-applied op.
    epoch_bumps_->Add();
    const bool orphaned = cs.session != nullptr && cs.session->in_txn();
    cs.session.reset();
    auto session = fs_->NewSession();
    if (!session.ok()) {
      return respond(ErrorResponse(session.status()));
    }
    cs.session = std::move(*session);
    cs.epoch = epoch;
    if (orphaned) {
      std::vector<std::byte> resp = ErrorResponse(Status::TxnAborted(
          "session reset: open transaction aborted, fds closed"));
      if (!info.idempotent) {
        // The abort notice is this seq's reply of record: a retry of the
        // same seq must replay it, not execute the op on the new session.
        CacheReply(client_id, cs, seq, resp);
      }
      return respond(std::move(resp));
    }
  }

  // Duplicate-request cache (Juszczak): a retried or duplicated delivery of
  // a non-idempotent op replays the cached reply instead of re-executing.
  if (!info.idempotent) {
    auto hit = cs.replies.find(seq);
    if (hit != cs.replies.end()) {
      drc_hits_->Add();
      return respond(hit->second);
    }
    if (seq != 0 && seq <= cs.max_seq) {
      // Already executed, reply evicted: refusing is the only honest answer
      // — re-executing would apply the op twice.
      drc_lost_->Add();
      return respond(ErrorResponse(Status::Internal(
          "duplicate request seq " + std::to_string(seq) +
          ": cached reply evicted, cannot guarantee at-most-once")));
    }
  }

  std::vector<std::byte> response = Execute(op, r, cs);
  if (!info.idempotent) {
    CacheReply(client_id, cs, seq, response);
  }
  return respond(std::move(response));
}

std::vector<std::byte> InversionServer::Execute(RpcOp op, ByteReader& r,
                                                ClientState& cs) {
  const RpcOpInfo& info = RpcOpInfoOf(op);
  // Root of the request's causal trace: every span the handled op opens
  // below (p_* entry, txn, buffer, device, commit) becomes a descendant.
  ScopedSpan span(&metrics_->spans(), info.span);
  ByteWriter reply;
  reply.U8(1);  // ok; the payload follows
  const Status status =
      info.serve != nullptr
          ? info.serve(r, reply, *cs.session)
          : Status::InvalidArgument("unknown rpc op " +
                                    std::to_string(static_cast<int>(op)));
  std::vector<std::byte> response =
      status.ok() ? reply.Take() : ErrorResponse(status);
  Histogram*& latency = InstrumentsFor(op).latency;
  if (latency == nullptr) {
    latency = metrics_->GetHistogram("rpc.latency_us", info.label);
  }
  latency->Observe(span.Finish());
  return response;
}

InversionServer::OpInstruments& InversionServer::InstrumentsFor(RpcOp op) {
  const RpcOpInfo& info = RpcOpInfoOf(op);
  OpInstruments& m = ops_[static_cast<size_t>(info.op)];
  if (m.requests == nullptr) {
    m.requests = metrics_->GetCounter("rpc.requests", info.label);
    if (info.read_only) {
      m.read_only_requests = metrics_->GetCounter("rpc.read_only_requests");
    }
  }
  return m;
}

// -------------------------------------------------------------------- client

RemoteFileClient::RemoteFileClient(Transport* transport,
                                   RpcClientOptions options)
    : transport_(transport), options_(options) {
  client_id_ = options_.client_id != 0
                   ? options_.client_id
                   : g_next_client_id.fetch_add(1, std::memory_order_relaxed);
  if (options_.metrics != nullptr) {
    calls_ = options_.metrics->GetCounter("rpc.client.calls");
    retries_counter_ = options_.metrics->GetCounter("rpc.client.retries");
    timeouts_ = options_.metrics->GetCounter("rpc.client.timeouts");
    resets_ = options_.metrics->GetCounter("rpc.client.resets");
    corrupt_ = options_.metrics->GetCounter("rpc.client.corrupt_responses");
    exhausted_ = options_.metrics->GetCounter("rpc.client.exhausted");
  }
}

template <typename Reply, typename... Args>
Result<Reply> RemoteFileClient::Call(RpcOp op, const Args&... args) {
  const uint64_t seq = ++seq_;
  Count(calls_);
  const RpcRetryPolicy& rp = options_.retry;
  const int attempts = std::max(1, rp.max_attempts);
  Status last = Status::Ok();
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      // Capped exponential backoff, charged to the sim clock so lost
      // exchanges cost visible time. The rpc.retry span makes each one
      // attributable: a = op, b = attempt number.
      ++retries_;
      Count(retries_counter_);
      const int shift = std::min(attempt - 2, 30);
      const SimMicros delay =
          std::min(rp.backoff_cap_us, rp.backoff_base_us << shift);
      ScopedSpan span(
          options_.metrics != nullptr ? &options_.metrics->spans() : nullptr,
          "rpc.retry", static_cast<uint64_t>(op),
          static_cast<uint64_t>(attempt));
      if (options_.clock != nullptr && delay > 0) {
        options_.clock->Advance(delay);
      }
    }
    // The header is rebuilt per attempt: the seq is sticky across retries
    // (that is what lets the server deduplicate), but a reset bumps epoch_
    // between attempts and the re-send must announce the new generation.
    ByteWriter frame;
    frame.Str(tenant_);
    frame.U64(client_id_);
    frame.U64(seq);
    frame.U32(epoch_);
    frame.U8(static_cast<uint8_t>(op));
    (Put(frame, args), ...);
    auto response = transport_->RoundTrip(frame.data(), rp.timeout_us);
    if (!response.ok()) {
      last = response.status();
      if (last.code() == ErrorCode::kTransientIo) {
        Count(timeouts_);
        continue;
      }
      if (last.code() == ErrorCode::kIoError) {
        // Connection reset: the server-side session (fds, any open
        // transaction) is orphaned. Announce a new epoch on the retry so the
        // server aborts it instead of leaking locks.
        Count(resets_);
        ++epoch_;
        continue;
      }
      return last;  // not a wire failure; surface as-is
    }
    // Client trust boundary: the reply is wire data. A reply cut short
    // anywhere (status byte, error message or ok-payload) is handled like a
    // lost reply: retried under the same seq, so the DRC replays an op the
    // server already applied instead of the client reporting a decode error
    // for it.
    ByteReader r(*response);
    if (r.U8() == 0) {
      const auto code = static_cast<ErrorCode>(r.U8());
      std::string message = r.Str();
      if (r.ok()) {
        return Status(code, std::move(message));
      }
    } else {
      Reply reply = Get<Reply>(r);
      if (r.ok()) {
        return reply;
      }
    }
    Count(corrupt_);
    last = Status::TransientIo("truncated rpc response");
  }
  Count(exhausted_);
  if (last.ok()) {
    return Status::IoError("rpc retries exhausted");
  }
  return Status(last.code(), "rpc retries exhausted after " +
                                 std::to_string(attempts) +
                                 " attempts: " + last.message());
}

Status RemoteFileClient::p_begin() {
  return Call<NoReply>(RpcOp::kBegin).status();
}

Status RemoteFileClient::p_commit() {
  return Call<NoReply>(RpcOp::kCommit).status();
}

Status RemoteFileClient::p_abort() {
  return Call<NoReply>(RpcOp::kAbort).status();
}

Result<int> RemoteFileClient::p_creat(const std::string& path,
                                      const CreatOptions& options) {
  return Call<int>(RpcOp::kCreat, path, options);
}

Result<int> RemoteFileClient::p_open(const std::string& path, OpenMode mode,
                                     Timestamp as_of) {
  return Call<int>(RpcOp::kOpen, path, mode, as_of);
}

Status RemoteFileClient::p_close(int fd) {
  return Call<NoReply>(RpcOp::kClose, fd).status();
}

Result<int64_t> RemoteFileClient::p_read(int fd, std::span<std::byte> buf) {
  INV_ASSIGN_OR_RETURN(
      const auto data,
      Call<std::vector<std::byte>>(RpcOp::kRead, fd,
                                   static_cast<uint32_t>(buf.size())));
  if (data.size() > buf.size()) {
    return Status::Internal("server returned more data than requested");
  }
  std::copy(data.begin(), data.end(), buf.begin());
  return static_cast<int64_t>(data.size());
}

Result<int64_t> RemoteFileClient::p_write(int fd,
                                          std::span<const std::byte> buf) {
  return Call<int64_t>(RpcOp::kWrite, fd, buf);
}

Result<int64_t> RemoteFileClient::p_lseek(int fd, int64_t offset,
                                          Whence whence) {
  return Call<int64_t>(RpcOp::kLseek, fd, offset, whence);
}

Result<FileStat> RemoteFileClient::p_fstat(int fd) {
  return Call<FileStat>(RpcOp::kFstat, fd);
}

Status RemoteFileClient::mkdir(const std::string& path) {
  return Call<NoReply>(RpcOp::kMkdir, path).status();
}

Status RemoteFileClient::unlink(const std::string& path) {
  return Call<NoReply>(RpcOp::kUnlink, path).status();
}

Status RemoteFileClient::rename(const std::string& from,
                                const std::string& to) {
  return Call<NoReply>(RpcOp::kRename, from, to).status();
}

Result<FileStat> RemoteFileClient::stat(const std::string& path,
                                        Timestamp as_of) {
  return Call<FileStat>(RpcOp::kStat, path, as_of);
}

Result<std::vector<DirEntry>> RemoteFileClient::readdir(
    const std::string& path, Timestamp as_of) {
  return Call<std::vector<DirEntry>>(RpcOp::kReaddir, path, as_of);
}

Result<ResultSet> RemoteFileClient::Query(const std::string& text) {
  return Call<ResultSet>(RpcOp::kQuery, text);
}

}  // namespace invfs

// RPC layer for remote access to Inversion.
//
// The paper's Sequoia scientists used Inversion as a network file server: a
// client library marshals p_* calls to the POSTGRES server over TCP/IP on a
// 10 Mbit Ethernet, and the measurements show that protocol is heavy — remote
// access adds 3-5 seconds per 1 MB operation versus single-process.
//
// We reproduce the code path faithfully: every call is serialized into a
// request frame, dispatched through a Transport, deserialized by the server,
// executed on a per-client InvSession, and the response marshalled back. The
// wire itself is simulated: LoopbackTransport charges the calibrated TCP cost
// per message and per byte to the shared SimClock; FaultyTransport
// (src/fault/faulty_transport.h) stacks drops, duplicates, truncation, and
// resets on top of any inner transport.
//
// Request framing: every frame is
//
//   Str tenant; u64 client_id; u64 seq; u32 epoch; u8 op; <op args>
//
// The tenant prefix carries the client's tenant tag (src/obs/tenant.h) across
// the wire — attribution must not stop at the transport, or a server running
// four tenants' RPC mixes would report one blended latency histogram. The
// server re-establishes the tag (server-side TenantBinding per distinct name)
// around dispatch, so spans and op.latency_us rows attribute to the remote
// tenant rather than the server thread.
//
// (client_id, seq, epoch) is the at-most-once substrate: the duplicate-request
// cache of C. Juszczak, "Improving the Performance and Correctness of an NFS
// Server", USENIX Winter 1989. client_id names one stub; seq is a
// per-stub monotone call number, *reused* by every retry of the same call;
// epoch is the stub's session generation, bumped when the client observes a
// connection reset. The server keeps one InvSession + one bounded DRC slice
// per client id: a retried non-idempotent op replays its cached reply instead
// of re-executing, a frame from a newer epoch tears the old session down
// (aborting any orphaned transaction rather than leaking its locks), and a
// frame from an older epoch is rejected as stale.
//
// Each op is described once: its metric label, span name, lock and retry
// classes and server handler are one row of rpc.cc's op table (kRpcOps), and
// its argument and reply layouts follow from rpc.cc's one Put/Get pair per
// wire type, picked by the C++ types of the stub's parameters and of the
// InvSession method it mirrors. The stub decodes the reply inside its retry
// loop: a reply cut short anywhere is treated like a lost one and retried
// under the same seq, so the DRC replays an op the server already applied
// instead of the client reporting a decode error for it.

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/inversion/inv_fs.h"
#include "src/obs/metrics.h"
#include "src/obs/tenant.h"
#include "src/sim/net_model.h"
#include "src/util/bytes.h"

namespace invfs {

enum class RpcOp : uint8_t {
  kBegin = 1,
  kCommit,
  kAbort,
  kCreat,
  kOpen,
  kClose,
  kRead,
  kWrite,
  kLseek,
  kFstat,
  kMkdir,
  kUnlink,
  kRename,
  kStat,
  kReaddir,
  kQuery,
};

// Bidirectional message channel with a cost model. RoundTrip sends a request
// and returns the response.
//
// Status contract (what RemoteFileClient's retry loop dispatches on):
//   * kTransientIo — the exchange timed out (a frame was lost in either
//     direction within `timeout_us` sim micros). Retrying the identical
//     frame (same seq, same epoch) is safe: the server's DRC absorbs the
//     executed-but-unacked case.
//   * kIoError with a "connection reset" flavor — the connection died. The
//     client must bump its session epoch before retrying so the server
//     aborts the orphaned session state.
//   * anything else — a fatal transport error, surfaced to the caller as-is.
// `timeout_us` is the caller's per-attempt deadline on the sim clock; cost
// models use it to charge the time a lost exchange wastes. Transports without
// a failure model (LoopbackTransport) ignore it.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual Result<std::vector<std::byte>> RoundTrip(
      std::span<const std::byte> request, SimMicros timeout_us) = 0;
};

struct RpcServerOptions {
  // Total replies cached across all clients (FIFO eviction). A retried
  // non-idempotent op whose entry was evicted fails crisply — the server
  // can no longer prove at-most-once for it, and silent re-execution is the
  // one forbidden outcome.
  size_t drc_capacity = 256;
  // Distinct client ids served before new ones are refused: the per-client
  // state (an InvSession and a DRC slice) must not be wire-allocatable
  // without bound.
  size_t max_clients = 1024;
};

// Serves the marshalled protocol: one InvSession and one duplicate-request
// cache slice per client id. Single-threaded like the rest of the simulated
// server: callers serialize Handle.
class InversionServer {
 public:
  explicit InversionServer(InversionFs* fs, RpcServerOptions options = {});

  // Decode, execute, encode. Malformed requests produce error responses, not
  // crashes — this is the server's trust boundary.
  std::vector<std::byte> Handle(std::span<const std::byte> request);

  // Introspection for tests and reports.
  size_t num_clients() const { return clients_.size(); }
  size_t drc_entries() const { return drc_fifo_.size(); }

 private:
  struct ClientState {
    uint32_t epoch = 0;
    std::unique_ptr<InvSession> session;
    // Highest seq of any non-idempotent op this client has executed (or had
    // answered, e.g. the session-reset abort notice). A non-idempotent seq at
    // or below this mark with no cached reply is a retry whose entry was
    // evicted: refuse, never re-execute.
    uint64_t max_seq = 0;
    std::map<uint64_t, std::vector<std::byte>> replies;  // seq -> reply
  };

  // Server-side binding for the frame's tenant prefix (nullptr for "").
  // Bindings are cached per distinct name: tenant cardinality is bounded by
  // the deployment's client population, and the instruments must be the
  // same objects across that tenant's requests anyway.
  TenantBinding* BindTenant(const std::string& tenant);

  // Cache `reply` under (client, seq) and evict the FIFO down to capacity.
  void CacheReply(uint64_t client_id, ClientState& cs, uint64_t seq,
                  const std::vector<std::byte>& reply);

  // Execute `op` (args in `r`, already positioned past the header) on `cs`'s
  // session; returns the encoded response.
  std::vector<std::byte> Execute(RpcOp op, ByteReader& r, ClientState& cs);

  // rpc.requests{<op>}, rpc.latency_us{<op>} and, for read-only ops,
  // rpc.read_only_requests: resolved per op-table row on its first use, so
  // a request costs no registry lookup and the registry lists only
  // instruments that have seen one.
  struct OpInstruments {
    Counter* requests = nullptr;
    Counter* read_only_requests = nullptr;
    Histogram* latency = nullptr;
  };
  // The row serving `op` (row 0 for bytes outside the enum), its counters
  // resolved.
  OpInstruments& InstrumentsFor(RpcOp op);

  InversionFs* fs_;
  RpcServerOptions options_;
  // rpc.* metrics (in the served database's registry).
  MetricsRegistry* metrics_;
  Counter* bytes_in_;
  Counter* bytes_out_;
  Counter* drc_hits_;
  Counter* drc_evictions_;
  Counter* drc_lost_;
  Counter* epoch_bumps_;
  Counter* stale_epochs_;
  std::array<OpInstruments, static_cast<size_t>(RpcOp::kQuery) + 1> ops_{};
  std::map<std::string, std::unique_ptr<TenantBinding>> tenants_;
  std::map<uint64_t, ClientState> clients_;
  std::deque<std::pair<uint64_t, uint64_t>> drc_fifo_;  // (client, seq)
};

// In-process transport: full marshalling through the server with simulated
// TCP cost in both directions. Never fails, so the timeout is unused.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(InversionServer* server, NetModel* net)
      : server_(server), net_(net) {}

  Result<std::vector<std::byte>> RoundTrip(std::span<const std::byte> request,
                                           SimMicros /*timeout_us*/) override {
    net_->ChargeMessage(request.size());
    std::vector<std::byte> response = server_->Handle(request);
    net_->ChargeMessage(response.size());
    return response;
  }

 private:
  InversionServer* server_;
  NetModel* net_;
};

// Client-side resilience policy. Timeout and backoff are sim micros; backoff
// doubles per retry from `backoff_base_us`, capped at `backoff_cap_us`, and
// is charged to the sim clock so lost exchanges cost visible time.
struct RpcRetryPolicy {
  int max_attempts = 6;
  SimMicros timeout_us = 200'000;
  SimMicros backoff_base_us = 10'000;
  SimMicros backoff_cap_us = 160'000;
};

struct RpcClientOptions {
  // Stable per-stub identity stamped into every frame. 0 auto-assigns from a
  // process-wide counter (deterministic per construction order).
  uint64_t client_id = 0;
  // Charged for backoff waits; nullptr backs off in zero sim time.
  SimClock* clock = nullptr;
  // rpc.client.* counters and rpc.retry spans; nullptr disables them.
  MetricsRegistry* metrics = nullptr;
  RpcRetryPolicy retry;
};

// Client stub: the "special library" the paper's clients link against. One
// stub models one client of one tenant; per-stub state (tenant tag, seq,
// epoch) is single-threaded like the sessions it mirrors.
class RemoteFileClient {
 public:
  explicit RemoteFileClient(Transport* transport, RpcClientOptions options = {});

  // Tenant tag stamped into every subsequent request frame ("" = untagged).
  // Per-stub state, not per-call: a stub models one client of one tenant.
  void set_tenant(std::string_view tenant) { tenant_ = tenant; }
  const std::string& tenant() const { return tenant_; }

  uint64_t client_id() const { return client_id_; }
  uint32_t epoch() const { return epoch_; }
  uint64_t retries() const { return retries_; }

  Status p_begin();
  Status p_commit();
  Status p_abort();
  Result<int> p_creat(const std::string& path, const CreatOptions& options = {});
  Result<int> p_open(const std::string& path, OpenMode mode,
                     Timestamp as_of = kTimestampNow);
  Status p_close(int fd);
  Result<int64_t> p_read(int fd, std::span<std::byte> buf);
  Result<int64_t> p_write(int fd, std::span<const std::byte> buf);
  Result<int64_t> p_lseek(int fd, int64_t offset, Whence whence);
  Result<FileStat> p_fstat(int fd);
  Status mkdir(const std::string& path);
  Status unlink(const std::string& path);
  Status rename(const std::string& from, const std::string& to);
  Result<FileStat> stat(const std::string& path, Timestamp as_of = kTimestampNow);
  Result<std::vector<DirEntry>> readdir(const std::string& path,
                                        Timestamp as_of = kTimestampNow);
  Result<ResultSet> Query(const std::string& text);

 private:
  // One call: stamps the header (tenant, client id, a fresh seq, the
  // current epoch), Puts `args`, round-trips with the retry policy, and
  // decodes the ok-reply with Get<Reply> inside the retry loop (rpc.cc's
  // Put/Get pairs). Retries reuse the seq; a reset bumps epoch_ before the
  // re-send.
  template <typename Reply, typename... Args>
  Result<Reply> Call(RpcOp op, const Args&... args);

  Transport* transport_;
  RpcClientOptions options_;
  std::string tenant_;
  uint64_t client_id_;
  uint64_t seq_ = 0;
  uint32_t epoch_ = 1;
  uint64_t retries_ = 0;
  // Cached instruments (cold-path registration at construction).
  Counter* calls_ = nullptr;
  Counter* retries_counter_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* resets_ = nullptr;
  Counter* corrupt_ = nullptr;
  Counter* exhausted_ = nullptr;
};

}  // namespace invfs

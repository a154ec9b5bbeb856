// Self-contained benchmark "worlds": each bundles the storage, simulation
// clock, and client stack for one configuration of the paper's evaluation.

#pragma once

#include <memory>

#include "src/check/checker.h"
#include "src/harness/file_api.h"
#include "src/inversion/inv_fs.h"
#include "src/net/rpc.h"
#include "src/nfs/nfs.h"

namespace invfs {

struct WorldOptions {
  WorldOptions() {
    // The systems the paper measured ran Berkeley's local configuration of
    // 300 buffers, not the as-shipped 64. This is load-bearing for the
    // benchmark shape: the 1 MB transfer tests fit entirely in a 300-page
    // pool (one sorted flush at commit), while the 25 MB create thrashes it
    // (interleaved evictions, Figure 3's seek penalty).
    db.buffers = kBerkeleyBuffers;
  }

  DatabaseOptions db{};            // buffer pool size, disk params, CPU costs
  InvOptions inv{};                // coalescing, chunk index, atime
  NetParams inversion_net{};       // the heavyweight TCP protocol
  NfsServerOptions nfs{};          // PRESTOserve configuration
  NetParams nfs_net = NfsNetParams();
  size_t ffs_cache_pages = 300;    // ULTRIX server buffer cache
};

// Inversion configuration: one database, with both the in-process ("single
// process") and marshalled-RPC ("client/server") access paths.
class InversionWorld {
 public:
  static Result<std::unique_ptr<InversionWorld>> Create(WorldOptions options = {});

  FileApi& local_api() { return *local_api_; }
  FileApi& remote_api() { return *remote_api_; }
  SimClock& clock() { return env_.clock; }
  InversionFs& fs() { return *fs_; }
  Database& db() { return *db_; }
  InvSession& session() { return *session_; }
  StorageEnv& env() { return env_; }
  // The priced wire to this world's RPC server, for callers' own clients.
  Transport& transport() { return *transport_; }

  // Flush every dirty page, then run the offline structural verifier over the
  // stable image. Benchmarks and tests use this as a post-condition: the
  // workload may do anything, but the image it leaves must be sound.
  Result<CheckReport> VerifyImage();

 private:
  InversionWorld() = default;

  StorageEnv env_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> session_;
  std::unique_ptr<InversionServer> server_;
  std::unique_ptr<NetModel> net_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<RemoteFileClient> client_;
  std::unique_ptr<FileApi> local_api_;
  std::unique_ptr<FileApi> remote_api_;
};

// ULTRIX NFS configuration.
class NfsWorld {
 public:
  static Result<std::unique_ptr<NfsWorld>> Create(WorldOptions options = {});

  FileApi& api() { return *api_; }
  SimClock& clock() { return clock_; }
  NfsServer& server() { return *server_; }
  FfsSim& ffs() { return *ffs_; }

 private:
  NfsWorld() = default;

  SimClock clock_;
  std::unique_ptr<FfsSim> ffs_;
  std::unique_ptr<NfsServer> server_;
  std::unique_ptr<NetModel> net_;
  std::unique_ptr<NfsClient> client_;
  std::unique_ptr<FileApi> api_;
};

}  // namespace invfs

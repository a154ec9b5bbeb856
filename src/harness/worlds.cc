#include "src/harness/worlds.h"

namespace invfs {
namespace {

// ------------------------------ Inversion, single process and client/server

// InvSession (single process) and RemoteFileClient (client/server) share the
// p_* signatures, so one adapter serves both paths.
template <typename Client>
class InversionApi final : public FileApi {
 public:
  InversionApi(std::string_view name, Client* client, Database* db)
      : name_(name), client_(client), db_(db) {}

  std::string_view name() const override { return name_; }
  Status Begin() override { return client_->p_begin(); }
  Status Commit() override { return client_->p_commit(); }
  Result<int> Creat(const std::string& path) override {
    return client_->p_creat(path);
  }
  Result<int> Open(const std::string& path, bool writable) override {
    return client_->p_open(path, writable ? OpenMode::kWrite : OpenMode::kRead);
  }
  Status Close(int fd) override { return client_->p_close(fd); }
  Result<int64_t> Read(int fd, std::span<std::byte> buf) override {
    return client_->p_read(fd, buf);
  }
  Result<int64_t> Write(int fd, std::span<const std::byte> buf) override {
    return client_->p_write(fd, buf);
  }
  Result<int64_t> Seek(int fd, int64_t offset, Whence whence) override {
    return client_->p_lseek(fd, offset, whence);
  }
  int64_t PreferredPageSize() const override { return kInvChunkSize; }
  Status FlushCaches() override { return db_->FlushCaches(); }

 private:
  std::string_view name_;
  Client* client_;
  Database* db_;
};

// ------------------------------------------------------------------ NFS

class NfsFileApi final : public FileApi {
 public:
  NfsFileApi(NfsClient* client, NfsServer* server)
      : client_(client), server_(server) {}

  std::string_view name() const override { return "ultrix-nfs"; }
  Status Begin() override { return Status::Ok(); }   // every NFS op is atomic
  Status Commit() override { return Status::Ok(); }
  Result<int> Creat(const std::string& path) override { return client_->Creat(path); }
  Result<int> Open(const std::string& path, bool writable) override {
    return client_->Open(path, writable);
  }
  Status Close(int fd) override { return client_->Close(fd); }
  Result<int64_t> Read(int fd, std::span<std::byte> buf) override {
    return client_->Read(fd, buf);
  }
  Result<int64_t> Write(int fd, std::span<const std::byte> buf) override {
    return client_->Write(fd, buf);
  }
  Result<int64_t> Seek(int fd, int64_t offset, Whence whence) override {
    return client_->Seek(fd, offset, whence);
  }
  int64_t PreferredPageSize() const override { return kPageSize; }
  Status FlushCaches() override { return server_->FlushCaches(); }

 private:
  NfsClient* client_;
  NfsServer* server_;
};

}  // namespace

Result<std::unique_ptr<InversionWorld>> InversionWorld::Create(WorldOptions options) {
  auto world = std::unique_ptr<InversionWorld>(new InversionWorld());
  INV_ASSIGN_OR_RETURN(world->db_, Database::Open(&world->env_, options.db));
  world->fs_ = std::make_unique<InversionFs>(world->db_.get(), options.inv);
  INV_RETURN_IF_ERROR(world->fs_->Mount());
  INV_ASSIGN_OR_RETURN(world->session_, world->fs_->NewSession());
  world->server_ = std::make_unique<InversionServer>(world->fs_.get());
  world->net_ =
      std::make_unique<NetModel>(&world->env_.clock, options.inversion_net);
  world->transport_ = std::make_unique<LoopbackTransport>(world->server_.get(),
                                                          world->net_.get());
  RpcClientOptions client_options;
  client_options.clock = &world->env_.clock;
  client_options.metrics = &world->db_->metrics();
  world->client_ =
      std::make_unique<RemoteFileClient>(world->transport_.get(), client_options);
  world->local_api_ = std::make_unique<InversionApi<InvSession>>(
      "inversion-single-process", world->session_.get(), world->db_.get());
  world->remote_api_ = std::make_unique<InversionApi<RemoteFileClient>>(
      "inversion-client-server", world->client_.get(), world->db_.get());
  return world;
}

Result<CheckReport> InversionWorld::VerifyImage() {
  INV_RETURN_IF_ERROR(db_->FlushCaches());
  return CheckImage(env_);
}

Result<std::unique_ptr<NfsWorld>> NfsWorld::Create(WorldOptions options) {
  auto world = std::unique_ptr<NfsWorld>(new NfsWorld());
  world->ffs_ = std::make_unique<FfsSim>(&world->clock_, options.db.disk,
                                         options.ffs_cache_pages);
  world->server_ = std::make_unique<NfsServer>(&world->clock_, world->ffs_.get(),
                                               options.nfs);
  world->net_ = std::make_unique<NetModel>(&world->clock_, options.nfs_net);
  world->client_ =
      std::make_unique<NfsClient>(world->server_.get(), world->net_.get());
  world->api_ =
      std::make_unique<NfsFileApi>(world->client_.get(), world->server_.get());
  return world;
}

}  // namespace invfs

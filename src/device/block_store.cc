#include "src/device/block_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace invfs {

namespace {
// strerror(3) formats into a static buffer shared by all threads; these
// helpers adapt whichever thread-safe strerror_r the platform provides (the
// GNU variant returns char*, the XSI variant returns int) via overload
// selection on the call's result type. Only one overload is used on any given
// platform, hence [[maybe_unused]].
[[maybe_unused]] std::string ErrnoMessage(char* gnu_result, const char* /*buf*/) {
  return gnu_result;
}
[[maybe_unused]] std::string ErrnoMessage(int xsi_result, const char* buf) {
  return xsi_result == 0 ? std::string(buf) : std::string("unknown error");
}
std::string ErrnoString(int err) {
  char buf[128] = {};
  return ErrnoMessage(::strerror_r(err, buf, sizeof(buf)), buf);
}
}  // namespace

// ---------------------------------------------------------------- MemBlockStore

Status MemBlockStore::Create(Oid rel) {
  MutexLock lock(mu_);
  auto [it, inserted] = rels_.try_emplace(rel);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("relation " + std::to_string(rel));
  }
  return Status::Ok();
}

Status MemBlockStore::Drop(Oid rel) {
  MutexLock lock(mu_);
  if (rels_.erase(rel) == 0) {
    return Status::NotFound("relation " + std::to_string(rel));
  }
  return Status::Ok();
}

bool MemBlockStore::Exists(Oid rel) const {
  MutexLock lock(mu_);
  return rels_.contains(rel);
}

Result<uint32_t> MemBlockStore::NumBlocks(Oid rel) const {
  MutexLock lock(mu_);
  auto it = rels_.find(rel);
  if (it == rels_.end()) {
    return Status::NotFound("relation " + std::to_string(rel));
  }
  return static_cast<uint32_t>(it->second.size());
}

Status MemBlockStore::Read(Oid rel, uint32_t block, std::span<std::byte> out) {
  MutexLock lock(mu_);
  auto it = rels_.find(rel);
  if (it == rels_.end()) {
    return Status::NotFound("relation " + std::to_string(rel));
  }
  if (block >= it->second.size()) {
    return Status::InvalidArgument("block " + std::to_string(block) +
                                   " past end of relation " +
                                   std::to_string(rel) + " (" +
                                   std::to_string(it->second.size()) +
                                   " blocks)");
  }
  if (out.size() < kPageSize) {
    return Status::InvalidArgument("read buffer too small");
  }
  std::memcpy(out.data(), it->second[block].data(), kPageSize);
  return Status::Ok();
}

Status MemBlockStore::Write(Oid rel, uint32_t block, std::span<const std::byte> data) {
  MutexLock lock(mu_);
  auto it = rels_.find(rel);
  if (it == rels_.end()) {
    return Status::NotFound("relation " + std::to_string(rel));
  }
  if (data.size() != kPageSize) {
    return Status::InvalidArgument("write must be exactly one page");
  }
  auto& blocks = it->second;
  if (block > blocks.size()) {
    return Status::InvalidArgument("write would leave a hole at block " +
                                   std::to_string(block));
  }
  if (block == blocks.size()) {
    blocks.emplace_back(data.begin(), data.end());
  } else {
    blocks[block].assign(data.begin(), data.end());
  }
  return Status::Ok();
}

std::vector<Oid> MemBlockStore::ListRelations() const {
  MutexLock lock(mu_);
  std::vector<Oid> out;
  out.reserve(rels_.size());
  for (const auto& [oid, blocks] : rels_) {
    out.push_back(oid);
  }
  return out;
}

Status MemBlockStore::CorruptByte(Oid rel, uint32_t block, uint32_t offset) {
  MutexLock lock(mu_);
  auto it = rels_.find(rel);
  if (it == rels_.end() || block >= it->second.size() || offset >= kPageSize) {
    return Status::InvalidArgument("no such byte to corrupt");
  }
  it->second[block][offset] ^= std::byte{0xFF};
  return Status::Ok();
}

std::unique_ptr<MemBlockStore> MemBlockStore::Clone() const {
  MutexLock lock(mu_);
  auto copy = std::make_unique<MemBlockStore>();
  // The copy is private to this thread, but its rels_ is guarded by *its*
  // mutex as far as the analysis is concerned; taking it is free of both
  // contention and ordering concerns (nobody else can reach the object).
  MutexLock copy_lock(copy->mu_);
  copy->rels_ = rels_;
  return copy;
}

// --------------------------------------------------------------- FileBlockStore

Result<std::unique_ptr<FileBlockStore>> FileBlockStore::Open(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir " + dir + ": " + ErrnoString(errno));
  }
  return std::unique_ptr<FileBlockStore>(new FileBlockStore(dir));
}

FileBlockStore::~FileBlockStore() {
  for (auto& [rel, fd] : fds_) {
    ::close(fd);
  }
}

std::string FileBlockStore::PathFor(Oid rel) const {
  return dir_ + "/rel" + std::to_string(rel) + ".blk";
}

Result<int> FileBlockStore::FdFor(Oid rel, bool create) {
  auto it = fds_.find(rel);
  if (it != fds_.end()) {
    return it->second;
  }
  int flags = O_RDWR | (create ? O_CREAT : 0);
  int fd = ::open(PathFor(rel).c_str(), flags, 0644);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("relation " + std::to_string(rel));
    }
    return Status::IoError("open " + PathFor(rel) + ": " + ErrnoString(errno));
  }
  fds_[rel] = fd;
  return fd;
}

Status FileBlockStore::Create(Oid rel) {
  MutexLock lock(mu_);
  struct stat st;
  if (::stat(PathFor(rel).c_str(), &st) == 0) {
    return Status::AlreadyExists("relation " + std::to_string(rel));
  }
  INV_ASSIGN_OR_RETURN(int fd, FdFor(rel, /*create=*/true));
  (void)fd;
  return Status::Ok();
}

Status FileBlockStore::Drop(Oid rel) {
  MutexLock lock(mu_);
  auto it = fds_.find(rel);
  if (it != fds_.end()) {
    ::close(it->second);
    fds_.erase(it);
  }
  if (::unlink(PathFor(rel).c_str()) != 0) {
    return Status::NotFound("relation " + std::to_string(rel));
  }
  return Status::Ok();
}

bool FileBlockStore::Exists(Oid rel) const {
  struct stat st;
  return ::stat(PathFor(rel).c_str(), &st) == 0;
}

Result<uint32_t> FileBlockStore::NumBlocks(Oid rel) const {
  struct stat st;
  if (::stat(PathFor(rel).c_str(), &st) != 0) {
    return Status::NotFound("relation " + std::to_string(rel));
  }
  return static_cast<uint32_t>(st.st_size / kPageSize);
}

Status FileBlockStore::Read(Oid rel, uint32_t block, std::span<std::byte> out) {
  MutexLock lock(mu_);
  INV_ASSIGN_OR_RETURN(int fd, FdFor(rel, /*create=*/false));
  if (out.size() < kPageSize) {
    return Status::InvalidArgument("read buffer too small");
  }
  ssize_t n = ::pread(fd, out.data(), kPageSize,
                      static_cast<off_t>(block) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("short read of rel " + std::to_string(rel) + " block " +
                           std::to_string(block));
  }
  return Status::Ok();
}

Status FileBlockStore::Write(Oid rel, uint32_t block, std::span<const std::byte> data) {
  MutexLock lock(mu_);
  INV_ASSIGN_OR_RETURN(int fd, FdFor(rel, /*create=*/false));
  if (data.size() != kPageSize) {
    return Status::InvalidArgument("write must be exactly one page");
  }
  ssize_t n = ::pwrite(fd, data.data(), kPageSize,
                       static_cast<off_t>(block) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("short write of rel " + std::to_string(rel) + " block " +
                           std::to_string(block));
  }
  return Status::Ok();
}

std::vector<Oid> FileBlockStore::ListRelations() const {
  // Listing is only needed at reopen; parse rel<oid>.blk names.
  std::vector<Oid> out;
  // Avoid <filesystem> dependency: use POSIX dirent.
  // (Declared here to keep the header light.)
  struct Closer {
    void operator()(DIR* d) const { ::closedir(d); }
  };
  std::unique_ptr<DIR, Closer> d(::opendir(dir_.c_str()));
  if (!d) {
    return out;
  }
  while (struct dirent* e = ::readdir(d.get())) {
    std::string name = e->d_name;
    if (name.rfind("rel", 0) == 0 && name.size() > 7 &&
        name.substr(name.size() - 4) == ".blk") {
      out.push_back(static_cast<Oid>(std::stoul(name.substr(3, name.size() - 7))));
    }
  }
  return out;
}

}  // namespace invfs

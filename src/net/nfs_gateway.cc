#include "src/net/nfs_gateway.h"

#include <cerrno>

#include "src/obs/span.h"

namespace invfs {

int NfsErrnoFor(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kOk:
      return 0;
    case ErrorCode::kNotFound:
      return ENOENT;
    case ErrorCode::kAlreadyExists:
      return EEXIST;
    case ErrorCode::kInvalidArgument:
      return EINVAL;
    case ErrorCode::kReadOnly:
    case ErrorCode::kReadOnlyDevice:
      return EROFS;
    case ErrorCode::kDeadlock:
    case ErrorCode::kTxnAborted:
      // NFS has no transactions; a deadlock-victim abort of the implicit
      // single-op transaction looks like a retryable failure to the client.
      return EAGAIN;
    case ErrorCode::kResourceExhausted:
      return ENOSPC;
    case ErrorCode::kPermissionDenied:
      return EACCES;
    case ErrorCode::kUnimplemented:
      return ENOSYS;
    case ErrorCode::kIoError:
    case ErrorCode::kTransientIo:
    case ErrorCode::kCorruption:
    case ErrorCode::kInternal:
      return EIO;
  }
  return EIO;
}

InvNfsGateway::InvNfsGateway(InversionFs* fs) : fs_(fs) {
  auto session = fs_->NewSession();
  INV_CHECK(session.ok());
  session_ = std::move(*session);
  metrics_ = &fs_->db().metrics();
  read_bytes_ = metrics_->GetCounter("nfs.read_bytes");
  write_bytes_ = metrics_->GetCounter("nfs.write_bytes");
}

namespace {

// Each gateway op's nfs.requests label and whether it is read-only, in
// InvNfsGateway::Op order.
struct NfsOpInfo {
  const char* label;
  bool read_only;
};

constexpr NfsOpInfo kNfsOps[] = {
    {"creat", false},  {"open", false},  {"close", false},  {"read", true},
    {"write", false},  {"seek", true},   {"getattr", true}, {"mkdir", false},
    {"remove", false}, {"rename", false}, {"readdir", true},
};

}  // namespace

void InvNfsGateway::CountOp(Op op) {
  static_assert(std::size(kNfsOps) == static_cast<size_t>(Op::kCount));
  const size_t i = static_cast<size_t>(op);
  if (requests_[i] == nullptr) {
    requests_[i] = metrics_->GetCounter("nfs.requests", kNfsOps[i].label);
  }
  requests_[i]->Add();
  if (kNfsOps[i].read_only) {
    if (read_only_requests_ == nullptr) {
      read_only_requests_ = metrics_->GetCounter("nfs.read_only_requests");
    }
    read_only_requests_->Add();
  }
}

Result<std::pair<std::string, Timestamp>> InvNfsGateway::ParseTimePath(
    const std::string& path) {
  const size_t at = path.rfind('@');
  if (at == std::string::npos) {
    return std::make_pair(path, kTimestampNow);
  }
  // The suffix must apply to the final component and be all digits.
  const std::string digits = path.substr(at + 1);
  if (digits.empty() || path.find('/', at) != std::string::npos) {
    return Status::InvalidArgument("malformed @timestamp suffix in " + path);
  }
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("malformed @timestamp suffix in " + path);
    }
  }
  return std::make_pair(path.substr(0, at),
                        static_cast<Timestamp>(std::stoull(digits)));
}

Result<int> InvNfsGateway::Creat(const std::string& path) {
  CountOp(Op::kCreat);
  ScopedSpan span(&metrics_->spans(), "nfs.creat");
  INV_ASSIGN_OR_RETURN(auto parsed, ParseTimePath(path));
  if (parsed.second != kTimestampNow) {
    return Status::ReadOnly("cannot create files in the past");
  }
  return session_->p_creat(parsed.first);
}

Result<int> InvNfsGateway::Open(const std::string& path, bool writable) {
  CountOp(Op::kOpen);
  ScopedSpan span(&metrics_->spans(), "nfs.open");
  INV_ASSIGN_OR_RETURN(auto parsed, ParseTimePath(path));
  if (parsed.second != kTimestampNow && writable) {
    return Status::ReadOnly("historical names are read-only: " + path);
  }
  return session_->p_open(parsed.first,
                          writable ? OpenMode::kWrite : OpenMode::kRead,
                          parsed.second);
}

Status InvNfsGateway::Close(int fd) {
  CountOp(Op::kClose);
  ScopedSpan span(&metrics_->spans(), "nfs.close");
  return session_->p_close(fd);
}

Result<int64_t> InvNfsGateway::Read(int fd, std::span<std::byte> buf) {
  CountOp(Op::kRead);
  ScopedSpan span(&metrics_->spans(), "nfs.read");
  auto n = session_->p_read(fd, buf);
  if (n.ok() && *n > 0) {
    read_bytes_->Add(static_cast<uint64_t>(*n));
  }
  return n;
}

Result<int64_t> InvNfsGateway::Write(int fd, std::span<const std::byte> buf) {
  // Stateless-NFS semantics: the session has no open transaction, so the
  // write commits (and is forced durable) before returning.
  CountOp(Op::kWrite);
  ScopedSpan span(&metrics_->spans(), "nfs.write");
  auto n = session_->p_write(fd, buf);
  if (n.ok() && *n > 0) {
    write_bytes_->Add(static_cast<uint64_t>(*n));
  }
  return n;
}

Result<int64_t> InvNfsGateway::Seek(int fd, int64_t offset, Whence whence) {
  CountOp(Op::kSeek);
  ScopedSpan span(&metrics_->spans(), "nfs.seek");
  return session_->p_lseek(fd, offset, whence);
}

Result<FileStat> InvNfsGateway::GetAttr(const std::string& path) {
  CountOp(Op::kGetAttr);
  ScopedSpan span(&metrics_->spans(), "nfs.getattr");
  INV_ASSIGN_OR_RETURN(auto parsed, ParseTimePath(path));
  return session_->stat(parsed.first, parsed.second);
}

Status InvNfsGateway::Mkdir(const std::string& path) {
  CountOp(Op::kMkdir);
  ScopedSpan span(&metrics_->spans(), "nfs.mkdir");
  INV_ASSIGN_OR_RETURN(auto parsed, ParseTimePath(path));
  if (parsed.second != kTimestampNow) {
    return Status::ReadOnly("cannot mkdir in the past");
  }
  return session_->mkdir(parsed.first);
}

Status InvNfsGateway::Remove(const std::string& path) {
  CountOp(Op::kRemove);
  ScopedSpan span(&metrics_->spans(), "nfs.remove");
  INV_ASSIGN_OR_RETURN(auto parsed, ParseTimePath(path));
  if (parsed.second != kTimestampNow) {
    return Status::ReadOnly("cannot remove files from the past");
  }
  return session_->unlink(parsed.first);
}

Status InvNfsGateway::Rename(const std::string& from, const std::string& to) {
  CountOp(Op::kRename);
  ScopedSpan span(&metrics_->spans(), "nfs.rename");
  INV_ASSIGN_OR_RETURN(auto pf, ParseTimePath(from));
  INV_ASSIGN_OR_RETURN(auto pt, ParseTimePath(to));
  if (pf.second != kTimestampNow || pt.second != kTimestampNow) {
    return Status::ReadOnly("cannot rename across time");
  }
  return session_->rename(pf.first, pt.first);
}

Result<std::vector<DirEntry>> InvNfsGateway::Readdir(const std::string& path) {
  CountOp(Op::kReaddir);
  ScopedSpan span(&metrics_->spans(), "nfs.readdir");
  INV_ASSIGN_OR_RETURN(auto parsed, ParseTimePath(path));
  return session_->readdir(parsed.first, parsed.second);
}

}  // namespace invfs

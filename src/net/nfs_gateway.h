// NFS gateway to Inversion — the paper's stated near-term plan:
//
// "In the near term, we plan to provide NFS access to Inversion. ... However,
// we are unsure how to support transactions via NFS. The NFS protocol makes
// every operation an atomic transaction ... We are most likely to follow the
// protocol specification, and to provide no multi-operation transaction
// protection for Inversion files accessed via NFS."
//
// This gateway implements exactly that position: every operation runs in its
// own single-op transaction (InvSession auto-commit), stateless-NFS style,
// and no p_begin/p_commit is exposed. Clients who want real transactions
// "may still link with the special library" (InvSession / RemoteFileClient).
//
// Time travel is exposed the way the paper sketches for an NFS server —
// "extending the file system namespace and passing dates along to the
// database system" ([ROOM92]'s 3DFS approach): a path component suffix
// `@<timestamp>` names the historical state, e.g.
//     /etc/passwd@123456        read-only contents as of t=123456
//     readdir("/proj@123456")   the directory as it was then
// which is precisely the namespace extension the paper credits to 3DFS
// (including its wart: such names are visible to, e.g., globbing).

#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>

#include "src/inversion/inv_fs.h"
#include "src/obs/metrics.h"

namespace invfs {

// Maps a Status onto the errno an NFS server would put on the wire (the
// NFSERR_* values coincide with the classic errno numbers). Writes rejected
// by a read-only store — a historical open, a device tripped into sticky
// read-only mode, or a fail-stop database — surface as EROFS; device and
// corruption failures as EIO.
int NfsErrnoFor(const Status& status);

class InvNfsGateway {
 public:
  explicit InvNfsGateway(InversionFs* fs);

  // NFS-flavoured operations: no client-visible transactions; every call is
  // individually atomic and durable before it returns.
  Result<int> Creat(const std::string& path);
  Result<int> Open(const std::string& path, bool writable);
  Status Close(int fd);
  Result<int64_t> Read(int fd, std::span<std::byte> buf);
  Result<int64_t> Write(int fd, std::span<const std::byte> buf);
  Result<int64_t> Seek(int fd, int64_t offset, Whence whence);
  Result<FileStat> GetAttr(const std::string& path);
  Status Mkdir(const std::string& path);
  Status Remove(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  Result<std::vector<DirEntry>> Readdir(const std::string& path);

  // Splits a 3DFS-style "path@ts" name. Returns (clean path, timestamp);
  // timestamp is kTimestampNow when no suffix is present.
  static Result<std::pair<std::string, Timestamp>> ParseTimePath(
      const std::string& path);

 private:
  enum class Op : size_t {
    kCreat,
    kOpen,
    kClose,
    kRead,
    kWrite,
    kSeek,
    kGetAttr,
    kMkdir,
    kRemove,
    kRename,
    kReaddir,
    kCount,
  };

  // Count one nfs.requests{<op>}. Read-only ops additionally count
  // nfs.read_only_requests: they run as read-only single-op transactions
  // (pinned snapshot, no data locks) when the gateway session has no
  // transaction open — which, NFS being stateless, is always. Each counter
  // is resolved on its first use, so a request costs no registry lookup.
  void CountOp(Op op);

  InversionFs* fs_;
  std::unique_ptr<InvSession> session_;
  // nfs.* metrics (in the served database's registry).
  MetricsRegistry* metrics_;
  Counter* read_bytes_;
  Counter* write_bytes_;
  std::array<Counter*, static_cast<size_t>(Op::kCount)> requests_{};
  Counter* read_only_requests_ = nullptr;
};

}  // namespace invfs

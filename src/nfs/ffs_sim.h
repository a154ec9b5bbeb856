// FfsSim: an FFS-style local file system simulator — the disk side of the
// paper's ULTRIX NFS baseline.
//
// It models the properties the paper credits for NFS's wins over Inversion:
//  * cylinder-group allocation keeps a file's blocks physically contiguous,
//    so sequential transfers rarely seek ("data for a single file are kept
//    close together", [MCKU84]);
//  * no index structures interleave with data writes — the inode/indirect
//    blocks are amortized, unlike Inversion's per-page B-tree entries;
//  * a UNIX buffer cache with sequential read-ahead.
//
// Data are stored for real (reads return what was written); time is charged
// to the shared SimClock through a DiskModel.

#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/sim/disk_model.h"
#include "src/sim/extent_map.h"
#include "src/util/status.h"

namespace invfs {

class FfsSim {
 public:
  FfsSim(SimClock* clock, DiskParams params, size_t cache_pages = 300,
         uint32_t extent_pages = 256, uint32_t readahead_pages = 8);

  Status Create(const std::string& path);
  Status Remove(const std::string& path);
  bool Exists(const std::string& path) const;
  Result<int64_t> Size(const std::string& path) const;

  // Read up to out.size() bytes at `offset`; returns bytes read (0 at EOF).
  Result<int64_t> ReadAt(const std::string& path, int64_t offset,
                         std::span<std::byte> out);
  // Write at `offset`, extending the file. `stable` forces the touched blocks
  // to disk before returning (the NFS server's synchronous-write duty);
  // otherwise they linger dirty in the buffer cache.
  Result<int64_t> WriteAt(const std::string& path, int64_t offset,
                          std::span<const std::byte> in, bool stable);

  // Force one file's dirty pages out (fsync).
  Status Sync(const std::string& path);
  // Write back everything and empty the cache ("all caches were flushed").
  Status FlushCaches();

  DiskModel& disk() { return *disk_; }

 private:
  struct File {
    std::vector<std::vector<std::byte>> blocks;  // 8 KB each
    int64_t size = 0;
    uint32_t id = 0;                // its blocks' owner in extents_
    int64_t last_read_block = -1;   // read-ahead detector
  };

  struct CacheKey {
    std::string path;
    uint64_t block;
    auto operator<=>(const CacheKey&) const = default;
  };

  // Touch the cache; on miss charge a disk read and run read-ahead.
  void CacheRead(const std::string& path, File& f, uint64_t block);
  void CacheWrite(const std::string& path, File& f, uint64_t block, bool stable);
  void EvictIfNeeded();

  SimClock* clock_;
  std::unique_ptr<DiskModel> disk_;
  size_t cache_pages_;
  uint32_t readahead_pages_;

  std::map<std::string, File> files_;
  uint32_t next_file_id_ = 0;
  ExtentMap extents_;
  // Buffer cache: map key -> dirty flag; LRU order list (front = hottest).
  std::map<CacheKey, bool> cache_;
  std::list<CacheKey> lru_;
};

}  // namespace invfs

#include "src/nfs/ffs_sim.h"

#include <algorithm>
#include <cstring>

namespace invfs {

FfsSim::FfsSim(SimClock* clock, DiskParams params, size_t cache_pages,
               uint32_t extent_pages, uint32_t readahead_pages)
    : clock_(clock),
      disk_(std::make_unique<DiskModel>(clock, params)),
      cache_pages_(cache_pages),
      readahead_pages_(readahead_pages),
      extents_(extent_pages) {}

Status FfsSim::Create(const std::string& path) {
  auto [it, inserted] = files_.try_emplace(path);
  if (!inserted) {
    return Status::AlreadyExists(path);
  }
  it->second.id = next_file_id_++;
  return Status::Ok();
}

Status FfsSim::Remove(const std::string& path) {
  auto fit = files_.find(path);
  if (fit == files_.end()) {
    return Status::NotFound(path);
  }
  extents_.Remove(fit->second.id);
  files_.erase(fit);
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first.path == path) {
      lru_.remove(it->first);
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::Ok();
}

bool FfsSim::Exists(const std::string& path) const { return files_.contains(path); }

Result<int64_t> FfsSim::Size(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(path);
  }
  return it->second.size;
}

void FfsSim::EvictIfNeeded() {
  while (cache_.size() > cache_pages_ && !lru_.empty()) {
    CacheKey victim = lru_.back();
    lru_.pop_back();
    auto it = cache_.find(victim);
    if (it != cache_.end()) {
      if (it->second) {
        auto fit = files_.find(victim.path);
        if (fit != files_.end()) {
          disk_->ChargePageIo(extents_.PhysicalAddress(fit->second.id, victim.block));
        }
      }
      cache_.erase(it);
    }
  }
}

void FfsSim::CacheRead(const std::string& path, File& f, uint64_t block) {
  const CacheKey key{path, block};
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.remove(key);
    lru_.push_front(key);
    return;
  }
  disk_->ChargePageIo(extents_.PhysicalAddress(f.id, block));
  cache_[key] = false;
  lru_.push_front(key);
  // Sequential read-ahead: prefetch the following blocks while the head is
  // here. Each costs only a transfer (contiguous within the extent).
  if (f.last_read_block + 1 == static_cast<int64_t>(block)) {
    const uint64_t file_blocks =
        static_cast<uint64_t>((f.size + kPageSize - 1) / kPageSize);
    for (uint32_t i = 1; i <= readahead_pages_; ++i) {
      const uint64_t next = block + i;
      if (next >= file_blocks) {
        break;
      }
      const CacheKey next_key{path, next};
      if (!cache_.contains(next_key)) {
        disk_->ChargePageIo(extents_.PhysicalAddress(f.id, next));
        cache_[next_key] = false;
        lru_.push_front(next_key);
      }
    }
  }
  f.last_read_block = static_cast<int64_t>(block);
  EvictIfNeeded();
}

void FfsSim::CacheWrite(const std::string& path, File& f, uint64_t block,
                        bool stable) {
  const CacheKey key{path, block};
  if (stable) {
    disk_->ChargeSyncPageIo(extents_.PhysicalAddress(f.id, block));
    lru_.remove(key);
    cache_[key] = false;  // now clean on disk, still cached
    lru_.push_front(key);
  } else {
    lru_.remove(key);
    cache_[key] = true;
    lru_.push_front(key);
  }
  EvictIfNeeded();
}

Result<int64_t> FfsSim::ReadAt(const std::string& path, int64_t offset,
                               std::span<std::byte> out) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(path);
  }
  File& f = it->second;
  if (offset >= f.size) {
    return 0;
  }
  const int64_t want =
      std::min<int64_t>(static_cast<int64_t>(out.size()), f.size - offset);
  int64_t done = 0;
  while (done < want) {
    const int64_t pos = offset + done;
    const uint64_t block = static_cast<uint64_t>(pos) / kPageSize;
    const int64_t within = pos % kPageSize;
    const int64_t n = std::min<int64_t>(kPageSize - within, want - done);
    CacheRead(path, f, block);
    if (block < f.blocks.size() && !f.blocks[block].empty()) {
      std::memcpy(out.data() + done, f.blocks[block].data() + within, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
    done += n;
  }
  return done;
}

Result<int64_t> FfsSim::WriteAt(const std::string& path, int64_t offset,
                                std::span<const std::byte> in, bool stable) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(path);
  }
  File& f = it->second;
  const int64_t total = static_cast<int64_t>(in.size());
  int64_t done = 0;
  while (done < total) {
    const int64_t pos = offset + done;
    const uint64_t block = static_cast<uint64_t>(pos) / kPageSize;
    const int64_t within = pos % kPageSize;
    const int64_t n = std::min<int64_t>(kPageSize - within, total - done);
    if (f.blocks.size() <= block) {
      f.blocks.resize(block + 1);
    }
    if (f.blocks[block].empty()) {
      f.blocks[block].resize(kPageSize);
    }
    std::memcpy(f.blocks[block].data() + within, in.data() + done, n);
    CacheWrite(path, f, block, stable);
    done += n;
  }
  f.size = std::max(f.size, offset + total);
  return total;
}

Status FfsSim::Sync(const std::string& path) {
  auto fit = files_.find(path);
  if (fit == files_.end()) {
    return Status::NotFound(path);
  }
  for (auto& [key, dirty] : cache_) {
    if (dirty && key.path == path) {
      disk_->ChargePageIo(extents_.PhysicalAddress(fit->second.id, key.block));
      dirty = false;
    }
  }
  return Status::Ok();
}

Status FfsSim::FlushCaches() {
  for (auto& [key, dirty] : cache_) {
    if (dirty) {
      auto fit = files_.find(key.path);
      if (fit != files_.end()) {
        disk_->ChargePageIo(extents_.PhysicalAddress(fit->second.id, key.block));
      }
      dirty = false;
    }
  }
  cache_.clear();
  lru_.clear();
  for (auto& [path, f] : files_) {
    f.last_read_block = -1;
  }
  return Status::Ok();
}

}  // namespace invfs

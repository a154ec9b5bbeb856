#include "src/device/device.h"

#include <algorithm>

#include "src/sim/disk_model.h"

namespace invfs {

// --------------------------------------------------------- MagneticDiskDevice

MagneticDiskDevice::MagneticDiskDevice(BlockStore* store, SimClock* clock,
                                       DiskParams params, uint32_t extent_pages)
    : store_(store),
      model_(std::make_unique<DiskModel>(clock, params)),
      extents_(extent_pages) {}

MagneticDiskDevice::~MagneticDiskDevice() = default;

DiskModel& MagneticDiskDevice::disk_model() { return *model_; }

Status MagneticDiskDevice::DropRelation(Oid rel) {
  INV_RETURN_IF_ERROR(store_->Drop(rel));
  MutexLock lock(mu_);
  extents_.Remove(rel);
  return Status::Ok();
}

uint64_t MagneticDiskDevice::PhysicalAddress(Oid rel, uint32_t block) {
  MutexLock lock(mu_);
  return extents_.PhysicalAddress(rel, block);
}

Status MagneticDiskDevice::ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) {
  model_->ChargePageIo(PhysicalAddress(rel, block));
  return store_->Read(rel, block, out);
}

Status MagneticDiskDevice::WriteBlock(Oid rel, uint32_t block,
                                      std::span<const std::byte> data) {
  model_->ChargePageIo(PhysicalAddress(rel, block));
  return store_->Write(rel, block, data);
}

// -------------------------------------------------------------- JukeboxDevice

JukeboxDevice::JukeboxDevice(BlockStore* store, SimClock* clock, JukeboxParams params,
                             DiskParams cache_disk_params)
    : store_(store),
      clock_(clock),
      params_(params),
      cache_disk_(std::make_unique<DiskModel>(clock, cache_disk_params)),
      extents_(params.extent_pages) {}

JukeboxDevice::~JukeboxDevice() = default;

Status JukeboxDevice::DropRelation(Oid rel) {
  INV_RETURN_IF_ERROR(store_->Drop(rel));
  MutexLock lock(mu_);
  extents_.Remove(rel);
  rewrite_counts_.erase(rel);
  return Status::Ok();
}

void JukeboxDevice::ChargeOpticalIo(uint64_t phys) {
  const int64_t platter = static_cast<int64_t>(phys / params_.pages_per_platter);
  if (platter != loaded_platter_) {
    clock_->Advance(params_.platter_load_us);
    loaded_platter_ = platter;
    ++platter_loads_;
  }
  // Contiguous optical access streams at transfer rate; discontiguous access
  // pays the (expensive) optical head seek. Extent size controls how much of
  // a table is contiguous — the tradeoff the paper discusses.
  if (has_optical_position_ && phys == last_optical_phys_ + 1) {
    clock_->Advance(params_.page_transfer_us);
  } else {
    clock_->Advance(params_.seek_us + params_.page_transfer_us);
  }
  last_optical_phys_ = phys;
  has_optical_position_ = true;
}

bool JukeboxDevice::CacheTouch(const CacheKey& key, bool dirty) {
  const size_t capacity = std::max<uint64_t>(1, params_.cache_bytes / kPageSize);
  auto it = cached_.find(key);
  const bool hit = it != cached_.end();
  if (hit) {
    it->second = it->second || dirty;
    auto pos = std::find(lru_.begin(), lru_.end(), key);
    if (pos != lru_.end()) {
      lru_.erase(pos);
    }
  } else {
    cached_[key] = dirty;
    while (lru_.size() >= capacity) {
      CacheKey victim = lru_.back();
      lru_.pop_back();
      auto vit = cached_.find(victim);
      if (vit != cached_.end()) {
        if (vit->second) {
          // Destage dirty block to the platter. A block rewritten after a
          // previous destage gets a fresh WORM location (remap).
          int& count = rewrite_counts_[victim.rel][victim.block];
          if (count > 0) {
            ++worm_remaps_;
          }
          ++count;
          ChargeOpticalIo(extents_.PhysicalAddress(victim.rel, victim.block));
        }
        cached_.erase(vit);
      }
    }
  }
  lru_.insert(lru_.begin(), key);
  return hit;
}

Status JukeboxDevice::ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) {
  {
    MutexLock lock(mu_);
    const CacheKey key{rel, block};
    if (CacheTouch(key, /*dirty=*/false)) {
      ++cache_hits_;
      cache_disk_->ChargePageIo(extents_.PhysicalAddress(rel, block));
    } else {
      ++cache_misses_;
      // Fetch from the platter into the staging cache, then serve.
      ChargeOpticalIo(extents_.PhysicalAddress(rel, block));
      cache_disk_->ChargePageIo(extents_.PhysicalAddress(rel, block));
    }
  }
  return store_->Read(rel, block, out);
}

Status JukeboxDevice::WriteBlock(Oid rel, uint32_t block,
                                 std::span<const std::byte> data) {
  {
    MutexLock lock(mu_);
    const CacheKey key{rel, block};
    if (CacheTouch(key, /*dirty=*/true)) {
      ++cache_hits_;
    } else {
      ++cache_misses_;
    }
    // Writes land in the magnetic staging cache; optical cost is paid at
    // destage time (eviction or Sync).
    cache_disk_->ChargePageIo(extents_.PhysicalAddress(rel, block));
  }
  return store_->Write(rel, block, data);
}

Status JukeboxDevice::Sync() {
  MutexLock lock(mu_);
  for (auto& [key, dirty] : cached_) {
    if (dirty) {
      int& count = rewrite_counts_[key.rel][key.block];
      if (count > 0) {
        ++worm_remaps_;
      }
      ++count;
      ChargeOpticalIo(extents_.PhysicalAddress(key.rel, key.block));
      dirty = false;
    }
  }
  return Status::Ok();
}

Status JukeboxDevice::DropStagingCache() {
  INV_RETURN_IF_ERROR(Sync());
  MutexLock lock(mu_);
  cached_.clear();
  lru_.clear();
  // Fully cold also means no platter in the drive and no head position.
  loaded_platter_ = -1;
  has_optical_position_ = false;
  return Status::Ok();
}

// --------------------------------------------------------------- DeviceSwitch

void DeviceSwitch::Register(DeviceId id, std::unique_ptr<DeviceManager> device) {
  INV_CHECK(id < kMaxDevices);
  MutexLock lock(mu_);
  devices_[id] = std::move(device);
}

DeviceManager* DeviceSwitch::Get(DeviceId id) const {
  MutexLock lock(mu_);
  return id < kMaxDevices ? devices_[id].get() : nullptr;
}

bool DeviceSwitch::Has(DeviceId id) const { return Get(id) != nullptr; }

void DeviceSwitch::BindRelation(Oid rel, DeviceId id) {
  MutexLock lock(mu_);
  bindings_[rel] = id;
}

void DeviceSwitch::UnbindRelation(Oid rel) {
  MutexLock lock(mu_);
  bindings_.erase(rel);
}

Result<DeviceId> DeviceSwitch::DeviceFor(Oid rel) const {
  MutexLock lock(mu_);
  auto it = bindings_.find(rel);
  if (it == bindings_.end()) {
    return Status::NotFound("relation " + std::to_string(rel) +
                            " not bound to any device");
  }
  return it->second;
}

Result<DeviceManager*> DeviceSwitch::ManagerFor(Oid rel) const {
  INV_ASSIGN_OR_RETURN(DeviceId id, DeviceFor(rel));
  DeviceManager* mgr = Get(id);
  if (mgr == nullptr) {
    return Status::Internal("device " + std::to_string(id) + " not registered");
  }
  return mgr;
}

Status DeviceSwitch::SyncAll() {
  for (DeviceId id = 0; id < kMaxDevices; ++id) {
    if (DeviceManager* mgr = Get(id)) {
      INV_RETURN_IF_ERROR(mgr->Sync());
    }
  }
  return Status::Ok();
}

}  // namespace invfs

// The device-manager switch.
//
// POSTGRES 4.0.1 registers storage devices in a switch table modeled on the
// UNIX bdevsw: each device supplies a small set of interface routines, and all
// accesses above the switch are location-transparent. Inversion inherits this,
// which is how one file system spans magnetic disk, non-volatile RAM, and a
// 327 GB Sony WORM jukebox with a uniform namespace.
//
// Our switch registers DeviceManager implementations under small integer
// DeviceIds. A relation is bound to a device at creation (recorded in
// pg_class); the buffer manager resolves (relation -> device) through the
// switch for every I/O.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/device/block_store.h"
#include "src/sim/cost_params.h"
#include "src/sim/extent_map.h"
#include "src/storage/common.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace invfs {

using DeviceId = uint8_t;
inline constexpr DeviceId kDeviceMagneticDisk = 0;  // default; catalogs live here
inline constexpr DeviceId kDeviceNvram = 1;
inline constexpr DeviceId kDeviceJukebox = 2;
inline constexpr DeviceId kMaxDevices = 8;

// Interface routines a device supplies to the switch (create, drop, read,
// write, extend — the operations the paper lists for device managers).
class DeviceManager {
 public:
  virtual ~DeviceManager() = default;

  virtual std::string_view name() const = 0;

  virtual Status CreateRelation(Oid rel) = 0;
  virtual Status DropRelation(Oid rel) = 0;
  virtual bool RelationExists(Oid rel) const = 0;
  virtual Result<uint32_t> NumBlocks(Oid rel) const = 0;

  virtual Status ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) = 0;
  virtual Status WriteBlock(Oid rel, uint32_t block,
                            std::span<const std::byte> data) = 0;

  // Hook for devices with post-commit work (e.g. jukebox cache destage).
  virtual Status Sync() { return Status::Ok(); }

  // Unwraps the switch entry (SwitchEntry) to the concrete device. Callers
  // that need the concrete device type (e.g. JukeboxDevice's cache
  // statistics) must downcast Underlying(), never the switch entry itself.
  virtual DeviceManager* Underlying() { return this; }
};

// NVRAM device: battery-backed memory, no mechanical cost. The paper's
// POSTGRES supported raw non-volatile RAM as a first-class device.
class NvramDevice final : public DeviceManager {
 public:
  explicit NvramDevice(BlockStore* store) : store_(store) {}

  std::string_view name() const override { return "nvram"; }
  Status CreateRelation(Oid rel) override { return store_->Create(rel); }
  Status DropRelation(Oid rel) override { return store_->Drop(rel); }
  bool RelationExists(Oid rel) const override { return store_->Exists(rel); }
  Result<uint32_t> NumBlocks(Oid rel) const override { return store_->NumBlocks(rel); }
  Status ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) override {
    return store_->Read(rel, block, out);
  }
  Status WriteBlock(Oid rel, uint32_t block, std::span<const std::byte> data) override {
    return store_->Write(rel, block, data);
  }

 private:
  BlockStore* store_;
};

class DiskModel;

// Magnetic disk: cost-modelled seeks/rotation/transfer over a physical block
// address space. Relations are laid out in extents allocated from a global
// cursor, which approximates FFS cylinder-group clustering: blocks within an
// extent are contiguous; separate relations occupy separate regions, so
// interleaved access across relations pays seeks (the Figure 3 effect).
class MagneticDiskDevice final : public DeviceManager {
 public:
  MagneticDiskDevice(BlockStore* store, SimClock* clock, DiskParams params,
                     uint32_t extent_pages = 64);
  ~MagneticDiskDevice() override;

  std::string_view name() const override { return "magnetic"; }
  Status CreateRelation(Oid rel) override { return store_->Create(rel); }
  Status DropRelation(Oid rel) override;
  bool RelationExists(Oid rel) const override { return store_->Exists(rel); }
  Result<uint32_t> NumBlocks(Oid rel) const override { return store_->NumBlocks(rel); }
  Status ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) override;
  Status WriteBlock(Oid rel, uint32_t block, std::span<const std::byte> data) override;

  DiskModel& disk_model();

 private:
  uint64_t PhysicalAddress(Oid rel, uint32_t block) EXCLUDES(mu_);

  BlockStore* store_;
  std::unique_ptr<DiskModel> model_;
  Mutex mu_;
  ExtentMap extents_ GUARDED_BY(mu_);
};

// Sony WORM optical jukebox with a magnetic staging cache.
//
// Cost structure per the paper: "extremely high setup costs (many seconds to
// load an optical platter) and relatively low transfer rates", mitigated by a
// tunable magnetic-disk cache (default 10 MB). Tables are allocated in
// extents of physically contiguous pages (default 16).
class JukeboxDevice final : public DeviceManager {
 public:
  JukeboxDevice(BlockStore* store, SimClock* clock, JukeboxParams params,
                DiskParams cache_disk_params);
  ~JukeboxDevice() override;

  std::string_view name() const override { return "sony_jukebox"; }
  Status CreateRelation(Oid rel) override { return store_->Create(rel); }
  Status DropRelation(Oid rel) override;
  bool RelationExists(Oid rel) const override { return store_->Exists(rel); }
  Result<uint32_t> NumBlocks(Oid rel) const override { return store_->NumBlocks(rel); }
  Status ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) override;
  Status WriteBlock(Oid rel, uint32_t block, std::span<const std::byte> data) override;
  Status Sync() override;

  // Destage dirty blocks, then empty the magnetic staging cache entirely so
  // the next reads go to the platters (used by cold-read experiments).
  Status DropStagingCache();

  uint64_t platter_loads() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return platter_loads_;
  }
  uint64_t cache_hits() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cache_hits_;
  }
  uint64_t cache_misses() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cache_misses_;
  }
  uint64_t worm_remaps() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return worm_remaps_;
  }

 private:
  struct CacheKey {
    Oid rel;
    uint32_t block;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.rel) << 32) | k.block);
    }
  };

  void ChargeOpticalIo(uint64_t phys) REQUIRES(mu_);
  // Touch the staging cache; returns true on hit. On miss inserts and evicts.
  bool CacheTouch(const CacheKey& key, bool dirty) REQUIRES(mu_);

  BlockStore* store_;
  SimClock* clock_;
  JukeboxParams params_;
  std::unique_ptr<DiskModel> cache_disk_;  // cost model for the staging cache
  mutable Mutex mu_;

  ExtentMap extents_ GUARDED_BY(mu_);
  std::unordered_map<Oid, std::unordered_map<uint32_t, int>> rewrite_counts_
      GUARDED_BY(mu_);

  int64_t loaded_platter_ GUARDED_BY(mu_) = -1;
  uint64_t last_optical_phys_ GUARDED_BY(mu_) = 0;
  bool has_optical_position_ GUARDED_BY(mu_) = false;
  uint64_t platter_loads_ GUARDED_BY(mu_) = 0;
  uint64_t cache_hits_ GUARDED_BY(mu_) = 0;
  uint64_t cache_misses_ GUARDED_BY(mu_) = 0;
  uint64_t worm_remaps_ GUARDED_BY(mu_) = 0;

  // LRU staging cache: list front = most recent.
  std::vector<CacheKey> lru_ GUARDED_BY(mu_);  // linear maintenance is fine
  // Value: dirty.
  std::unordered_map<CacheKey, bool, CacheKeyHash> cached_ GUARDED_BY(mu_);
};

// The switch table itself.
class DeviceSwitch {
 public:
  DeviceSwitch() = default;

  // Register a device under `id`. Replaces any previous registration.
  void Register(DeviceId id, std::unique_ptr<DeviceManager> device);
  DeviceManager* Get(DeviceId id) const;
  bool Has(DeviceId id) const;

  // Relation -> device binding (mirrors pg_class.reldevice; rebuilt from the
  // catalog at reopen).
  void BindRelation(Oid rel, DeviceId id);
  void UnbindRelation(Oid rel);
  Result<DeviceId> DeviceFor(Oid rel) const;
  Result<DeviceManager*> ManagerFor(Oid rel) const;

  Status SyncAll();

 private:
  mutable Mutex mu_;
  std::array<std::unique_ptr<DeviceManager>, kMaxDevices> devices_ GUARDED_BY(mu_);
  std::unordered_map<Oid, DeviceId> bindings_ GUARDED_BY(mu_);
};

}  // namespace invfs

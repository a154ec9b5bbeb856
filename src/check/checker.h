// invfs_check: offline structural verifier for an Inversion storage image.
//
// Walks the raw block stores of a quiescent database — no buffer pool, no
// transactions — and reads them only through the engine's own readers, so
// it refuses exactly what the engine refuses: Page (page integrity, slotted
// geometry), WalkHeapPage (the heap's slot rule, heap.h), WalkBtree (B-tree
// structure at the key width the index's columns give), CommitLog::DecodePage
// and RecoveredStatus (commit-log statuses as recovery reads them),
// DecodeCatalogDefs (what the catalog rows define, as at Database::Open) and
// the chunk record rule (chunk_record.h), which it applies to archived chunk
// versions too, as as-of reads do. On top it checks what no single engine
// read can: every live tuple decodes under its relation's schema, no two
// live tuples of a page overlap, MVCC headers reference known transactions
// with ordered commit timestamps, each logical key has at most one current
// version, leaf TIDs match their key's suffix and point inside their heap,
// every B-tree node is reachable, cataloged relations exist on their devices
// (and vice versa), and chunk tables are reachable from fileatt.
//
// The checker never mutates the image. It reports all violations it can find
// rather than stopping at the first, so a single run characterizes the damage.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/database.h"
#include "src/device/block_store.h"
#include "src/storage/tuple.h"
#include "src/txn/commit_log.h"
#include "src/util/status.h"

namespace invfs {

struct Violation {
  // Short invariant name, stable for tests and scripts: e.g. "page-checksum",
  // "btree-key-order", "orphan-chunk-table".
  std::string invariant;
  Oid rel = kInvalidOid;
  uint32_t block = 0;
  std::string detail;
  // True when the violation is physically detectable page damage (bad magic,
  // bad checksum, unreadable) or fallout confined to — or pointing at — such
  // a page. Fault-injection tests corrupt pages on purpose; quarantined
  // violations are the ones the page-level defenses caught and contained.
  bool quarantined = false;
  // True for provably-dead crash residue under force-at-commit: state a
  // transaction in flight at a crash legitimately leaves behind (a physical
  // relation no pg_class version names, a write-through index entry pointing
  // past the persisted end of its heap). Invisible after recovery; the
  // vacuum cleaner reclaims it.
  bool residue = false;

  std::string ToString() const;
};

struct CheckReport {
  std::vector<Violation> violations;
  uint32_t relations_checked = 0;
  uint64_t pages_checked = 0;
  uint64_t tuples_checked = 0;
  uint64_t index_entries_checked = 0;

  bool ok() const { return violations.empty(); }
  // True when every violation (there may be none) is quarantined page damage
  // or its fallout — i.e. all corruption present was *detected* at the page
  // level and is confined to the damaged pages. `invfs_check
  // --tolerate-quarantined` exits 0 in this state.
  bool OnlyQuarantined() const;
  // True when every violation (there may be none) is crash residue — the
  // torture driver's standard for an image recovered from a mid-transaction
  // crash. `invfs_check --tolerate-residue` exits 0 in this state.
  bool OnlyResidue() const;
  // True if any violation names `invariant`.
  bool Has(const std::string& invariant) const;
  std::string ToString() const;
};

class Checker {
 public:
  // The stores may be null (device never configured); relations bound to a
  // missing device are reported, not dereferenced.
  Checker(BlockStore* disk, BlockStore* nvram = nullptr,
          BlockStore* jukebox = nullptr);
  explicit Checker(StorageEnv& env);

  // Run every check. Only fails (non-OK) on environmental errors — a store
  // that cannot be read at all; corruption is reported in the CheckReport.
  Result<CheckReport> Run();

 private:
  // Commit-log view loaded from the raw log relation, read with the
  // statuses crash recovery gives (CommitLog::RecoveredStatus).
  struct LogView {
    struct Entry {
      TxnStatus status = TxnStatus::kUnused;
      Timestamp commit_ts = 0;
    };
    std::vector<Entry> entries;  // as stored, indexed by xid
    TxnId horizon = 0;           // the persisted xid horizon

    TxnStatus StatusOf(TxnId x) const;
    bool Committed(TxnId x) const { return StatusOf(x) == TxnStatus::kCommitted; }
    bool Known(TxnId x) const { return StatusOf(x) != TxnStatus::kUnused; }
    Timestamp CommitTs(TxnId x) const;
  };

  // Gets each tuple of a heap walk that decodes, with its column views.
  using TupleSink = std::function<void(Tid, const TupleMeta&, std::span<const ColumnView>,
                                       std::span<const std::byte> tuple)>;

  // `fallout` forces the quarantined flag for cross-reference damage (e.g. an
  // index entry pointing into a quarantined heap page) that the same-block
  // rule in Add cannot see.
  void Add(std::string invariant, Oid rel, uint32_t block, std::string detail,
           bool fallout = false);
  bool Quarantined(Oid rel, uint32_t block) const;
  bool IsCurrent(const TupleMeta& meta) const;

  void LoadCommitLog();
  // Reads block `b` of `rel` into `buf` and runs the page-level checks; false
  // when it is not a readable page at all.
  bool ReadPage(BlockStore* store, Oid rel, uint32_t b, std::vector<std::byte>& buf);
  // Walk every page of a heap relation through the heap's slot rule, with
  // the page-level, overlap, decode and MVCC header checks and at most one
  // current version per value of the `key` columns, handing each tuple that
  // decodes to `sink` (if set).
  void WalkHeap(BlockStore* store, Oid rel, const Schema& schema,
                const std::vector<size_t>& key, const TupleSink& sink);
  void CheckTupleMeta(Oid rel, Tid tid, const TupleMeta& m);
  // WalkBtree over the index's blocks as stored, with the page-level checks,
  // the TID cross-checks, unreachable blocks and quarantine added.
  void CheckBtree(BlockStore* store, Oid index, Oid heap_rel, size_t key_width);

  BlockStore* disk() const { return stores_[kDeviceMagneticDisk]; }

  std::array<BlockStore*, 3> stores_;  // by DeviceId; null when not configured

  LogView log_;
  CheckReport report_;
  // Heap geometry gathered during heap walks: rel -> per-block slot counts.
  // B-tree leaf TIDs are validated against this.
  std::map<Oid, std::vector<uint16_t>> heap_slots_;
  // (rel, block) pairs whose pages carry detectable physical damage; further
  // violations on (or pointing at) these blocks are tagged as fallout.
  std::set<std::pair<Oid, uint32_t>> quarantined_;
};

// Convenience: check the image held by `env` and return the report.
Result<CheckReport> CheckImage(StorageEnv& env);

}  // namespace invfs

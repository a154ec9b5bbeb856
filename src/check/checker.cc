#include "src/check/checker.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string_view>

#include "src/access/btree.h"
#include "src/access/heap.h"
#include "src/catalog/catalog.h"
#include "src/inversion/chunk_record.h"
#include "src/storage/page.h"
#include "src/storage/tuple.h"
#include "src/util/bytes.h"

namespace invfs {

// ---------------------------------------------------------------- reporting

std::string Violation::ToString() const {
  std::string out = invariant + ": rel " + std::to_string(rel);
  if (block != ~0u) {
    out += " block " + std::to_string(block);
  }
  out += ": " + detail;
  if (quarantined) {
    out += " [quarantined]";
  }
  if (residue) {
    out += " [crash residue]";
  }
  return out;
}

bool CheckReport::OnlyQuarantined() const {
  return std::all_of(violations.begin(), violations.end(),
                     [](const Violation& v) { return v.quarantined; });
}

bool CheckReport::OnlyResidue() const {
  return std::all_of(violations.begin(), violations.end(),
                     [](const Violation& v) { return v.residue; });
}

bool CheckReport::Has(const std::string& invariant) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.invariant == invariant; });
}

std::string CheckReport::ToString() const {
  std::string out = "invfs_check: " + std::to_string(relations_checked) +
                    " relations, " + std::to_string(pages_checked) + " pages, " +
                    std::to_string(tuples_checked) + " tuples, " +
                    std::to_string(index_entries_checked) + " index entries, " +
                    std::to_string(violations.size()) + " violation(s)\n";
  for (const Violation& v : violations) {
    out += "  " + v.ToString() + "\n";
  }
  return out;
}

// ---------------------------------------------------------------- commit log

TxnStatus Checker::LogView::StatusOf(TxnId x) const {
  if (x == kBootstrapTxn) {
    return TxnStatus::kCommitted;
  }
  const TxnStatus stored = x < entries.size() ? entries[x].status : TxnStatus::kUnused;
  return CommitLog::RecoveredStatus(x, stored, horizon);
}

Timestamp Checker::LogView::CommitTs(TxnId x) const {
  return x != kBootstrapTxn && x < entries.size() ? entries[x].commit_ts : 0;
}

// ------------------------------------------------------------------ checker

Checker::Checker(BlockStore* disk, BlockStore* nvram, BlockStore* jukebox)
    : stores_{disk, nvram, jukebox} {}

Checker::Checker(StorageEnv& env)
    : Checker(env.disk_store.get(), env.nvram_store.get(),
              env.jukebox_store.get()) {}

void Checker::Add(std::string invariant, Oid rel, uint32_t block,
                  std::string detail, bool fallout) {
  // Detectable physical damage quarantines its page: every further complaint
  // about the same block (undecodable tuples, bad geometry, overlapping line
  // pointers) is fallout of that damage, not an independent invariant breach.
  // page-geometry is deliberately NOT an anchor — bad geometry under a valid
  // checksum is software corruption the page-level defenses did not catch.
  static constexpr std::string_view kAnchors[] = {"page-unreadable",
                                                  "page-magic",
                                                  "page-checksum"};
  bool quarantined = fallout;
  for (std::string_view a : kAnchors) {
    if (invariant == a) {
      quarantined_.emplace(rel, block);
      quarantined = true;
      break;
    }
  }
  quarantined = quarantined || Quarantined(rel, block);
  report_.violations.push_back(
      Violation{std::move(invariant), rel, block, std::move(detail),
                quarantined});
}

bool Checker::Quarantined(Oid rel, uint32_t block) const {
  return quarantined_.count({rel, block}) != 0;
}

bool Checker::IsCurrent(const TupleMeta& meta) const {
  return log_.Committed(meta.xmin) &&
         (meta.xmax == kInvalidTxn || !log_.Committed(meta.xmax));
}

void Checker::LoadCommitLog() {
  if (!disk()->Exists(kCommitLogRelOid)) {
    Add("commit-log-missing", kCommitLogRelOid, ~0u,
        "no commit log relation on the default device");
    return;
  }
  auto nblocks = disk()->NumBlocks(kCommitLogRelOid);
  if (!nblocks.ok()) {
    Add("commit-log-missing", kCommitLogRelOid, ~0u, nblocks.status().message());
    return;
  }
  std::vector<std::byte> buf(kPageSize);
  for (uint32_t b = 0; b < *nblocks; ++b) {
    if (Status s = disk()->Read(kCommitLogRelOid, b, buf); !s.ok()) {
      Add("commit-log-unreadable", kCommitLogRelOid, b, s.message());
      continue;
    }
    const CommitLog::DecodedPage page = CommitLog::DecodePage(b, buf);
    if (b == 0) {
      log_.horizon = page.horizon;
    }
    for (const Status& s : page.invalid) {
      Add("commit-log-status", kCommitLogRelOid, b, s.message());
    }
    for (const CommitLog::DecodedPage::Entry& e : page.used) {
      if (log_.entries.size() <= e.xid) {
        log_.entries.resize(e.xid + 1);
      }
      log_.entries[e.xid] = {e.status, e.commit_ts};
    }
  }
}

void Checker::CheckTupleMeta(Oid rel, Tid tid, const TupleMeta& m) {
  auto slot = [&] { return "slot " + std::to_string(tid.slot); };
  if (m.xmin == kInvalidTxn) {
    Add("tuple-xmin-zero", rel, tid.block, slot() + " has xmin 0");
    return;
  }
  if (!log_.Known(m.xmin)) {
    Add("tuple-xmin-unknown", rel, tid.block,
        slot() + " written by unknown xid " + std::to_string(m.xmin));
  }
  if (m.xmax != kInvalidTxn && !log_.Known(m.xmax)) {
    Add("tuple-xmax-unknown", rel, tid.block,
        slot() + " deleted by unknown xid " + std::to_string(m.xmax));
  }
  if (m.xmax != kInvalidTxn && log_.Committed(m.xmin) && log_.Committed(m.xmax) &&
      log_.CommitTs(m.xmax) < log_.CommitTs(m.xmin)) {
    Add("commit-ts-order", rel, tid.block,
        slot() + " deleted (xid " + std::to_string(m.xmax) + ", ts " +
            std::to_string(log_.CommitTs(m.xmax)) + ") before it was written (xid " +
            std::to_string(m.xmin) + ", ts " + std::to_string(log_.CommitTs(m.xmin)) + ")");
  }
}

bool Checker::ReadPage(BlockStore* store, Oid rel, uint32_t b, std::vector<std::byte>& buf) {
  if (Status s = store->Read(rel, b, buf); !s.ok()) {
    Add("page-unreadable", rel, b, s.message());
    return false;
  }
  ++report_.pages_checked;
  const Page page(buf.data());
  if (!page.IsInitialized()) {
    Add("page-magic", rel, b, "bad page magic");
    return false;
  }
  if (Status s = page.VerifyChecksum(); !s.ok()) {
    Add("page-checksum", rel, b, s.message());
  }
  if (Status s = page.VerifySelfIdent(rel, b); !s.ok()) {
    Add("page-self-ident", rel, b, s.message());
  }
  return true;
}

void Checker::WalkHeap(BlockStore* store, Oid rel, const Schema& schema,
                       const std::vector<size_t>& key, const TupleSink& sink) {
  ++report_.relations_checked;
  auto nblocks = store->NumBlocks(rel);
  if (!nblocks.ok()) {
    Add("relation-missing", rel, ~0u, nblocks.status().message());
    return;
  }
  std::vector<uint16_t>& slots = heap_slots_[rel];
  slots.assign(*nblocks, 0);
  std::vector<std::byte> buf(kPageSize);
  std::vector<ColumnView> views(schema.num_columns());
  std::vector<std::pair<size_t, size_t>> extents;  // the page's live tuples: (offset, length)
  std::map<std::string, Tid> current;  // each current version's key column bytes -> its TID
  auto note = [&](std::span<const std::byte> tuple) {
    extents.emplace_back(static_cast<size_t>(tuple.data() - buf.data()), tuple.size());
    ++report_.tuples_checked;
  };
  auto refused = [&](Tid tid, std::span<const std::byte> tuple, const Status& why) {
    if (tuple.empty()) {
      Add("line-pointer-bounds", rel, tid.block, why.message());
    } else {
      note(tuple);
      Add("tuple-decode", rel, tid.block,
          "slot " + std::to_string(tid.slot) + ": " + why.message());
    }
    return Status::Ok();
  };
  auto live = [&](Tid tid, std::span<const std::byte> tuple) -> Result<bool> {
    note(tuple);
    if (Status s = ViewColumns(schema, tuple, views); !s.ok()) {
      Add("tuple-decode", rel, tid.block, "slot " + std::to_string(tid.slot) + ": " + s.message());
      return false;
    }
    const TupleMeta meta = GetTupleMeta(tuple);
    CheckTupleMeta(rel, tid, meta);
    if (!key.empty() && IsCurrent(meta)) {
      std::string bytes;
      for (size_t c : key) {
        const uint32_t length = static_cast<uint32_t>(views[c].bytes.size());
        bytes.push_back(views[c].null ? '\0' : '\1');
        bytes.append(reinterpret_cast<const char*>(&length), sizeof length);
        bytes.append(reinterpret_cast<const char*>(views[c].bytes.data()), length);
      }
      if (const auto [it, inserted] = current.emplace(std::move(bytes), tid); !inserted) {
        Add("duplicate-current-version", rel, tid.block,
            "one key is current at both " + it->second.ToString() + " and " + tid.ToString() +
                " (version chain cut)");
      }
    }
    if (sink) {
      sink(tid, meta, views, tuple);
    }
    return false;
  };
  for (uint32_t b = 0; b < *nblocks; ++b) {
    if (!ReadPage(store, rel, b, buf)) {
      continue;
    }
    const Page page(buf.data());
    if (Status s = page.VerifyGeometry(); !s.ok()) {
      Add("page-geometry", rel, b, s.message());
      continue;  // line pointers cannot be trusted
    }
    slots[b] = page.num_slots();
    extents.clear();
    (void)WalkHeapPage(page, b, live, refused);  // neither callback ends the walk
    std::sort(extents.begin(), extents.end());
    for (size_t i = 1; i < extents.size(); ++i) {
      if (extents[i - 1].first + extents[i - 1].second > extents[i].first) {
        Add("tuple-overlap", rel, b,
            "tuples at offsets " + std::to_string(extents[i - 1].first) + " and " +
                std::to_string(extents[i].first) + " overlap");
      }
    }
  }
}

void Checker::CheckBtree(BlockStore* store, Oid index, Oid heap_rel, size_t key_width) {
  auto nblocks = store->NumBlocks(index);
  if (!nblocks.ok()) {
    Add("relation-missing", index, ~0u, nblocks.status().message());
    return;
  }
  const std::vector<uint16_t>* heap_slots = nullptr;
  if (auto it = heap_slots_.find(heap_rel); it != heap_slots_.end()) {
    heap_slots = &it->second;
  }

  // The engine's structural walk reads each reachable block once, through
  // the page-level checks.
  std::vector<bool> reached(*nblocks);
  std::vector<std::byte> buf(kPageSize);
  auto pages = [&](uint32_t b, const std::function<void(std::span<const std::byte>)>& use) {
    reached[b] = true;
    if (!ReadPage(store, index, b, buf)) {
      return false;
    }
    use(buf);
    return true;
  };
  auto violation = [&](std::string_view invariant, uint32_t block, std::string detail) {
    Add(std::string(invariant), index, block, std::move(detail));
    return true;
  };
  // What the tree cannot know: its keys' TID suffixes against their
  // payloads, and the payloads against the heap.
  auto leaf_entry = [&](uint32_t block, size_t i, std::span<const std::byte> key, Tid tid) {
    ++report_.index_entries_checked;
    const std::byte* suffix = key.data() + key.size() - BTree::kTidSuffix;
    const Tid key_tid{GetBe32(suffix), GetBe16(suffix + 4)};
    if (key_tid != tid) {
      Add("btree-tid-suffix", index, block,
          "entry " + std::to_string(i) + " key suffix " + key_tid.ToString() +
              " != payload TID " + tid.ToString());
    }
    if (heap_slots != nullptr &&
        (tid.block >= heap_slots->size() || tid.slot >= (*heap_slots)[tid.block])) {
      // A TID into a quarantined heap page is fallout: the page's slot
      // count is unknowable, so the entry may well be fine.
      const bool fallout = Quarantined(heap_rel, tid.block);
      Add("btree-tid-range", index, block,
          "entry " + std::to_string(i) + " points at " + tid.ToString() +
              ", outside heap rel " + std::to_string(heap_rel),
          fallout);
      // Otherwise the TID points past the persisted end of its heap.
      // Force-at-commit flushes heap pages before the commit record, so the
      // entry's writer never committed: this is a dead entry a crash
      // legitimately strands in a write-through index. The next vacuum of
      // the heap that reclaims a version drops it: its index walk keeps
      // only entries naming a surviving version with the entry's key.
      report_.violations.back().residue = !fallout;
    }
  };
  WalkBtree(*nblocks, key_width, pages, {violation, leaf_entry});

  // Every block must be reachable from the root (block 0 is the meta page);
  // the walk reads each at most once. Without a root, reachability is moot.
  const bool rooted = std::count(reached.begin(), reached.end(), true) > 1;
  for (uint32_t b = 1; b < *nblocks && rooted; ++b) {
    if (!reached[b]) {
      Add("btree-unreachable", index, b, "node not reachable from the root");
    }
  }

  // A physically damaged page anywhere in this index makes the structural
  // walk's downstream complaints (key order, sibling chain, unreachable
  // nodes, depth) fallout of that damage rather than independent corruption.
  if (auto it = quarantined_.lower_bound({index, 0});
      it != quarantined_.end() && it->first == index) {
    for (Violation& v : report_.violations) {
      if (v.rel == index) {
        v.quarantined = true;
      }
    }
  }
}

Result<CheckReport> Checker::Run() {
  if (disk() == nullptr) {
    return Status::InvalidArgument("no default-device store to check");
  }
  if (!disk()->Exists(kPgClassOid)) {
    Add("catalog-missing", kPgClassOid, ~0u,
        "pg_class does not exist on the default device");
    return report_;
  }
  LoadCommitLog();

  // --- catalogs, with their canonical schemas -----------------------------
  // Every pg_class version's oid is remembered: crashed DDL legitimately
  // leaves physical relations whose pg_class row never committed (garbage
  // for vacuum, not corruption). The current rows of pg_class, pg_attribute
  // and pg_index mean what DecodeCatalogDefs reads, as at Database::Open.
  std::set<Oid> named_oids = {kCommitLogRelOid, kPgClassOid, kPgAttributeOid,
                              kPgTypeOid,       kPgProcOid,  kPgIndexOid};
  // Each catalog's logical key, in CatalogSpecs order: (attrelid, attnum),
  // typid, proid. A second current pg_class or pg_index row is
  // DecodeCatalogDefs' to report.
  const std::vector<size_t> keys[] = {{}, {0, 3}, {1}, {1}, {}};
  std::vector<CatalogRow> current[5];
  for (size_t i = 0; i < std::size(keys); ++i) {
    const auto& [oid, name, schema] = CatalogSpecs()[i];
    auto sink = [&](Tid tid, const TupleMeta& meta, auto views, auto tuple) {
      if (oid == kPgClassOid && !views[1].null) {
        named_oids.insert(views[1].AsOid());
      }
      if (!IsCurrent(meta)) {
        return;
      }
      auto row = DecodeTuple(schema, tuple);  // decodes: its views did
      if (Status s = row.ok() ? RefuseNullColumns(name, schema, *row) : row.status(); !s.ok()) {
        Add("catalog-null", oid, tid.block, tid.ToString() + ": " + s.message());
        return;
      }
      current[i].push_back({tid, std::move(*row)});
    };
    WalkHeap(disk(), oid, schema, keys[i], sink);
  }
  const CatalogDefs defs = DecodeCatalogDefs(current[0], current[1], current[4]);
  for (const CatalogDefs::Problem& p : defs.problems) {
    Add(p.invariant, p.rel, p.block, p.detail);
  }

  // --- every cataloged relation -------------------------------------------
  // Each heap is checked as the walk streams it. Vacuum's archive of a
  // table is checked under the table's rules, but for its logical key (an
  // archive holds old versions) and the orphan check.
  std::set<Oid> known_files;  // the files some fileatt version names
  std::vector<std::pair<const CatalogDefs::Relation*, Oid>> chunk_tables;  // (rel, file)
  for (const auto& [oid, rel] : defs.relations) {
    BlockStore* store = stores_[rel.device];
    if (store == nullptr) {
      Add("relation-bad-device", oid, ~0u,
          rel.name + " bound to device " + std::to_string(rel.device) +
              ", which has no store");
      continue;
    }
    if (!store->Exists(oid)) {
      Add("relation-missing", oid, ~0u,
          rel.name + " is cataloged but absent from device " + std::to_string(rel.device));
      continue;
    }
    if (oid < kFirstUserOid || rel.kind == RelKind::kIndex) {
      continue;
    }
    const std::string base = ArchiveBase(rel.name);
    const std::string& table = base.empty() ? rel.name : base;
    std::vector<size_t> key;  // the logical key kept unique
    std::optional<size_t> file_column;  // fileatt: every version keeps its file referenced
    Oid file = ChunkTableFile(table);   // a chunk table: the file it stores
    if (table == "fileatt") {
      key = {0};  // file
      if (auto c = rel.schema.ColumnIndex("file"); c.ok()) {
        file_column = *c;
      }
    } else if (table == "naming") {
      key = {1, 0};  // (parentid, filename)
    } else if (file != kInvalidOid) {
      key = {0};  // chunkno
      if (base.empty()) {
        chunk_tables.emplace_back(&rel, file);
      }
      if (rel.schema.columns() != ChunkTableSchema().columns()) {
        Add("chunk-schema", oid, ~0u,
            "chunk table " + rel.name + " lacks the (chunkno, data, selfid, rawlen) schema");
        key.clear();
        file = kInvalidOid;
      }
    }
    if (!base.empty()) {
      key.clear();  // an archive holds old versions
    }
    WalkHeap(store, oid, rel.schema, key, [&](Tid tid, const TupleMeta&, auto views, auto) {
      if (file_column && !views[*file_column].null) {
        known_files.insert(views[*file_column].AsOid());
      }
      if (file == kInvalidOid) {
        return;
      }
      // The chunk record rule, as VisitChunks applies it to every version a
      // read meets, archived ones included.
      const ChunkFields fields = ChunkFields::Of(views.template first<4>());
      if (const std::string_view fault = ChunkRecordFault(file, fields); !fault.empty()) {
        Add(std::string(fault), oid, tid.block,
            "chunk record at " + tid.ToString() + " of file " + std::to_string(file) +
                ": chunkno " + (fields.chunkno ? std::to_string(*fields.chunkno) : "null") +
                ", selfid " + (fields.selfid ? std::to_string(*fields.selfid) : "null") + ", " +
                std::to_string(fields.length) + " bytes");
      }
    });
  }

  // --- indexes -------------------------------------------------------------
  for (const CatalogDefs::Index& index : defs.indexes) {
    BlockStore* store = stores_[defs.relations.at(index.oid).device];
    if (store == nullptr || !store->Exists(index.oid)) {
      continue;  // already reported above
    }
    CheckBtree(store, index.oid, index.heap, index.key_width);
    ++report_.relations_checked;
  }

  // --- orphan chunk tables: no fileatt version ever named their file ------
  for (const auto& [rel, file] : chunk_tables) {
    if (known_files.find(file) == known_files.end()) {
      Add("orphan-chunk-table", rel->oid, ~0u,
          rel->name + " stores chunks of file " + std::to_string(file) +
              ", which no fileatt row references");
      // A crashed p_creat leaves the chunk table cataloged (its pg_class
      // page flushed) while the fileatt insert never reached disk: garbage
      // for the vacuum cleaner, not corruption.
      report_.violations.back().residue = true;
    }
  }

  // --- physical relations nobody names ------------------------------------
  constexpr const char* kStoreNames[] = {"disk", "nvram", "jukebox"};
  for (size_t d = 0; d < stores_.size(); ++d) {
    if (stores_[d] == nullptr) {
      continue;
    }
    for (Oid oid : stores_[d]->ListRelations()) {
      if (named_oids.find(oid) == named_oids.end()) {
        Add("relation-unreferenced", oid, ~0u,
            std::string("relation exists on ") + kStoreNames[d] +
                " but no pg_class version names it");
        // Relations are created on the device the moment DDL runs, but the
        // pg_class insert only reaches disk at commit (or an eviction). A
        // crash in between strands the physical relation with no cataloged
        // trace — vacuum garbage, not corruption.
        report_.violations.back().residue = true;
      }
    }
  }

  return report_;
}

Result<CheckReport> CheckImage(StorageEnv& env) {
  return Checker(env).Run();
}

}  // namespace invfs

#include "src/check/checker.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string_view>

#include "src/access/btree.h"
#include "src/catalog/catalog.h"
#include "src/storage/page.h"
#include "src/storage/tuple.h"
#include "src/util/bytes.h"

namespace invfs {
namespace {


bool ValidTypeId(int32_t v) {
  return v >= static_cast<int32_t>(TypeId::kBool) &&
         v <= static_cast<int32_t>(TypeId::kTimestamp);
}

// Chunk-table names are "inv<oid>"; returns the oid or 0.
Oid ParseChunkTableName(const std::string& name) {
  if (name.size() <= 3 || name.compare(0, 3, "inv") != 0) {
    return kInvalidOid;
  }
  Oid oid = 0;
  for (size_t i = 3; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return kInvalidOid;
    }
    oid = oid * 10 + static_cast<Oid>(name[i] - '0');
  }
  return oid;
}

std::string KeyOf(const Row& row, const std::vector<size_t>& key_columns) {
  std::string key;
  for (size_t c : key_columns) {
    key += row[c].ToString();
    key += '\x1f';
  }
  return key;
}

}  // namespace

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

bool Checker::LogView::Known(TxnId x) const {
  if (x == kBootstrapTxn) {
    return true;
  }
  if (x != kInvalidTxn && x <= horizon) {
    return true;  // allocated under the persisted horizon; unused = burned
  }
  return x < entries.size() &&
         entries[x].status != static_cast<uint32_t>(TxnStatus::kUnused);
}

bool Checker::LogView::Committed(TxnId x) const {
  if (x == kBootstrapTxn) {
    return true;
  }
  return x < entries.size() &&
         entries[x].status == static_cast<uint32_t>(TxnStatus::kCommitted);
}

Timestamp Checker::LogView::CommitTs(TxnId x) const {
  if (x == kBootstrapTxn) {
    return 0;
  }
  return x < entries.size() ? entries[x].commit_ts : 0;
}

// ------------------------------------------------------------------ checker

Checker::Checker(BlockStore* disk, BlockStore* nvram, BlockStore* jukebox)
    : disk_(disk), nvram_(nvram), jukebox_(jukebox) {}

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

BlockStore* Checker::StoreFor(DeviceId device) const {
  switch (device) {
    case kDeviceMagneticDisk:
      return disk_;
    case kDeviceNvram:
      return nvram_;
    case kDeviceJukebox:
      return jukebox_;
    default:
      return nullptr;
  }
}

bool Checker::IsCurrent(const TupleMeta& meta) const {
  return log_.Committed(meta.xmin) &&
         (meta.xmax == kInvalidTxn || !log_.Committed(meta.xmax));
}

void Checker::LoadCommitLog() {
  if (!disk_->Exists(kCommitLogRelOid)) {
    Add("commit-log-missing", kCommitLogRelOid, ~0u,
        "no commit log relation on the default device");
    return;
  }
  auto nblocks = disk_->NumBlocks(kCommitLogRelOid);
  if (!nblocks.ok()) {
    Add("commit-log-missing", kCommitLogRelOid, ~0u, nblocks.status().message());
    return;
  }
  std::vector<std::byte> buf(kPageSize);
  for (uint32_t b = 0; b < *nblocks; ++b) {
    if (Status s = disk_->Read(kCommitLogRelOid, b, buf); !s.ok()) {
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
      log_.entries[e.xid] = LogView::Entry{static_cast<uint32_t>(e.status), e.commit_ts};
    }
  }
}

void Checker::CheckTupleMeta(Oid rel, const HeapTuple& t) {
  const TupleMeta& m = t.meta;
  if (m.xmin == kInvalidTxn) {
    Add("tuple-xmin-zero", rel, t.tid.block,
        "slot " + std::to_string(t.tid.slot) + " has xmin 0");
    return;
  }
  if (!log_.Known(m.xmin)) {
    Add("tuple-xmin-unknown", rel, t.tid.block,
        "slot " + std::to_string(t.tid.slot) + " written by unknown xid " +
            std::to_string(m.xmin));
  }
  if (m.xmax != kInvalidTxn && !log_.Known(m.xmax)) {
    Add("tuple-xmax-unknown", rel, t.tid.block,
        "slot " + std::to_string(t.tid.slot) + " deleted by unknown xid " +
            std::to_string(m.xmax));
  }
  if (m.xmax != kInvalidTxn && log_.Committed(m.xmin) && log_.Committed(m.xmax) &&
      log_.CommitTs(m.xmax) < log_.CommitTs(m.xmin)) {
    Add("commit-ts-order", rel, t.tid.block,
        "slot " + std::to_string(t.tid.slot) + " deleted (xid " +
            std::to_string(m.xmax) + ", ts " +
            std::to_string(log_.CommitTs(m.xmax)) + ") before it was written (xid " +
            std::to_string(m.xmin) + ", ts " +
            std::to_string(log_.CommitTs(m.xmin)) + ")");
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
                       std::vector<HeapTuple>* out) {
  auto nblocks = store->NumBlocks(rel);
  if (!nblocks.ok()) {
    Add("relation-missing", rel, ~0u, nblocks.status().message());
    return;
  }
  std::vector<uint16_t>& slots = heap_slots_[rel];
  slots.assign(*nblocks, 0);
  std::vector<std::byte> buf(kPageSize);
  for (uint32_t b = 0; b < *nblocks; ++b) {
    if (!ReadPage(store, rel, b, buf)) {
      continue;
    }
    const Page page(buf.data());
    if (Status s = page.VerifyGeometry(); !s.ok()) {
      Add("page-geometry", rel, b, s.message());
      continue;  // line pointers cannot be trusted
    }
    const uint16_t nslots = page.num_slots();
    slots[b] = nslots;
    // Live tuples: inside the tuple area (GetTuple's rule) and non-overlapping.
    std::vector<std::pair<size_t, size_t>> live;  // (offset, length)
    for (uint16_t s = 0; s < nslots; ++s) {
      auto tuple = page.GetTuple(s);
      if (!tuple.ok()) {
        Add("line-pointer-bounds", rel, b, tuple.status().message());
        continue;
      }
      if (tuple->empty()) {
        continue;  // dead (or compacted-away) slot
      }
      live.emplace_back(static_cast<size_t>(tuple->data() - buf.data()), tuple->size());
      ++report_.tuples_checked;
      HeapTuple t;
      t.tid = Tid{b, s};
      if (tuple->size() < kTupleFixedHeader) {
        Add("tuple-decode", rel, b,
            "slot " + std::to_string(s) + " shorter than the tuple header");
        continue;
      }
      t.meta = GetTupleMeta(*tuple);
      auto row = DecodeTuple(schema, *tuple);
      if (!row.ok()) {
        Add("tuple-decode", rel, b,
            "slot " + std::to_string(s) + ": " + row.status().message());
        continue;
      }
      t.row = std::move(*row);
      CheckTupleMeta(rel, t);
      if (out != nullptr) {
        out->push_back(std::move(t));
      }
    }
    std::sort(live.begin(), live.end());
    for (size_t i = 1; i < live.size(); ++i) {
      if (live[i - 1].first + live[i - 1].second > live[i].first) {
        Add("tuple-overlap", rel, b,
            "tuples at offsets " + std::to_string(live[i - 1].first) + " and " +
                std::to_string(live[i].first) + " overlap");
      }
    }
  }
}

void Checker::CheckCurrentUnique(Oid rel, const std::vector<HeapTuple>& tuples,
                                 const std::vector<size_t>& key_columns) {
  std::map<std::string, Tid> current;
  for (const HeapTuple& t : tuples) {
    if (!IsCurrent(t.meta)) {
      continue;
    }
    std::string key = KeyOf(t.row, key_columns);
    auto [it, inserted] = current.emplace(std::move(key), t.tid);
    if (!inserted) {
      Add("duplicate-current-version", rel, t.tid.block,
          "key " + KeyOf(t.row, key_columns) + " is current at both " +
              it->second.ToString() + " and " + t.tid.ToString() +
              " (version chain cut)");
    }
  }
}

void Checker::CheckChunkTable(const RelInfo& rel, Oid file,
                              const std::vector<HeapTuple>& tuples,
                              const Schema& schema) {
  auto chunkno_col = schema.ColumnIndex("chunkno");
  auto selfid_col = schema.ColumnIndex("selfid");
  auto data_col = schema.ColumnIndex("data");
  if (!chunkno_col.ok() || !selfid_col.ok() || !data_col.ok()) {
    Add("chunk-schema", rel.oid, ~0u,
        "chunk table " + rel.name + " lacks chunkno/data/selfid columns");
    return;
  }
  for (const HeapTuple& t : tuples) {
    const Value& chunkno = t.row[*chunkno_col];
    const Value& selfid = t.row[*selfid_col];
    if (chunkno.is_null() || chunkno.AsInt4() < 0) {
      Add("chunk-number", rel.oid, t.tid.block,
          "chunk record at " + t.tid.ToString() + " has bad chunk number");
      continue;
    }
    if (t.row[*data_col].is_null()) {
      Add("chunk-data-null", rel.oid, t.tid.block,
          "chunk " + std::to_string(chunkno.AsInt4()) + " has null data");
    }
    // Every chunk record self-identifies as (file oid << 32) | chunkno; see
    // inv_session.cc. A mismatch means the record belongs to another file or
    // another chunk — a misdirected or cross-linked write.
    const int64_t want =
        (static_cast<int64_t>(file) << 32) | chunkno.AsInt4();
    if (selfid.is_null() || selfid.AsInt8() != want) {
      Add("chunk-self-ident", rel.oid, t.tid.block,
          "chunk " + std::to_string(chunkno.AsInt4()) + " of file " +
              std::to_string(file) + " carries selfid " +
              (selfid.is_null() ? "null" : std::to_string(selfid.AsInt8())) +
              ", expected " + std::to_string(want));
    }
  }
}

void Checker::CheckBtree(BlockStore* store, const RelInfo& index, Oid heap_rel,
                         size_t key_width) {
  auto nblocks = store->NumBlocks(index.oid);
  if (!nblocks.ok()) {
    Add("relation-missing", index.oid, ~0u, nblocks.status().message());
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
    if (!ReadPage(store, index.oid, b, buf)) {
      return false;
    }
    use(buf);
    return true;
  };
  auto violation = [&](std::string_view invariant, uint32_t block, std::string detail) {
    Add(std::string(invariant), index.oid, block, std::move(detail));
    return true;
  };
  // What the tree cannot know: its keys' TID suffixes against their
  // payloads, and the payloads against the heap.
  auto leaf_entry = [&](uint32_t block, size_t i, std::span<const std::byte> key, Tid tid) {
    ++report_.index_entries_checked;
    const std::byte* suffix = key.data() + key.size() - BTree::kTidSuffix;
    const Tid key_tid{GetBe32(suffix), GetBe16(suffix + 4)};
    if (key_tid != tid) {
      Add("btree-tid-suffix", index.oid, block,
          "entry " + std::to_string(i) + " key suffix " + key_tid.ToString() +
              " != payload TID " + tid.ToString());
    }
    if (heap_slots != nullptr &&
        (tid.block >= heap_slots->size() || tid.slot >= (*heap_slots)[tid.block])) {
      // A TID into a quarantined heap page is fallout: the page's slot
      // count is unknowable, so the entry may well be fine.
      const bool fallout = Quarantined(heap_rel, tid.block);
      Add("btree-tid-range", index.oid, block,
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
      Add("btree-unreachable", index.oid, b, "node not reachable from the root");
    }
  }

  // A physically damaged page anywhere in this index makes the structural
  // walk's downstream complaints (key order, sibling chain, unreachable
  // nodes, depth) fallout of that damage rather than independent corruption.
  if (auto it = quarantined_.lower_bound({index.oid, 0});
      it != quarantined_.end() && it->first == index.oid) {
    for (Violation& v : report_.violations) {
      if (v.rel == index.oid) {
        v.quarantined = true;
      }
    }
  }
}

Result<CheckReport> Checker::Run() {
  if (disk_ == nullptr) {
    return Status::InvalidArgument("no default-device store to check");
  }
  if (!disk_->Exists(kPgClassOid)) {
    Add("catalog-missing", kPgClassOid, ~0u,
        "pg_class does not exist on the default device");
    return report_;
  }
  LoadCommitLog();

  // --- catalogs, with their canonical schemas -----------------------------
  std::vector<HeapTuple> class_rows;
  std::vector<HeapTuple> attr_rows;
  std::vector<HeapTuple> type_rows;
  std::vector<HeapTuple> proc_rows;
  std::vector<HeapTuple> index_rows;
  const Schema class_schema = PgClassSchema();
  const Schema attr_schema = PgAttributeSchema();
  WalkHeap(disk_, kPgClassOid, class_schema, &class_rows);
  WalkHeap(disk_, kPgAttributeOid, attr_schema, &attr_rows);
  WalkHeap(disk_, kPgTypeOid, PgTypeSchema(), &type_rows);
  WalkHeap(disk_, kPgProcOid, PgProcSchema(), &proc_rows);
  WalkHeap(disk_, kPgIndexOid, PgIndexSchema(), &index_rows);
  report_.relations_checked += 5;
  CheckCurrentUnique(kPgClassOid, class_rows, {1});       // relid
  CheckCurrentUnique(kPgAttributeOid, attr_rows, {0, 3});  // (attrelid, attnum)
  CheckCurrentUnique(kPgTypeOid, type_rows, {1});          // typid
  CheckCurrentUnique(kPgProcOid, proc_rows, {1});          // proid
  CheckCurrentUnique(kPgIndexOid, index_rows, {0});        // indexrelid

  // Current relations, and every oid any pg_class version has ever named
  // (crashed DDL legitimately leaves physical relations whose pg_class row
  // never committed — those are garbage for vacuum, not corruption).
  std::map<Oid, RelInfo> rels;
  std::set<Oid> named_oids = {kCommitLogRelOid, kPgClassOid, kPgAttributeOid,
                              kPgTypeOid,       kPgProcOid,  kPgIndexOid};
  for (const HeapTuple& t : class_rows) {
    if (t.row[1].is_null()) {
      continue;
    }
    named_oids.insert(t.row[1].AsOid());
    if (!IsCurrent(t.meta)) {
      continue;
    }
    RelInfo info;
    info.name = t.row[0].is_null() ? "" : t.row[0].AsText();
    info.oid = t.row[1].AsOid();
    info.device = t.row[2].is_null()
                      ? kDeviceMagneticDisk
                      : static_cast<DeviceId>(t.row[2].AsInt4());
    info.kind = t.row[3].is_null() ? RelKind::kHeap
                                   : static_cast<RelKind>(t.row[3].AsInt4());
    rels.emplace(info.oid, info);
  }

  // Current attribute rows grouped by relation.
  std::map<Oid, std::vector<const HeapTuple*>> attrs;
  for (const HeapTuple& t : attr_rows) {
    if (!IsCurrent(t.meta) || t.row[0].is_null()) {
      continue;
    }
    const Oid relid = t.row[0].AsOid();
    if (relid >= kFirstUserOid && rels.find(relid) == rels.end()) {
      Add("attribute-orphan", kPgAttributeOid, t.tid.block,
          "pg_attribute row at " + t.tid.ToString() +
              " references missing relation " + std::to_string(relid));
      continue;
    }
    attrs[relid].push_back(&t);
  }

  // --- every cataloged relation -------------------------------------------
  std::map<Oid, Schema> schemas;  // user heaps', for their indexes' key width
  std::vector<HeapTuple> fileatt_rows;
  std::optional<Schema> fileatt_schema;
  std::vector<std::pair<RelInfo, Oid>> chunk_tables;  // (rel, file oid)
  for (const auto& [oid, info] : rels) {
    BlockStore* store = StoreFor(info.device);
    if (store == nullptr) {
      Add("relation-bad-device", oid, ~0u,
          info.name + " bound to unknown device " + std::to_string(info.device));
      continue;
    }
    if (!store->Exists(oid)) {
      Add("relation-missing", oid, ~0u,
          info.name + " is cataloged but absent from device " +
              std::to_string(info.device));
      continue;
    }
    if (oid >= kFirstUserOid && info.kind != RelKind::kIndex) {
      // Reconstruct the schema from pg_attribute: attnum must be 0..n-1 with
      // valid types.
      auto ait = attrs.find(oid);
      if (ait == attrs.end()) {
        Add("attribute-gap", oid, ~0u, info.name + " has no pg_attribute rows");
        continue;
      }
      std::vector<Column> cols(ait->second.size());
      std::vector<bool> seen(ait->second.size(), false);
      bool schema_ok = true;
      for (const HeapTuple* t : ait->second) {
        const int32_t attnum = t->row[3].is_null() ? -1 : t->row[3].AsInt4();
        const int32_t typid = t->row[2].is_null() ? -1 : t->row[2].AsInt4();
        if (attnum < 0 || static_cast<size_t>(attnum) >= cols.size() ||
            seen[attnum] || !ValidTypeId(typid)) {
          Add("attribute-gap", oid, t->tid.block,
              info.name + " attribute row at " + t->tid.ToString() +
                  " has attnum " + std::to_string(attnum) + " / type " +
                  std::to_string(typid));
          schema_ok = false;
          break;
        }
        seen[attnum] = true;
        cols[attnum] = Column{t->row[1].is_null() ? "" : t->row[1].AsText(),
                              static_cast<TypeId>(typid)};
      }
      if (!schema_ok) {
        continue;
      }
      const Schema& schema = schemas.emplace(oid, Schema{cols}).first->second;
      std::vector<HeapTuple> tuples;
      WalkHeap(store, oid, schema, &tuples);
      ++report_.relations_checked;
      if (info.name == "fileatt" || info.name == "a,fileatt") {
        // Vacuum moves superseded fileatt rows to the archive, where they
        // still name their chunk tables.
        if (info.name == "fileatt") {
          CheckCurrentUnique(oid, tuples, {0});  // file
        }
        fileatt_schema = schema;
        fileatt_rows.insert(fileatt_rows.end(), std::make_move_iterator(tuples.begin()),
                            std::make_move_iterator(tuples.end()));
        continue;
      }
      if (info.name == "naming") {
        CheckCurrentUnique(oid, tuples, {1, 0});  // (parentid, filename)
        continue;
      }
      if (const Oid file = ParseChunkTableName(info.name); file != kInvalidOid) {
        auto cno = schema.ColumnIndex("chunkno");
        if (cno.ok()) {
          CheckCurrentUnique(oid, tuples, {*cno});
        }
        CheckChunkTable(info, file, tuples, schema);
        chunk_tables.emplace_back(info, file);
      }
    }
  }

  // --- indexes -------------------------------------------------------------
  std::set<Oid> indexed;
  for (const HeapTuple& t : index_rows) {
    if (!IsCurrent(t.meta)) {
      continue;
    }
    const Oid index_oid = t.row[0].is_null() ? kInvalidOid : t.row[0].AsOid();
    const Oid heap_oid = t.row[1].is_null() ? kInvalidOid : t.row[1].AsOid();
    auto iit = rels.find(index_oid);
    if (iit == rels.end() || iit->second.kind != RelKind::kIndex) {
      Add("index-ref", kPgIndexOid, t.tid.block,
          "pg_index row at " + t.tid.ToString() + " names " +
              std::to_string(index_oid) + ", which is not a cataloged index");
      continue;
    }
    auto hit = rels.find(heap_oid);
    if (hit == rels.end() || hit->second.kind == RelKind::kIndex) {
      Add("index-ref", kPgIndexOid, t.tid.block,
          "index " + std::to_string(index_oid) + " is over " +
              std::to_string(heap_oid) + ", which is not a cataloged heap");
      continue;
    }
    indexed.insert(index_oid);
    BlockStore* store = StoreFor(iit->second.device);
    if (store == nullptr || !store->Exists(index_oid)) {
      continue;  // already reported above
    }
    // The key width, as Catalog::Load derives it; 0 (all but the width
    // checked) when the heap's schema is unknown, which is reported already.
    size_t key_width = 0;
    if (auto sit = schemas.find(heap_oid); sit != schemas.end()) {
      auto key_columns = DecodeKeyColumns(
          t.row[2].is_null() ? "" : t.row[2].AsText(), sit->second.num_columns());
      if (!key_columns) {
        Add("index-ref", kPgIndexOid, t.tid.block,
            "pg_index row at " + t.tid.ToString() + " lists bad key columns");
      }
      key_width = key_columns ? FixedKeyWidth(sit->second, *key_columns) : 0;
    }
    CheckBtree(store, iit->second, heap_oid, key_width);
    ++report_.relations_checked;
  }
  for (const auto& [oid, info] : rels) {
    if (info.kind == RelKind::kIndex && indexed.find(oid) == indexed.end()) {
      Add("index-unreferenced", oid, ~0u,
          info.name + " is cataloged as an index but has no pg_index row");
    }
  }

  // --- orphan chunk tables -------------------------------------------------
  // Any version of a fileatt row (current, superseded, archived or
  // uncommitted) keeps a chunk table referenced; a chunk table no version
  // ever named is an orphan.
  std::set<Oid> known_files;
  if (fileatt_schema) {
    auto file_col = fileatt_schema->ColumnIndex("file");
    if (file_col.ok()) {
      for (const HeapTuple& t : fileatt_rows) {
        if (!t.row[*file_col].is_null()) {
          known_files.insert(t.row[*file_col].AsOid());
        }
      }
    }
  }
  for (const auto& [info, file] : chunk_tables) {
    if (known_files.find(file) == known_files.end()) {
      Add("orphan-chunk-table", info.oid, ~0u,
          info.name + " stores chunks of file " + std::to_string(file) +
              ", which no fileatt row references");
      // A crashed p_creat leaves the chunk table cataloged (its pg_class
      // page flushed) while the fileatt insert never reached disk: garbage
      // for the vacuum cleaner, not corruption.
      report_.violations.back().residue = true;
    }
  }

  // --- physical relations nobody names ------------------------------------
  struct StoreRef {
    BlockStore* store;
    const char* name;
  };
  const StoreRef stores[] = {{disk_, "disk"}, {nvram_, "nvram"},
                             {jukebox_, "jukebox"}};
  for (const StoreRef& s : stores) {
    if (s.store == nullptr) {
      continue;
    }
    for (Oid oid : s.store->ListRelations()) {
      if (named_oids.find(oid) == named_oids.end()) {
        Add("relation-unreferenced", oid, ~0u,
            std::string("relation exists on ") + s.name +
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

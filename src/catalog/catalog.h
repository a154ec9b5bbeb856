// System catalogs and the schema cache.
//
// Everything the database knows about itself is stored in ordinary heap
// relations, exactly as in POSTGRES: pg_class (relations), pg_attribute
// (columns), pg_type (types, including user-defined file types), pg_proc
// (registered functions) and pg_index (index definitions). Catalog rows carry
// the same MVCC header as user data, so DDL is transaction-protected: a
// crashed "create file" leaves no trace, and time travel sees old schemas.
//
// A write-through in-memory cache (name -> TableInfo with live Heap/BTree
// handles) serves current-state lookups; historical lookups scan pg_class
// under the historical snapshot.

#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/access/btree.h"
#include "src/access/heap.h"
#include "src/buffer/buffer_pool.h"
#include "src/device/device.h"
#include "src/txn/txn_manager.h"
#include "src/util/mutex.h"
#include "src/util/status.h"

namespace invfs {

// Fixed catalog relation oids (never vacuumed away, always on the default
// magnetic-disk device).
inline constexpr Oid kPgClassOid = 10;
inline constexpr Oid kPgAttributeOid = 11;
inline constexpr Oid kPgTypeOid = 12;
inline constexpr Oid kPgProcOid = 13;
inline constexpr Oid kPgIndexOid = 14;
inline constexpr Oid kFirstUserOid = 100;

enum class RelKind : int32_t {
  kHeap = 0,
  kIndex = 1,
  kArchive = 2,  // vacuum's record archive for a heap
};

// The five catalogs in oid order (pg_class, pg_attribute, pg_type, pg_proc,
// pg_index) with their canonical schemas. Exposed so offline tools
// (invfs_check) can decode catalog tuples without a live Catalog instance.
struct CatalogSpec {
  Oid oid;
  const char* name;
  Schema schema;
};
const std::array<CatalogSpec, 5>& CatalogSpecs();

// Vacuum's archive of relation `base` is named "a,<base>".
std::string ArchiveName(std::string_view base);
// The base relation's name when `name` is an archive's, else "".
std::string ArchiveBase(std::string_view name);

// Corruption ("catalog-null: ...") when `row` of catalog `catalog` has a
// null column: the engine writes none, so such a row defines nothing.
Status RefuseNullColumns(std::string_view catalog, const Schema& schema, const Row& row);

// A current catalog row with no null column, and where it is stored.
struct CatalogRow {
  Tid tid;
  Row row;
};

// What the current rows of pg_class, pg_attribute and pg_index define: the
// one reading of them, shared by Catalog::Load and invfs_check.
struct CatalogDefs {
  struct Relation {
    Oid oid = kInvalidOid;
    std::string name;
    DeviceId device = kDeviceMagneticDisk;
    RelKind kind = RelKind::kHeap;
    Schema schema;  // from pg_attribute; empty for an index
  };
  struct Index {
    Oid oid = kInvalidOid;
    Oid heap = kInvalidOid;
    std::vector<size_t> key_columns;
    size_t key_width = 0;  // FixedKeyWidth of the key columns over the heap
  };
  // A row that defines nothing, under invfs_check's invariant name: the
  // relation (or the catalog holding the row), and the row's block or ~0u.
  struct Problem {
    std::string invariant;
    Oid rel = kInvalidOid;
    uint32_t block = ~0u;
    std::string detail;
  };
  std::map<Oid, Relation> relations;  // indexes included
  std::vector<Index> indexes;
  std::vector<Problem> problems;  // in catalog order: pg_class, pg_attribute, pg_index
};

// A row defines nothing, and is a Problem, when it is
//   duplicate-current-version  a second pg_class row of one relid, or a
//                        second pg_index row defining one index;
//   relation-bad-device  a pg_class row on none of the three devices a
//                        Database registers;
//   relation-bad-kind    a pg_class row whose relkind is not a RelKind;
//   attribute-orphan     a pg_attribute row of no cataloged relation;
//   attribute-gap        one of a heap's or archive's attribute rows, when
//                        their attnums are not 0..n-1 each once or a type id
//                        is not a TypeId (or the relation has none);
//   index-ref            a pg_index row not pairing a cataloged index with a
//                        cataloged heap, or whose `indkeys` ("0,2") is not a
//                        list of the heap's column numbers;
//   index-unreferenced   an index relation no pg_index row names.
// A refused relation is not defined, and rows naming it add no Problem.
CatalogDefs DecodeCatalogDefs(std::span<const CatalogRow> pg_class,
                              std::span<const CatalogRow> pg_attribute,
                              std::span<const CatalogRow> pg_index);

// Function language, per pg_proc.
enum class ProcLang : int32_t {
  kNative = 0,    // C++ callable registered in the FunctionRegistry
  kPostquel = 1,  // stored POSTQUEL expression over $1..$n
};

struct IndexInfo {
  Oid oid = kInvalidOid;
  Oid table = kInvalidOid;
  std::vector<size_t> key_columns;
  std::unique_ptr<BTree> btree;
};

struct TableInfo {
  Oid oid = kInvalidOid;
  std::string name;
  Schema schema;
  DeviceId device = kDeviceMagneticDisk;
  RelKind kind = RelKind::kHeap;
  std::unique_ptr<Heap> heap;
  std::vector<IndexInfo*> indexes;   // owned by Catalog::indexes_
  std::atomic<Oid> archive_oid = kInvalidOid;  // vacuum's; read lock-free
};

struct ProcInfo {
  Oid oid = kInvalidOid;
  std::string name;
  TypeId rettype = TypeId::kInt4;
  int32_t nargs = 0;
  ProcLang lang = ProcLang::kNative;
  std::string src;  // POSTQUEL body, or native symbol name
};

struct TypeInfo {
  Oid oid = kInvalidOid;
  std::string name;
};

class Catalog {
 public:
  Catalog(DeviceSwitch* devices, BufferPool* pool, TxnManager* txns);

  // Create the catalog relations and seed rows (fresh database), or load the
  // cache from existing catalog relations (reopen after shutdown or crash).
  Status Bootstrap();
  Status Load();
  static bool Exists(DeviceManager* default_device) {
    return default_device->RelationExists(kPgClassOid);
  }

  // --- DDL (transactional; cache cleaned up via OnAbort) ------------------

  Result<TableInfo*> CreateTable(TxnId txn, const std::string& name,
                                 const Schema& schema, DeviceId device);
  Status DropTable(TxnId txn, const std::string& name);
  Result<IndexInfo*> CreateIndex(TxnId txn, TableInfo* table,
                                 std::vector<size_t> key_columns);

  Result<Oid> DefineType(TxnId txn, const std::string& name);
  Result<Oid> DefineFunction(TxnId txn, const std::string& name, TypeId rettype,
                             int32_t nargs, ProcLang lang, const std::string& src);

  // Create an archive relation for `table` (vacuum), named ArchiveName. If
  // `txn` aborts, the relation is dropped and `table` has no archive again.
  Result<TableInfo*> CreateArchive(TxnId txn, TableInfo* table);

  // What a transaction's vacuum of `table` leaves to the transaction's end:
  // the versions to expunge from `table` once it commits, and the copies made
  // in `archive`, expunged again if it aborts.
  struct Reclaim {
    TableInfo* table = nullptr;
    TableInfo* archive = nullptr;
    std::vector<Tid> dead;
    std::vector<Tid> archived;
  };
  // Vacuum: add `reclaim` to what `txn` reclaims (see OnCommit and OnAbort).
  void ReclaimAtEnd(TxnId txn, Reclaim reclaim);

  // Rebind a table to a new device, moving its pages (file migration).
  // The caller must hold an exclusive table lock on `table`: the move
  // flushes then copies blocks and depends on no writer dirtying pages in
  // between. Lock-free snapshot readers are tolerated throughout (cached
  // frames stay valid across the rebind).
  Status MigrateTable(TxnId txn, TableInfo* table, DeviceId new_device);

  // --- lookups -------------------------------------------------------------

  Result<TableInfo*> GetTable(const std::string& name);
  Result<TableInfo*> GetTableByOid(Oid oid);
  // Historical resolution: name -> oid under `snap` via pg_class scan.
  Result<TableInfo*> GetTableAt(const std::string& name, const Snapshot& snap);
  Result<ProcInfo*> GetFunction(const std::string& name);
  Result<TypeInfo*> GetType(const std::string& name);
  Result<TypeInfo*> GetTypeByOid(Oid oid);
  std::vector<TableInfo*> AllTables();

  Oid AllocateOid();

  // Abort hook: undo cache effects of DDL performed by `txn`, and expunge
  // the copies its vacuums made in archives it did not create. Runs before
  // `txn` releases its locks, so no other vacuum meets those copies.
  Status OnAbort(TxnId txn);
  // Commit hook, the one step of physical reclaim: destroy the relations
  // `txn` dropped, then expunge the versions it vacuumed and walk each index
  // of their tables once, dropping every entry whose TID names no surviving
  // version with the entry's key and every repeat of the entry before it.
  // Runs after the commit record is durable, so no page that lost a version
  // can reach disk before the archive holding it is committed, and before
  // `txn` releases its locks, so no writer sees a table half reclaimed.
  // Returns the first reclaim error; the commit stands regardless.
  Status OnCommit(TxnId txn);

  Heap* pg_class() { return pg_class_->heap.get(); }

  TxnManager* txns() { return txns_; }
  BufferPool* pool() { return pool_; }
  DeviceSwitch* devices() { return devices_; }

 private:
  // Insert the pg_class/pg_attribute rows describing `info`. The helpers run
  // under mu_ (they read and mutate the schema cache mid-DDL).
  Status InsertTableRows(TxnId txn, const TableInfo& info) REQUIRES(mu_);
  Result<TableInfo*> MakeCachedTable(Oid oid, const std::string& name, Schema schema,
                                     DeviceId device, RelKind kind) REQUIRES(mu_);
  Status PhysicallyCreate(Oid oid, DeviceId device) REQUIRES(mu_);
  // Frees `oid`'s cached pages, its device relation and its binding.
  void DestroyStorage(Oid oid) REQUIRES(mu_);
  // Caches the five catalogs (fixed oids and schemas, on the default device),
  // as Bootstrap creates them and Load reads them.
  Result<std::array<TableInfo*, 5>> CacheCatalogs() REQUIRES(mu_);
  void NoteCreated(TxnId txn, Oid oid) REQUIRES(mu_);

  DeviceSwitch* devices_;
  BufferPool* pool_;
  TxnManager* txns_;

  Mutex mu_;
  Oid next_oid_ GUARDED_BY(mu_) = kFirstUserOid;
  std::map<Oid, std::unique_ptr<TableInfo>> tables_ GUARDED_BY(mu_);
  std::map<std::string, Oid> table_names_ GUARDED_BY(mu_);
  std::map<Oid, std::unique_ptr<IndexInfo>> indexes_ GUARDED_BY(mu_);
  std::map<std::string, ProcInfo> procs_ GUARDED_BY(mu_);
  std::map<std::string, TypeInfo> types_ GUARDED_BY(mu_);
  std::map<TxnId, std::vector<Oid>> created_by_txn_ GUARDED_BY(mu_);
  std::map<TxnId, std::vector<Oid>> dropped_by_txn_ GUARDED_BY(mu_);
  std::map<TxnId, std::vector<Reclaim>> vacuumed_by_txn_ GUARDED_BY(mu_);

  TableInfo* pg_class_ = nullptr;
  TableInfo* pg_attribute_ = nullptr;
  TableInfo* pg_type_ = nullptr;
  TableInfo* pg_proc_ = nullptr;
  TableInfo* pg_index_ = nullptr;
};

}  // namespace invfs

// Crash safety of vacuum. The paper promises recovery with no fsck: a halt
// anywhere leaves an image that opens as it is, with every committed version
// readable. Vacuum moves versions between relations, so it is where that
// promise is easiest to break. These tests halt the image before each device
// write of a vacuum, its commit and the flush after it, reopen the frozen
// image and read every version back; a control run halts a plain overwrite
// the same way. The last tests show vacuum clearing the index residue halted
// inserts strand.

#include <gtest/gtest.h>

#include <array>

#include "src/fault/switch_entry.h"
#include "src/harness/worlds.h"
#include "src/vacuum/vacuum.h"
#include "tests/heap_rows.h"

namespace invfs {
namespace {

constexpr char kPath[] = "/f";
constexpr size_t kFileBytes = 48 << 10;
constexpr int kVersions = 3;

// Version `v` of the file: distinct bytes in every chunk.
std::string Contents(int v) {
  std::string s(kFileBytes, '\0');
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<char>((i * 31 + static_cast<size_t>(v) * 97) % 251);
  }
  return s;
}

Status WriteVersion(InvSession& s, int v) {
  const std::string data = Contents(v);
  INV_RETURN_IF_ERROR(s.p_begin());
  INV_ASSIGN_OR_RETURN(int fd, v == 0 ? s.p_creat(kPath) : s.p_open(kPath, OpenMode::kWrite));
  INV_RETURN_IF_ERROR(s.p_write(fd, std::as_bytes(std::span(data))).status());
  INV_RETURN_IF_ERROR(s.p_close(fd));
  return s.p_commit();
}

Result<std::string> ReadAll(InvSession& s, Timestamp as_of) {
  INV_ASSIGN_OR_RETURN(int fd, s.p_open(kPath, OpenMode::kRead, as_of));
  std::string out(kFileBytes + 1, '\0');
  INV_ASSIGN_OR_RETURN(int64_t n, s.p_read(fd, std::as_writable_bytes(std::span(out))));
  INV_RETURN_IF_ERROR(s.p_close(fd));
  out.resize(static_cast<size_t>(n));
  return out;
}

// The finale run after the committed versions: vacuum, or (the control) one
// more overwrite.
enum class Finale { kVacuum, kOverwrite };

struct Probe {
  uint64_t writes = 0;  // device writes the finale made (recording run)
  std::string failure;  // "" when the run passed its oracle
};

// Writes kVersions committed versions of kPath and flushes them, then arms a
// halt before device write `halt_at` of the finale (0: none) and runs it: the
// finale in one transaction, its commit, and a flush. Then it reopens the
// image as it froze and judges it: Database::Open succeeds, invfs_check finds
// at most crash residue, the current read is the last committed version and
// every as-of read is byte-exact.
Probe Run(Finale finale, uint64_t halt_at) {
  Probe probe;
  auto fail = [&probe](const std::string& what) {
    probe.failure = what;
    return probe;
  };
  FaultInjector injector;
  WorldOptions wopt;
  wopt.db.fault_injector = &injector;
  auto world_or = InversionWorld::Create(wopt);
  if (!world_or.ok()) {
    return fail("setup: " + world_or.status().ToString());
  }
  std::unique_ptr<InversionWorld> world = std::move(*world_or);
  InvSession& s = world->session();
  std::array<Timestamp, kVersions> committed{};
  for (int v = 0; v < kVersions; ++v) {
    if (Status st = WriteVersion(s, v); !st.ok()) {
      return fail("version " + std::to_string(v) + ": " + st.ToString());
    }
    committed[v] = world->db().Now();
  }
  if (Status st = world->db().FlushCaches(); !st.ok()) {
    return fail("flush: " + st.ToString());
  }

  injector.Arm({});
  if (halt_at != 0) {
    injector.ArmOne({.kind = FaultSpec::Kind::kCrash,
                     .op = FaultSpec::Op::kWrite,
                     .at = halt_at});
  }
  bool acked = false;  // the finale's commit returned before any halt
  Status st = [&]() -> Status {
    if (finale == Finale::kOverwrite) {
      INV_RETURN_IF_ERROR(WriteVersion(s, kVersions));
    } else {
      INV_ASSIGN_OR_RETURN(TxnId txn, world->db().Begin());
      INV_RETURN_IF_ERROR(world->fs().Vacuum(txn).status());
      INV_RETURN_IF_ERROR(world->db().Commit(txn));
    }
    acked = !injector.crashed();
    return world->db().FlushCaches();
  }();
  probe.writes = injector.writes_since_arm();
  injector.Disarm();
  if (!injector.crashed() && !st.ok()) {
    return fail("finale failed with no halt: " + st.ToString());
  }

  // Take the stores out of the frozen world and reopen them.
  StorageEnv env;
  std::swap(env.disk_store, world->env().disk_store);
  std::swap(env.nvram_store, world->env().nvram_store);
  std::swap(env.jukebox_store, world->env().jukebox_store);
  env.clock.Advance(world->env().clock.Peek());
  world->db().Crash();
  world.reset();
  auto db = Database::Open(&env);
  if (!db.ok()) {
    return fail("recovery: " + db.status().ToString());
  }
  auto check = CheckImage(env);
  if (!check.ok()) {
    return fail("invfs_check: " + check.status().ToString());
  }
  if (!check->OnlyResidue()) {
    return fail("invfs_check: " + check->violations.front().ToString());
  }
  InversionFs fs(db->get());
  if (Status ms = fs.Mount(); !ms.ok()) {
    return fail("mount: " + ms.ToString());
  }
  auto session = fs.NewSession();
  if (!session.ok()) {
    return fail("session: " + session.status().ToString());
  }
  auto current = ReadAll(**session, kTimestampNow);
  if (!current.ok()) {
    return fail("current read: " + current.status().ToString());
  }
  // A halted overwrite may land or not, unless its commit was acked.
  const bool landed = *current == Contents(kVersions);
  const bool legal = finale == Finale::kOverwrite
                         ? landed || (!acked && *current == Contents(kVersions - 1))
                         : *current == Contents(kVersions - 1);
  if (!legal) {
    return fail("current read returned " + std::to_string(current->size()) +
                " bytes of the wrong version");
  }
  for (int v = 0; v < kVersions; ++v) {
    auto old = ReadAll(**session, committed[v]);
    if (!old.ok()) {
      return fail("as-of read of version " + std::to_string(v) + ": " +
                  old.status().ToString());
    }
    if (*old != Contents(v)) {
      return fail("as-of read of version " + std::to_string(v) + " returned " +
                  std::to_string(old->size()) + " wrong bytes");
    }
  }
  return probe;
}

void SweepEveryWrite(Finale finale) {
  const Probe recorded = Run(finale, 0);
  ASSERT_EQ(recorded.failure, "");
  ASSERT_GT(recorded.writes, 0u);
  ::testing::Test::RecordProperty("schedules", std::to_string(recorded.writes));
  int failed = 0;
  for (uint64_t at = 1; at <= recorded.writes; ++at) {
    const Probe p = Run(finale, at);
    if (!p.failure.empty()) {
      ++failed;
      ADD_FAILURE() << "halt before write " << at << " of " << recorded.writes
                    << ": " << p.failure;
    }
  }
  EXPECT_EQ(failed, 0) << "of " << recorded.writes << " schedules";
}

TEST(VacuumCrashTest, HaltBeforeEveryVacuumWriteLosesNoVersion) {
  SweepEveryWrite(Finale::kVacuum);
}

TEST(VacuumCrashTest, ControlHaltBeforeEveryOverwriteWrite) {
  SweepEveryWrite(Finale::kOverwrite);
}

// A row too big to share a page: each goes to a new block.
Row BigRow(int k) { return {Value::Int4(k), Value::Text(std::string(7000, 'x'))}; }

// Table "t" (k, v) indexed on k, with four small committed rows flushed,
// then a halted transaction that inserted a big row per key of `halted`:
// the index flushed their entries at once, the heap pages wait for a commit
// that never comes. Returns the reopened database.
std::unique_ptr<Database> TableWithHaltedInserts(StorageEnv& env,
                                                 std::initializer_list<int> halted) {
  auto db = Database::Open(&env);
  EXPECT_TRUE(db.ok());
  auto txn = (*db)->Begin();
  auto table = (*db)->catalog().CreateTable(
      *txn, "t", Schema{{"k", TypeId::kInt4}, {"v", TypeId::kText}}, kDeviceMagneticDisk);
  EXPECT_TRUE(table.ok());
  EXPECT_TRUE((*db)->catalog().CreateIndex(*txn, *table, {0}).ok());
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE((*db)->InsertRow(*txn, *table, {Value::Int4(k), Value::Text("v")}).ok());
  }
  EXPECT_TRUE((*db)->Commit(*txn).ok());
  EXPECT_TRUE((*db)->FlushCaches().ok());
  auto doomed = (*db)->Begin();
  for (int k : halted) {
    EXPECT_TRUE((*db)->InsertRow(*doomed, *table, BigRow(k)).ok());
  }
  (*db)->Crash();
  db = Database::Open(&env);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

// Deletes the k=0 row, so the vacuum has a version to reclaim and walks the
// index, then vacuums "t", flushes, and expects a clean image whose index
// holds one entry per surviving version, `versions` of them.
void VacuumAndExpectClean(StorageEnv& env, Database& db, uint64_t versions) {
  auto table = db.catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  auto del = db.Begin();
  const TidList zero = *(*table)->indexes.front()->btree->Lookup(EncodeInt4Key(0));
  ASSERT_EQ(zero.size(), 1u);
  ASSERT_TRUE(db.DeleteRow(*del, *table, zero[0]).ok());
  ASSERT_TRUE(db.Commit(*del).ok());
  VacuumCleaner vacuum(&db);
  auto txn = db.Begin();
  ASSERT_TRUE(vacuum.VacuumTable(*txn, *table).ok());
  ASSERT_TRUE(db.Commit(*txn).ok());
  ASSERT_TRUE(db.FlushCaches().ok());
  auto after = CheckImage(env);
  ASSERT_TRUE(after.ok());
  for (const Violation& v : after->violations) {
    ADD_FAILURE() << v.ToString();
  }
  auto stored = HeapRows(*(*table)->heap);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->size(), versions);
  EXPECT_EQ(*(*table)->indexes.front()->btree->CountEntries(), versions);
}

// The entry a halted insert leaves past the heap's persisted end is crash
// residue the checker tolerates; the index walk of a vacuum that reclaims a
// version drops it.
TEST(VacuumCrashTest, VacuumDropsIndexResidue) {
  StorageEnv env;
  std::unique_ptr<Database> db = TableWithHaltedInserts(env, {9});
  auto before = CheckImage(env);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->violations.empty()) << "the halted insert left no residue";
  EXPECT_TRUE(before->OnlyResidue());
  VacuumAndExpectClean(env, *db, 3);
}

// Later inserts take the slots the residue entries name: one with the same
// key, which the index then holds twice, and one with another key. The walk
// keeps one entry for the first and none for the stale key.
TEST(VacuumCrashTest, VacuumDropsResidueOnSlotsALaterInsertTook) {
  StorageEnv env;
  std::unique_ptr<Database> db = TableWithHaltedInserts(env, {9, 10});
  auto table = db->catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  BTree& index = *(*table)->indexes.front()->btree;
  auto lookup = [&index](int k) {
    const TidList found = *index.Lookup(EncodeInt4Key(k));
    return std::vector<Tid>(found.begin(), found.end());
  };
  const std::vector<Tid> stale = lookup(10);
  ASSERT_EQ(stale.size(), 1u);
  auto txn = db->Begin();
  auto same_key = db->InsertRow(*txn, *table, BigRow(9));
  auto other_key = db->InsertRow(*txn, *table, BigRow(11));
  ASSERT_TRUE(same_key.ok() && other_key.ok());
  ASSERT_TRUE(db->Commit(*txn).ok());
  ASSERT_EQ(lookup(9), (std::vector<Tid>{*same_key, *same_key}));
  ASSERT_EQ(*other_key, stale[0]);

  VacuumAndExpectClean(env, *db, 5);
  EXPECT_EQ(lookup(9), std::vector<Tid>{*same_key});
  EXPECT_TRUE(lookup(10).empty());
  EXPECT_EQ(lookup(11), std::vector<Tid>{*other_key});
}

}  // namespace
}  // namespace invfs

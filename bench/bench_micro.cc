// google-benchmark microbenchmarks of the engine itself: real CPU throughput
// of the hot paths (everything else in bench/ reports simulated 1993 time).

#include <benchmark/benchmark.h>

#include "src/access/btree.h"
#include "src/buffer/buffer_pool.h"
#include "src/harness/worlds.h"
#include "src/obs/span.h"
#include "src/storage/page.h"
#include "src/util/alloc_counter.h"
#include "src/util/lzss.h"
#include "src/util/random.h"

namespace invfs {
namespace {

void BM_TupleEncodeDecode(benchmark::State& state) {
  Schema schema{{"chunkno", TypeId::kInt4},
                {"data", TypeId::kBytea},
                {"selfid", TypeId::kInt8},
                {"rawlen", TypeId::kInt4}};
  Row row{Value::Int4(7), Value::Bytes(Blob(kInvChunkSize, std::byte{0x3C})),
          Value::Int8(123456789), Value::Null()};
  for (auto s : state) {
    auto encoded = EncodeTuple(schema, row, TupleMeta{0, 2, 0});
    benchmark::DoNotOptimize(encoded);
    auto decoded = DecodeTuple(schema, *encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInvChunkSize);
}
BENCHMARK(BM_TupleEncodeDecode);

void BM_BtreeInsertLookup(benchmark::State& state) {
  StorageEnv env;
  auto db = Database::Open(&env);
  auto txn = (*db)->Begin();
  auto table = (*db)->catalog().CreateTable(
      *txn, "t", Schema{{"k", TypeId::kInt4}}, kDeviceMagneticDisk);
  auto index = (*db)->catalog().CreateIndex(*txn, *table, {0});
  int32_t key = 0;
  for (auto s : state) {
    (void)(*index)->btree->Insert(EncodeInt4Key(key), Tid{0, static_cast<uint16_t>(0)});
    auto hits = (*index)->btree->Lookup(EncodeInt4Key(key / 2));
    benchmark::DoNotOptimize(hits);
    ++key;
  }
}
BENCHMARK(BM_BtreeInsertLookup);

// One warm Int4 leaf of 450 entries, nearly full (an Int4 leaf holds 453):
// the tree is just its root, so each operation pins the meta page and the
// leaf and spends the rest searching or editing the leaf's bytes. Even keys
// are stored, so an odd key inserts mid-leaf. The benchmark's argument is the
// tree's key width: 0 walks the leaf's entries, 4 bisects it as an array.
struct WarmLeaf {
  static constexpr int32_t kEntries = 450;
  SimClock clock;
  MemBlockStore store;
  DeviceSwitch sw;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<BTree> tree;

  bool Build(size_t key_width) {
    sw.Register(kDeviceMagneticDisk, std::make_unique<MagneticDiskDevice>(
                                         &store, &clock, DiskParams{}));
    sw.BindRelation(1, kDeviceMagneticDisk);
    pool = std::make_unique<BufferPool>(&sw, 8, &clock);
    if (!sw.Get(kDeviceMagneticDisk)->CreateRelation(1).ok()) {
      return false;
    }
    auto created = BTree::Create(1, pool.get(), key_width);
    if (!created.ok()) {
      return false;
    }
    tree = std::move(*created);
    for (int32_t k = 0; k < kEntries; ++k) {
      if (!tree->Insert(EncodeInt4Key(2 * k), Tid{static_cast<uint32_t>(k), 0}).ok()) {
        return false;
      }
    }
    auto count = tree->CountEntries();
    return count.ok() && *count == kEntries;
  }
};

void BM_BtreeLeafLookup(benchmark::State& state) {
  WarmLeaf leaf;
  if (!leaf.Build(static_cast<size_t>(state.range(0)))) {
    state.SkipWithError("leaf setup failed");
    return;
  }
  std::vector<BtreeKey> probes;
  Rng rng(7);
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(EncodeInt4Key(static_cast<int32_t>(2 * rng.Uniform(WarmLeaf::kEntries))));
  }
  size_t i = 0;
  for (auto s : state) {
    auto tids = leaf.tree->Lookup(probes[i++ & 1023]);
    benchmark::DoNotOptimize(tids);
  }
}
BENCHMARK(BM_BtreeLeafLookup)->Arg(0)->Arg(4);

void BM_BtreeLeafInsertRemove(benchmark::State& state) {
  WarmLeaf leaf;
  if (!leaf.Build(static_cast<size_t>(state.range(0)))) {
    state.SkipWithError("leaf setup failed");
    return;
  }
  std::vector<BtreeKey> keys;
  Rng rng(8);
  for (int i = 0; i < 1024; ++i) {
    keys.push_back(EncodeInt4Key(static_cast<int32_t>(2 * rng.Uniform(WarmLeaf::kEntries) + 1)));
  }
  size_t i = 0;
  for (auto s : state) {
    const BtreeKey& key = keys[i++ & 1023];
    if (!leaf.tree->Insert(key, Tid{0, 1}).ok() || !leaf.tree->Remove(key, Tid{0, 1}).ok()) {
      state.SkipWithError("insert/remove failed");
      return;
    }
  }
}
BENCHMARK(BM_BtreeLeafInsertRemove)->Arg(0)->Arg(4);

void BM_LzssRoundtrip(benchmark::State& state) {
  std::string text;
  while (text.size() < kInvChunkSize) {
    text += "the quick brown fox jumps over the lazy dog ";
  }
  std::span<const std::byte> input =
      std::as_bytes(std::span(text.data(), kInvChunkSize));
  for (auto s : state) {
    auto packed = LzssCompress(input);
    benchmark::DoNotOptimize(packed);
    auto raw = LzssDecompress(packed, kInvChunkSize);
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInvChunkSize);
}
BENCHMARK(BM_LzssRoundtrip);

void BM_FileWriteRead(benchmark::State& state) {
  WorldOptions options;
  auto world = InversionWorld::Create(options);
  FileApi& api = (*world)->local_api();
  (void)api.Begin();
  auto fd = api.Creat("/micro.dat");
  std::vector<std::byte> buf(kInvChunkSize, std::byte{0x21});
  for (auto s : state) {
    (void)api.Seek(*fd, 0, Whence::kSet);
    (void)api.Write(*fd, buf);
    (void)api.Seek(*fd, 0, Whence::kSet);
    (void)api.Read(*fd, buf);
  }
  (void)api.Close(*fd);
  (void)api.Commit();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          kInvChunkSize);
}
BENCHMARK(BM_FileWriteRead);

// One warm 8 KB p_read of a committed chunk through a read-only fd (no write
// buffer): B-tree probe, heap page visit and the one copy into the caller's
// buffer. Arg 0 reads the current version, arg 1 the first version as of its
// commit. Not gated; scripts/check.sh metrics prints its median, so a copy
// that creeps back into the read path shows here before it shows in
// perfbench.
void BM_ChunkRead(benchmark::State& state) {
  auto world = InversionWorld::Create(WorldOptions{});
  if (!world.ok()) {
    state.SkipWithError("world setup failed");
    return;
  }
  InvSession& session = (*world)->session();
  std::vector<std::byte> buf(kInvChunkSize);
  Timestamp first = kTimestampNow;
  for (uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    std::fill(buf.begin(), buf.end(), std::byte{version});
    auto fd = version == 1 ? session.p_creat("/chunk.dat")
                           : session.p_open("/chunk.dat", OpenMode::kWrite);
    if (!fd.ok() || !session.p_write(*fd, buf).ok() || !session.p_close(*fd).ok()) {
      state.SkipWithError("chunk setup failed");
      return;
    }
    if (version == 1) {
      first = (*world)->db().Now();
    }
  }
  const Timestamp as_of = state.range(0) == 0 ? kTimestampNow : first;
  auto fd = session.p_open("/chunk.dat", OpenMode::kRead, as_of);
  if (!fd.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  const uint64_t allocs_before = ThreadHeapAllocations();
  for (auto s : state) {
    (void)session.p_lseek(*fd, 0, Whence::kSet);
    auto n = session.p_read(*fd, buf);
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  // Heap allocations per read (0 once warm; scripts/check.sh metrics prints
  // it). The first iterations include the span ring's first wrap.
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(ThreadHeapAllocations() - allocs_before),
      benchmark::Counter::kAvgIterations);
  if (buf[0] != std::byte{static_cast<uint8_t>(state.range(0) == 0 ? 2 : 1)}) {
    state.SkipWithError("read the wrong version");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInvChunkSize);
}
BENCHMARK(BM_ChunkRead)->Arg(0)->Arg(1);

// Tight buffer-pool hit loop: the hottest instrumented path in the engine.
// scripts/check.sh's metrics leg diffs this against an INVFS_NO_METRICS build
// to bound the counter/trace overhead on the hit path (~5% budget).
void BM_BufferHit(benchmark::State& state) {
  SimClock clock;
  MemBlockStore store;
  DeviceSwitch sw;
  sw.Register(kDeviceMagneticDisk, std::make_unique<MagneticDiskDevice>(
                                       &store, &clock, DiskParams{}));
  (void)sw.Get(kDeviceMagneticDisk)->CreateRelation(1);
  sw.BindRelation(1, kDeviceMagneticDisk);
  BufferPool pool(&sw, 8, &clock);
  uint32_t block = 0;
  {
    auto ref = pool.Extend(1, &block);
    if (!ref.ok()) {
      state.SkipWithError("extend failed");
      return;
    }
  }
  for (auto s : state) {
    auto ref = pool.Pin(1, 0);
    benchmark::DoNotOptimize(ref);
  }
  state.counters["hits"] = static_cast<double>(pool.hits());
}
BENCHMARK(BM_BufferHit);

// Raw cost of one span begin/end pair: two trace-clock reads (one rdtsc each
// on an invariant-TSC host), the TLS context save and restore, two id
// draws and the ring slot's ten relaxed payload stores. Not gated — the gated
// numbers are BM_BufferHit and BM_FileWriteRead — but scripts/check.sh
// metrics prints its median, and it sizes new instrumentation points.
// Steady-state recording only: spans go in batches that fill a fresh ring
// exactly, swapped while timing is paused, so no record pays the overwrite
// path (SpanRing::CountDrop); the `dropped` counter reads 0.
void BM_ScopedSpan(benchmark::State& state) {
  auto ring = std::make_unique<SpanRing>();
  size_t left = ring->capacity();
  uint64_t dropped = 0;
  for (auto s : state) {
    if (left == 0) {
      state.PauseTiming();
      dropped += ring->TotalDropped();
      ring = std::make_unique<SpanRing>();
      left = ring->capacity();
      state.ResumeTiming();
    }
    --left;
    ScopedSpan span(ring.get(), "bench.span", 1, 2);
    benchmark::DoNotOptimize(span);
  }
  state.counters["dropped"] = static_cast<double>(dropped + ring->TotalDropped());
}
BENCHMARK(BM_ScopedSpan);

// Stamp plus verify of one full 8 KB frame: the CRC32C every device write
// and every buffer miss pays. Not gated, but a slower checksum kernel shows
// here before it shows in perfbench.
void BM_PageChecksum(benchmark::State& state) {
  std::vector<std::byte> frame(kPageSize);
  Page page(frame.data());
  page.Init(/*rel=*/7, /*block=*/3);
  std::vector<std::byte> tuple(kPageSize / 2, std::byte{0x5A});
  (void)page.AddTuple(tuple);
  for (auto s : state) {
    page.UpdateChecksum();
    benchmark::DoNotOptimize(page.frame());
    benchmark::ClobberMemory();
    Status ok = page.VerifyChecksum();
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 * kPageSize);
}
BENCHMARK(BM_PageChecksum);

void BM_PostquelParseExecute(benchmark::State& state) {
  WorldOptions options;
  auto world = InversionWorld::Create(options);
  auto session = (*world)->fs().NewSession();
  for (auto s : state) {
    auto rs = (*session)->Query(
        "retrieve (n.filename, n.file) from n in naming where n.parentid = 0");
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_PostquelParseExecute);

}  // namespace
}  // namespace invfs

BENCHMARK_MAIN();

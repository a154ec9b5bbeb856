// Unit tests for the observability layer: counter/gauge/histogram semantics
// (including percentiles), registry snapshots and dumps, the trace and span
// rings (including wrap-around), ScopedSpan context propagation, and the
// end-to-end span shape of an RPC write.

#include <gtest/gtest.h>

#include <barrier>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/harness/worlds.h"
#include "src/net/rpc.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/obs/trace.h"

namespace invfs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  // Everything huge lands in the final bucket rather than overflowing.
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(HistogramTest, CountSumMeanAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 6u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.0);
  auto buckets = h.Buckets();
  EXPECT_EQ(buckets[0], 1u);  // the 0
  EXPECT_EQ(buckets[1], 1u);  // the 1
  EXPECT_EQ(buckets[3], 1u);  // the 5 (in [4,8))
}

TEST(HistogramTest, PercentileOnEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.999), 0u);
}

TEST(HistogramTest, PercentileReturnsBucketUpperBounds) {
  Histogram h;
  // 90 fast observations and 10 slow ones. The percentile is a conservative
  // upper bound: the top edge of the first bucket covering the target rank.
  for (int i = 0; i < 90; ++i) {
    h.Observe(3);  // bucket [2,4) -> upper bound 3
  }
  for (int i = 0; i < 10; ++i) {
    h.Observe(1000);  // bucket [512,1024) -> upper bound 1023
  }
  EXPECT_EQ(h.Percentile(0.5), 3u);
  EXPECT_EQ(h.Percentile(0.90), 3u);
  EXPECT_EQ(h.Percentile(0.99), 1023u);
  EXPECT_EQ(h.Percentile(0.999), 1023u);
  // Degenerate p values clamp to the first / last observation's bucket.
  EXPECT_EQ(h.Percentile(0.0), 3u);
  EXPECT_EQ(h.Percentile(1.0), 1023u);
}

TEST(SloTest, EmptyHistogramYieldsNoDataVerdict) {
  // An op class with zero observations must not fabricate a passing (or
  // failing) latency report out of Percentile's empty-histogram 0: the
  // verdict is "no data", distinct from "ok".
  MetricsRegistry reg;
  auto reports = EvaluateSlos(&reg, {{"p_read", 500, 5000, 20000}});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].count, 0u);
  EXPECT_EQ(reports[0].p50_us, 0u);
  EXPECT_EQ(reports[0].p999_us, 0u);
  EXPECT_TRUE(reports[0].ok) << "no observations is not evidence of violation";
  EXPECT_STREQ(SloVerdict(reports[0]), "no data");
}

TEST(SloTest, ExercisedClassYieldsOkOrViolated) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("op.latency_us", "p_read");
  for (int i = 0; i < 100; ++i) {
    h->Observe(100);
  }
  auto within = EvaluateSlos(&reg, {{"p_read", 500, 5000, 20000}});
  ASSERT_EQ(within.size(), 1u);
  EXPECT_GT(within[0].count, 0u);
  EXPECT_STREQ(SloVerdict(within[0]), "ok");

  auto beyond = EvaluateSlos(&reg, {{"p_read", 10, 10, 10}});
  ASSERT_EQ(beyond.size(), 1u);
  EXPECT_FALSE(beyond[0].ok);
  EXPECT_STREQ(SloVerdict(beyond[0]), "VIOLATED");
}

TEST(HistogramTest, PercentileOfSingleObservation) {
  Histogram h;
  h.Observe(0);
  // Bucket 0 holds exact zeros, so its upper bound is 0.
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.999), 0u);
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  // Distinct labels are distinct metrics.
  Counter* l1 = reg.GetCounter("x", "one");
  Counter* l2 = reg.GetCounter("x", "two");
  EXPECT_NE(l1, l2);
  EXPECT_NE(a, l1);
  // Kinds live in separate namespaces keyed by (name, label).
  Gauge* g = reg.GetGauge("x");
  Histogram* h = reg.GetHistogram("x");
  EXPECT_NE(static_cast<void*>(g), static_cast<void*>(a));
  EXPECT_NE(static_cast<void*>(h), static_cast<void*>(a));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("b.counter")->Add(2);
  reg.GetGauge("a.gauge")->Set(-5);
  reg.GetHistogram("c.hist")->Observe(16);
  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[0].value, -5);
  EXPECT_EQ(snap[1].name, "b.counter");
  EXPECT_EQ(snap[1].value, 2);
  EXPECT_EQ(snap[2].name, "c.hist");
  EXPECT_EQ(snap[2].count, 1u);
  EXPECT_EQ(snap[2].sum, 16u);
}

TEST(MetricsRegistryTest, DumpTextAndJsonContainMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("buffer.hits")->Add(7);
  reg.GetHistogram("log.flush_us", "disk")->Observe(100);
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("buffer.hits"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  EXPECT_NE(text.find("log.flush_us{disk}"), std::string::npos);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"name\": \"buffer.hits\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(TraceRingTest, RecordsInOrder) {
  TraceRing ring;
  ring.Record(TraceEvent::kTxnBegin, 10);
  ring.Record(TraceEvent::kTxnCommit, 10, 2);
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].event, TraceEvent::kTxnBegin);
  EXPECT_EQ(snap[0].a, 10u);
  EXPECT_EQ(snap[1].event, TraceEvent::kTxnCommit);
  EXPECT_EQ(snap[1].b, 2u);
  EXPECT_LT(snap[0].seq, snap[1].seq);
  EXPECT_EQ(ring.TotalRecorded(), 2u);
}

TEST(TraceRingTest, WrapKeepsOnlyTheNewest) {
  TraceRing ring;
  const size_t n = TraceRing::kDefaultCapacity + 100;
  for (size_t i = 0; i < n; ++i) {
    ring.Record(TraceEvent::kPageMiss, i);
  }
  auto snap = ring.Snapshot();
  EXPECT_EQ(snap.size(), TraceRing::kDefaultCapacity);
  EXPECT_EQ(ring.TotalRecorded(), n);
  // The survivors are the newest capacity() records, still in seq order.
  EXPECT_EQ(snap.front().a, n - TraceRing::kDefaultCapacity);
  EXPECT_EQ(snap.back().a, n - 1);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].seq, snap[i].seq);
  }
}

TEST(TraceRingTest, WrapCountsDrops) {
  TraceRing ring(128);
  for (size_t i = 0; i < 128; ++i) {
    ring.Record(TraceEvent::kPageMiss, i);
  }
  // Exactly full: nothing has been overwritten yet.
  EXPECT_EQ(ring.TotalDropped(), 0u);
  for (size_t i = 0; i < 50; ++i) {
    ring.Record(TraceEvent::kPageMiss, 128 + i);
  }
  EXPECT_EQ(ring.TotalDropped(), 50u);
  EXPECT_EQ(ring.TotalRecorded(), 178u);
}

TEST(TraceRingTest, CapacityIsConfigurableAndRoundedToPow2) {
  TraceRing ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
  for (size_t i = 0; i < 200; ++i) {
    ring.Record(TraceEvent::kPageMiss, i);
  }
  auto snap = ring.Snapshot();
  EXPECT_EQ(snap.size(), 128u);
  EXPECT_EQ(snap.back().a, 199u);
}

TEST(TraceEventTest, NamesAreStable) {
  EXPECT_STREQ(TraceEventName(TraceEvent::kTxnBegin), "txn.begin");
  EXPECT_STREQ(TraceEventName(TraceEvent::kPageMiss), "page.miss");
  EXPECT_STREQ(TraceEventName(TraceEvent::kGroupCommitFlush), "log.flush");
  EXPECT_STREQ(TraceEventName(TraceEvent::kDeviceRetry), "device.retry");
  EXPECT_STREQ(TraceEventName(TraceEvent::kDeviceReadOnlyTrip),
               "device.read_only_trip");
  EXPECT_STREQ(TraceEventName(TraceEvent::kLogPoisoned), "log.poisoned");
}

TEST(MetricsRegistryTest, DumpsRenderHistogramPercentiles) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("op.latency_us", "p_read");
  for (int i = 0; i < 95; ++i) {
    h->Observe(3);
  }
  for (int i = 0; i < 5; ++i) {
    h->Observe(1000);
  }
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("p50=3"), std::string::npos);
  EXPECT_NE(text.find("p99=1023"), std::string::npos);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"p50\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 1023"), std::string::npos);
  EXPECT_NE(json.find("\"p999\": 1023"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": "), std::string::npos);
  EXPECT_NE(json.find("\"mean\": "), std::string::npos);
}

TEST(SpanRingTest, RecordsAndWraps) {
  SpanRing ring(128);
  EXPECT_EQ(ring.capacity(), 128u);
  for (uint64_t i = 0; i < 200; ++i) {
    SpanRecord r;
    r.trace_id = 1;
    r.span_id = i + 1;
    r.parent_id = 0;
    r.name = "test.span";
    r.start_micros = i;
    r.dur_micros = 5;
    r.a = i;
    ring.RecordSpan(r);
  }
  EXPECT_EQ(ring.TotalRecorded(), 200u);
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 128u);
  // Survivors are the newest records, in publication order.
  EXPECT_EQ(snap.front().a, 200u - 128u);
  EXPECT_EQ(snap.back().a, 199u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].seq, snap[i].seq);
  }
}

TEST(SpanRingTest, WrapCountsDrops) {
  SpanRing ring(64);
  SpanRecord r;
  r.trace_id = 1;
  r.name = "test.span";
  for (uint64_t i = 0; i < 64; ++i) {
    r.span_id = i + 1;
    ring.RecordSpan(r);
  }
  EXPECT_EQ(ring.TotalDropped(), 0u);
  for (uint64_t i = 0; i < 10; ++i) {
    r.span_id = 100 + i;
    ring.RecordSpan(r);
  }
  EXPECT_EQ(ring.TotalDropped(), 10u);
  EXPECT_EQ(ring.TotalRecorded(), 74u);
}

TEST(ScopedSpanTest, NestingLinksParentAndRestoresContext) {
  SpanRing ring;
  uint64_t outer_trace = 0;
  uint64_t outer_span = 0;
  uint64_t inner_span = 0;
  {
    ScopedSpan outer(&ring, "outer");
    outer_trace = outer.trace_id();
    outer_span = outer.span_id();
    {
      ScopedSpan inner(&ring, "inner", 7, 8);
      inner_span = inner.span_id();
      // Child joins the parent's trace with a fresh span id.
      EXPECT_EQ(inner.trace_id(), outer_trace);
      EXPECT_NE(inner_span, outer_span);
    }
    // After the child ends, a new span sees `outer` as its parent again.
    ScopedSpan sibling(&ring, "sibling");
    EXPECT_EQ(sibling.trace_id(), outer_trace);
  }
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Spans publish at End(), so children land before their parents.
  EXPECT_STREQ(snap[0].name, "inner");
  EXPECT_EQ(snap[0].trace_id, outer_trace);
  EXPECT_EQ(snap[0].parent_id, outer_span);
  EXPECT_EQ(snap[0].a, 7u);
  EXPECT_EQ(snap[0].b, 8u);
  EXPECT_STREQ(snap[1].name, "sibling");
  EXPECT_EQ(snap[1].parent_id, outer_span);
  EXPECT_STREQ(snap[2].name, "outer");
  EXPECT_EQ(snap[2].span_id, outer_span);
  EXPECT_EQ(snap[2].parent_id, 0u);
}

TEST(ScopedSpanTest, SeparateRootsGetSeparateTraces) {
  SpanRing ring;
  uint64_t first_trace = 0;
  {
    ScopedSpan root(&ring, "first");
    first_trace = root.trace_id();
  }
  {
    ScopedSpan root(&ring, "second");
    EXPECT_NE(root.trace_id(), first_trace);
    EXPECT_NE(root.trace_id(), 0u);
  }
}

TEST(ScopedSpanTest, NullRingIsInertAndKeepsContextClean) {
  ScopedSpan outer(nullptr, "noop");
  EXPECT_EQ(outer.trace_id(), 0u);
  EXPECT_EQ(outer.span_id(), 0u);
  // A real span opened next still starts a fresh trace: the no-op span did
  // not leak itself into the thread-local context.
  SpanRing ring;
  {
    ScopedSpan real(&ring, "real");
    EXPECT_NE(real.trace_id(), 0u);
  }
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].parent_id, 0u);
}

TEST(SpanNameInternTest, ReturnsStablePointerPerName) {
  const char* a = InternSpanName("device.read.disk0");
  const char* b = InternSpanName("device.read.disk0");
  const char* c = InternSpanName("device.read.disk1");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_STREQ(a, "device.read.disk0");
}

// End-to-end span shape: an RPC write against a cold cache must produce one
// causally linked tree — the rpc.write root, a p_write child, and (deeper in
// the same trace) a buffer-pool miss and a group-commit flush wait. This is
// the contract --breakdown and the invfs_spans relation rely on.
TEST(SpanShapeTest, RpcWriteTreeLinksBufferMissAndCommitFlush) {
  auto world_or = InversionWorld::Create();
  ASSERT_TRUE(world_or.ok());
  InversionWorld& world = **world_or;

  // Seed a file locally (local p_* spans are roots of other traces and do
  // not collide with the single rpc.write root asserted below).
  InvSession& local = world.session();
  ASSERT_TRUE(local.p_begin().ok());
  auto fd = local.p_creat("/spanned.txt");
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> block(8192, std::byte{0x42});
  ASSERT_TRUE(local.p_write(*fd, block).ok());
  ASSERT_TRUE(local.p_close(*fd).ok());
  ASSERT_TRUE(local.p_commit().ok());

  // Drop every cached page so the remote write's read-modify-write of the
  // existing chunk has to miss the buffer pool and touch the device.
  ASSERT_TRUE(world.db().FlushCaches().ok());

  InversionServer server(&world.fs());
  NetModel net(&world.clock(), NetParams{});
  LoopbackTransport transport(&server, &net);
  RemoteFileClient client(&transport);

  auto rfd = client.p_open("/spanned.txt", OpenMode::kWrite);
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  std::vector<std::byte> patch(16, std::byte{0x7});
  auto n = client.p_write(*rfd, patch);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_TRUE(client.p_close(*rfd).ok());

  const auto snap = world.db().metrics().spans().Snapshot();
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* rpc_write = nullptr;
  for (const SpanRecord& r : snap) {
    by_id[r.span_id] = &r;
    if (r.name != nullptr && std::string_view(r.name) == "rpc.write") {
      ASSERT_EQ(rpc_write, nullptr) << "expected exactly one rpc.write span";
      rpc_write = &r;
    }
  }
  ASSERT_NE(rpc_write, nullptr);
  EXPECT_EQ(rpc_write->parent_id, 0u) << "rpc.write must be a trace root";

  // p_write is a direct child of the RPC root, in the same trace.
  const SpanRecord* p_write = nullptr;
  for (const SpanRecord& r : snap) {
    if (r.name != nullptr && std::string_view(r.name) == "p_write" &&
        r.trace_id == rpc_write->trace_id) {
      p_write = &r;
    }
  }
  ASSERT_NE(p_write, nullptr);
  EXPECT_EQ(p_write->parent_id, rpc_write->span_id);

  // The buffer miss and the group-commit flush wait are descendants of the
  // RPC root: walk parent links back up to it.
  auto is_descendant_of_root = [&](const SpanRecord& r) {
    const SpanRecord* cur = &r;
    for (int hops = 0; hops < 16 && cur != nullptr; ++hops) {
      if (cur->span_id == rpc_write->span_id) {
        return true;
      }
      auto it = by_id.find(cur->parent_id);
      cur = it == by_id.end() ? nullptr : it->second;
    }
    return false;
  };
  bool saw_miss = false;
  bool saw_flush_wait = false;
  for (const SpanRecord& r : snap) {
    if (r.trace_id != rpc_write->trace_id || r.name == nullptr) {
      continue;
    }
    const std::string_view name(r.name);
    if (name == "buffer.miss" && is_descendant_of_root(r)) {
      saw_miss = true;
    }
    if (name == "log.flush.wait" && is_descendant_of_root(r)) {
      saw_flush_wait = true;
    }
  }
  EXPECT_TRUE(saw_miss) << "cold-cache RPC write recorded no buffer.miss span";
  EXPECT_TRUE(saw_flush_wait)
      << "auto-committed RPC write recorded no log.flush.wait span";

  // The shape assertions above only hold if nothing was overwritten: a
  // wrapped ring would silently detach children from evicted parents.
  EXPECT_EQ(world.db().metrics().spans().TotalDropped(), 0u)
      << "span ring wrapped mid-test; the tree walked above is incomplete";
  EXPECT_EQ(world.db().metrics().trace().TotalDropped(), 0u);
}

// Four threads record span trees and trace events into one registry at once.
// Rings and ids are handed out in per-thread blocks, so this pins the
// contracts that must survive that: totals are exact, ids are unique across
// threads, and every span of one request links to its parent. The rings are
// sized so nothing wraps, which makes the final snapshot complete.
TEST(SpanRingTest, ThreadsKeepTotalsIdsAndParentLinks) {
  constexpr int kThreads = 4;
  constexpr int kRequests = 500;  // three spans and one trace event each
  MetricsRegistry reg(/*trace_capacity=*/1 << 13, /*span_capacity=*/1 << 14);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kRequests; ++i) {
        ScopedSpan root(&reg.spans(), "mt.root");
        {
          ScopedSpan child(&reg.spans(), "mt.child", root.span_id());
          ScopedSpan leaf(&reg.spans(), "mt.leaf", root.span_id());
          leaf.set_b(child.span_id());
        }
        reg.trace().Record(TraceEvent::kTxnBegin, root.trace_id());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const uint64_t spans = uint64_t{kThreads} * kRequests * 3;
  EXPECT_EQ(reg.spans().TotalRecorded(), spans);
  EXPECT_EQ(reg.trace().TotalRecorded(), uint64_t{kThreads} * kRequests);
  EXPECT_EQ(reg.spans().TotalDropped(), 0u);
  EXPECT_EQ(reg.trace().TotalDropped(), 0u);

  const std::vector<SpanRecord> snap = reg.spans().Snapshot();
  ASSERT_EQ(snap.size(), spans);
  std::set<uint64_t> span_ids;
  std::set<uint64_t> seqs;
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& r : snap) {
    span_ids.insert(r.span_id);
    seqs.insert(r.seq);
    by_id[r.span_id] = &r;
  }
  EXPECT_EQ(span_ids.size(), spans) << "span ids repeat across threads";
  EXPECT_EQ(seqs.size(), spans) << "ring sequence numbers repeat";

  std::set<uint64_t> trace_ids;
  for (const SpanRecord& r : snap) {
    const std::string_view name(r.name);
    if (name == "mt.root") {
      EXPECT_EQ(r.parent_id, 0u);
      trace_ids.insert(r.trace_id);
      continue;
    }
    // a = the root's span id; the leaf's b = its parent (the child).
    const uint64_t parent_id = name == "mt.child" ? r.a : r.b;
    EXPECT_EQ(r.parent_id, parent_id) << name;
    auto parent = by_id.find(r.parent_id);
    ASSERT_NE(parent, by_id.end()) << name << " lost its parent";
    EXPECT_EQ(parent->second->trace_id, r.trace_id) << name;
    EXPECT_EQ(parent->second->thread, r.thread) << name;
    EXPECT_EQ(by_id.at(r.a)->trace_id, r.trace_id) << name;
  }
  EXPECT_EQ(trace_ids.size(), uint64_t{kThreads} * kRequests)
      << "trace ids repeat across threads";

  std::set<uint64_t> event_seqs;
  for (const TraceRecord& r : reg.trace().Snapshot()) {
    event_seqs.insert(r.seq);
    EXPECT_EQ(trace_ids.count(r.a), 1u);
  }
  EXPECT_EQ(event_seqs.size(), uint64_t{kThreads} * kRequests);
}

// Thread stripes: a live thread owns its stripe (plain stores into its
// cells) and hands it back on exit, and threads that find every stripe held
// share stripe 0 (atomic RMWs). Counts must stay exact across owners coming
// and going, and across owned and shared stripes at once.
TEST(ThreadStripeTest, CountsStayExactAcrossReuseAndTheSharedStripe) {
  Counter counter;
  Histogram hist;
  TraceRing ring(1 << 12);
  constexpr int kSequential = 100;  // far more threads than stripes, in turn
  constexpr int kConcurrent = 40;   // more live threads than stripes
  constexpr int kEach = 50;
  auto work = [&] {
    for (int i = 0; i < kEach; ++i) {
      counter.Add();
      hist.Observe(static_cast<uint64_t>(i));
      ring.Record(TraceEvent::kPageMiss, static_cast<uint64_t>(i));
    }
  };
  for (int t = 0; t < kSequential; ++t) {
    std::thread(work).join();
  }
  std::set<uint32_t> stripes;
  {
    std::barrier all_alive(kConcurrent);
    std::vector<uint32_t> seen(kConcurrent);
    std::vector<std::thread> threads;
    for (int t = 0; t < kConcurrent; ++t) {
      threads.emplace_back([&, t] {
        all_alive.arrive_and_wait();
        seen[static_cast<size_t>(t)] = ThreadStripe();
        work();
        all_alive.arrive_and_wait();  // hold every stripe until all have one
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    size_t shared = 0;
    for (uint32_t s : seen) {
      if (s == 0) {
        ++shared;
      } else {
        EXPECT_TRUE(stripes.insert(s).second) << "two live threads own stripe " << s;
      }
    }
    EXPECT_GT(shared, 0u) << "40 live threads cannot all own one of 31 stripes";
  }
  const uint64_t total = uint64_t{kSequential + kConcurrent} * kEach;
  EXPECT_EQ(counter.Value(), total);
  EXPECT_EQ(hist.Count(), total);
  EXPECT_EQ(ring.TotalRecorded(), total);
  std::set<uint64_t> seqs;
  for (const TraceRecord& r : ring.Snapshot()) {
    EXPECT_TRUE(seqs.insert(r.seq).second) << "seq " << r.seq << " twice";
  }
  // Every stripe came back: a new thread owns one again.
  uint32_t fresh = 0;
  std::thread([&] { fresh = ThreadStripe(); }).join();
  EXPECT_NE(fresh, 0u);
}

}  // namespace
}  // namespace invfs

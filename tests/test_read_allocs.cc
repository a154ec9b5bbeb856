// A warm p_read allocates nothing, and invfs_check copies no chunk. This
// binary links the counting global operator new (src/util/alloc_counter.h),
// so it is its own test: the chunk-index probe, the heap visit and the copy
// into the caller's buffer must all run without one heap allocation once the
// pages are cached, for the current version and for an as-of read that sees
// the older one.

#include <gtest/gtest.h>

#include <vector>

#include "src/check/checker.h"
#include "src/harness/worlds.h"
#include "src/util/alloc_counter.h"

namespace invfs {
namespace {

TEST(ReadAllocations, WarmReadsAllocateNothing) {
  auto world = InversionWorld::Create(WorldOptions{});
  ASSERT_TRUE(world.ok());
  InvSession& session = (*world)->session();
  // Two committed versions of every chunk of a three-chunk file.
  std::vector<std::byte> buf(3 * kInvChunkSize);
  Timestamp first = kTimestampNow;
  for (uint8_t version : {uint8_t{1}, uint8_t{2}}) {
    std::fill(buf.begin(), buf.end(), std::byte{version});
    auto fd = version == 1 ? session.p_creat("/warm.dat")
                           : session.p_open("/warm.dat", OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(session.p_write(*fd, buf).ok());
    ASSERT_TRUE(session.p_close(*fd).ok());
    if (version == 1) {
      first = (*world)->db().Now();
    }
  }

  struct Case {
    const char* name;
    Timestamp as_of;
    std::byte expect;
  };
  for (const Case& c : {Case{"current", kTimestampNow, std::byte{2}},
                        Case{"as-of", first, std::byte{1}}}) {
    auto fd = session.p_open("/warm.dat", OpenMode::kRead, c.as_of);
    ASSERT_TRUE(fd.ok()) << c.name;
    std::vector<std::byte> chunk(kInvChunkSize);
    auto read_all = [&] {
      for (int64_t at = 0; at < 3 * static_cast<int64_t>(kInvChunkSize);
           at += kInvChunkSize) {
        if (!session.p_lseek(*fd, at, Whence::kSet).ok() ||
            !session.p_read(*fd, chunk).ok() || chunk.front() != c.expect ||
            chunk.back() != c.expect) {
          return false;
        }
      }
      return true;
    };
    // Warm-up as long as the measurement: besides caching the pages, it
    // wraps the database's span ring, whose first overwrite lazily creates
    // the process-wide span.dropped counter (set-up, not per-read work).
    constexpr int kPasses = 400;  // 1200 chunk reads
    for (int pass = 0; pass < kPasses; ++pass) {
      ASSERT_TRUE(read_all()) << c.name << ": warm-up";
    }
    const uint64_t before = ThreadHeapAllocations();
    for (int pass = 0; pass < kPasses; ++pass) {
      ASSERT_TRUE(read_all()) << c.name;
    }
    EXPECT_EQ(ThreadHeapAllocations() - before, 0u) << c.name;
    ASSERT_TRUE(session.p_close(*fd).ok());
  }
}

// invfs_check streams each relation, checking chunk records on their column
// views: verifying an image that holds one 4 MB file asks for fewer bytes
// than a quarter of the file, so it copies none of the file's chunks.
TEST(CheckAllocations, CheckerCopiesNoChunkBytes) {
  constexpr size_t kFileBytes = size_t{4} << 20;
  StorageEnv env;
  {
    auto db = Database::Open(&env);
    ASSERT_TRUE(db.ok());
    InversionFs fs(db->get());
    ASSERT_TRUE(fs.Mount().ok());
    auto session = fs.NewSession();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->p_begin().ok());
    auto fd = (*session)->p_creat("/big.dat");
    ASSERT_TRUE(fd.ok());
    const std::vector<std::byte> data(kFileBytes, std::byte{'c'});
    ASSERT_TRUE((*session)->p_write(*fd, data).ok());
    ASSERT_TRUE((*session)->p_close(*fd).ok());
    ASSERT_TRUE((*session)->p_commit().ok());
    ASSERT_TRUE((*db)->FlushCaches().ok());
  }
  const uint64_t before = ThreadHeapBytes();
  auto report = CheckImage(env);
  const uint64_t requested = ThreadHeapBytes() - before;
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_LT(requested, kFileBytes / 4) << requested << " bytes requested";
}

// The counter sees allocations at all: a passing test above is not a
// counter that never moves.
TEST(ReadAllocations, CounterCountsAllocations) {
  const uint64_t before = ThreadHeapAllocations();
  const uint64_t bytes_before = ThreadHeapBytes();
  std::vector<int>* volatile p = new std::vector<int>(100);  // object + buffer
  EXPECT_EQ(ThreadHeapAllocations() - before, 2u);
  EXPECT_GE(ThreadHeapBytes() - bytes_before, 100 * sizeof(int));
  delete p;
}

}  // namespace
}  // namespace invfs

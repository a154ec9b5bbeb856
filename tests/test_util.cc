// Unit tests: Status/Result, PRNG, CRC32C, byte codecs, LZSS, SharedMutex.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>

#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/bytes.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"
#include "src/util/lzss.h"
#include "src/util/mutex.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace invfs {
namespace {

// ---------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("no such thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: no such thing");
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status::IoError("disk on fire");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Doubler(Result<int> in) {
  INV_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Deadlock("x")).status().code(), ErrorCode::kDeadlock);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo && saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------- CRC32C

TEST(Crc32c, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(Crc32c(nullptr, 0), 0u); }

TEST(Crc32c, SensitiveToEveryByte) {
  std::string data(256, 'a');
  const uint32_t base = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); i += 37) {
    std::string mutated = data;
    mutated[i] = 'b';
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base) << "byte " << i;
  }
}

std::vector<std::byte> RandomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) {
    b = static_cast<std::byte>(rng.Next());
  }
  return out;
}

// Crc32c may take the SSE4.2 path; it must match the portable table loop at
// every length (so every 8-byte body and tail split), at every alignment, and
// when chained the way page checksums chain their spans.
TEST(Crc32c, MatchesPortableLoopAtEveryLengthAndAlignment) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) {
    lengths.push_back(n);
  }
  for (size_t n : {4095u, 4096u, 8180u, 8192u}) {
    lengths.push_back(n);
  }
  const std::vector<std::byte> buf = RandomBytes(14, 8192 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : lengths) {
      const std::span<const std::byte> data(buf.data() + offset, n);
      for (uint32_t seed : {0u, 0xFFFFFFFFu, 0x1234ABCDu}) {
        EXPECT_EQ(Crc32c(data, seed), crc32_internal::PortableCrc32c(data, seed))
            << "offset " << offset << " length " << n << " seed " << seed;
      }
    }
  }
}

TEST(Crc32c, ChainedSpansMatchPortableLoop) {
  const std::vector<std::byte> buf = RandomBytes(1993, 8192 + 7);
  Rng rng(8);
  for (int round = 0; round < 200; ++round) {
    // Three spans of random length at a random start, chained through seeds.
    const size_t start = rng.Uniform(8);
    const size_t a = rng.Uniform(64);
    const size_t b = rng.Uniform(16);
    const size_t c = rng.Uniform(8192 - a - b);
    const std::byte* p = buf.data() + start;
    uint32_t fast = Crc32c(p, a);
    uint32_t slow = crc32_internal::PortableCrc32c({p, a});
    fast = Crc32c(p + a, b, fast);
    slow = crc32_internal::PortableCrc32c({p + a, b}, slow);
    fast = Crc32c(p + a + b, c, fast);
    slow = crc32_internal::PortableCrc32c({p + a + b, c}, slow);
    ASSERT_EQ(fast, slow) << "round " << round;
    // Chaining is the same as one pass over the concatenation.
    EXPECT_EQ(fast, crc32_internal::PortableCrc32c({p, a + b + c}));
  }
}

// ---------------------------------------------------------------- bytes

TEST(Bytes, FixedWidthRoundtrip) {
  std::byte buf[8];
  PutU16(buf, 0xBEEF);
  EXPECT_EQ(GetU16(buf), 0xBEEF);
  PutU32(buf, 0xDEADBEEF);
  EXPECT_EQ(GetU32(buf), 0xDEADBEEFu);
  PutU64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(GetU64(buf), 0x0123456789ABCDEFull);
}

TEST(Bytes, WriterReaderRoundtrip) {
  ByteWriter w;
  w.U8(7);
  w.U16(300);
  w.U32(70000);
  w.U64(1ull << 40);
  w.I64(-12345);
  w.F64(3.25);
  w.Str("hello");
  w.Blob(std::vector<std::byte>{std::byte{1}, std::byte{2}});

  ByteReader r(w.data());
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U16(), 300);
  EXPECT_EQ(r.U32(), 70000u);
  EXPECT_EQ(r.U64(), 1ull << 40);
  EXPECT_EQ(r.I64(), -12345);
  EXPECT_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Blob().size(), 2u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderDetectsTruncation) {
  ByteWriter w;
  w.U32(5);  // claims a 5-byte string follows, but nothing does
  ByteReader r(w.data());
  (void)r.Str();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, ReaderPastEndIsSticky) {
  ByteReader r(std::span<const std::byte>{});
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------- LZSS

TEST(Lzss, EmptyInput) {
  auto packed = LzssCompress({});
  auto raw = LzssDecompress(packed, 0);
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->empty());
}

TEST(Lzss, CompressesRepetitiveData) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "abcabcabc ";
  }
  auto input = std::as_bytes(std::span(text.data(), text.size()));
  auto packed = LzssCompress(input);
  EXPECT_LT(packed.size(), text.size() / 3);
  auto raw = LzssDecompress(packed, text.size());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_TRUE(std::equal(raw->begin(), raw->end(), input.begin()));
}

TEST(Lzss, IncompressibleDataSurvives) {
  Rng rng(17);
  std::vector<std::byte> input(4096);
  for (auto& b : input) {
    b = static_cast<std::byte>(rng.Uniform(256));
  }
  auto packed = LzssCompress(input);
  // Worst case bound: 9/8 of input + 1.
  EXPECT_LE(packed.size(), input.size() * 9 / 8 + 1);
  auto raw = LzssDecompress(packed, input.size());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, input);
}

TEST(Lzss, DetectsTruncatedStream) {
  std::string text(1000, 'x');
  auto packed = LzssCompress(std::as_bytes(std::span(text.data(), text.size())));
  packed.resize(packed.size() / 2);
  EXPECT_FALSE(LzssDecompress(packed, text.size()).ok());
}

TEST(Lzss, DetectsWrongExpectedSize) {
  std::string text(100, 'x');
  auto packed = LzssCompress(std::as_bytes(std::span(text.data(), text.size())));
  EXPECT_FALSE(LzssDecompress(packed, 101).ok());
}

TEST(Lzss, RejectsTokenReachingBeforeOutputStart) {
  // Flag byte 0x00 announces eight tokens; the first token points 4096 bytes
  // back when nothing has been emitted yet. Must error, not read out of
  // bounds.
  const std::vector<std::byte> stream = {std::byte{0x00}, std::byte{0xFF},
                                         std::byte{0xFF}};
  EXPECT_FALSE(LzssDecompress(stream, 18).ok());
}

TEST(Lzss, RejectsTruncatedToken) {
  // A token is two bytes; the stream ends after the first.
  const std::vector<std::byte> stream = {std::byte{0x00}, std::byte{0x12}};
  EXPECT_FALSE(LzssDecompress(stream, 18).ok());
}

TEST(Lzss, GarbageStreamsNeverCrash) {
  // ASan/UBSan regression net: decompressing adversarial bytes may fail, but
  // must never touch memory out of bounds (a corrupted compressed chunk on
  // disk reaches this code path via the chunk reader).
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> stream(1 + rng.Uniform(64));
    for (auto& b : stream) {
      b = static_cast<std::byte>(rng.Uniform(256));
    }
    for (size_t expected : {size_t{0}, size_t{1}, stream.size(), size_t{8192}}) {
      auto out = LzssDecompress(stream, expected);
      if (out.ok()) {
        EXPECT_EQ(out->size(), expected);
      }
    }
  }
}

// Property sweep: roundtrip across sizes and content classes.
class LzssRoundtrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LzssRoundtrip, Roundtrips) {
  const auto [size, kind] = GetParam();
  Rng rng(static_cast<uint64_t>(size * 31 + kind));
  std::vector<std::byte> input(static_cast<size_t>(size));
  for (size_t i = 0; i < input.size(); ++i) {
    switch (kind) {
      case 0:  // constant
        input[i] = std::byte{0x41};
        break;
      case 1:  // short period
        input[i] = static_cast<std::byte>('a' + i % 7);
        break;
      case 2:  // random
        input[i] = static_cast<std::byte>(rng.Uniform(256));
        break;
      case 3:  // long-range repeats
        input[i] = static_cast<std::byte>((i / 1000) % 3 == 0 ? 'z' : i % 251);
        break;
    }
  }
  auto packed = LzssCompress(input);
  auto raw = LzssDecompress(packed, input.size());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(*raw, input);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndKinds, LzssRoundtrip,
    ::testing::Combine(::testing::Values(1, 2, 17, 255, 4096, 8133, 20000),
                       ::testing::Values(0, 1, 2, 3)));

// ------------------------------------------------------------- logging

TEST(Logging, CountsEmittedMessagesPerLevel) {
  Counter* warns =
      MetricsRegistry::Default().GetCounter("log_messages", "warn");
  Counter* errors =
      MetricsRegistry::Default().GetCounter("log_messages", "error");
  const uint64_t warns_before = warns->Value();
  const uint64_t errors_before = errors->Value();
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  INV_LOG(kWarn, "counted");
  INV_LOG(kError, "counted");
  INV_LOG(kDebug, "suppressed below threshold, not counted");
  SetLogLevel(saved);
  EXPECT_EQ(warns->Value(), warns_before + 1);
  EXPECT_EQ(errors->Value(), errors_before + 1);
}

TEST(Logging, ConcurrentEmissionCountsExactly) {
  Counter* infos =
      MetricsRegistry::Default().GetCounter("log_messages", "info");
  const uint64_t before = infos->Value();
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        INV_LOG(kInfo, "mt");
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  SetLogLevel(saved);
  EXPECT_EQ(infos->Value(), before + kThreads * kPerThread);
}

// ---------------------------------------------------------------- SharedMutex

// Waits up to a second for `flag`.
bool EventuallyTrue(const std::atomic<bool>& flag) {
  for (int i = 0; i < 1000 && !flag.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return flag.load();
}

TEST(SharedMutex, SharedHoldersOverlap) {
  SharedMutex mu;
  std::atomic<bool> reader_in{false};
  mu.lock_shared();
  std::thread reader([&] {
    ReaderMutexLock lock(mu);
    reader_in.store(true);
  });
  EXPECT_TRUE(EventuallyTrue(reader_in));
  mu.unlock_shared();
  reader.join();
}

TEST(SharedMutex, ExclusiveHolderWaitsForSharedOnes) {
  SharedMutex mu;
  std::atomic<bool> writer_in{false};
  mu.lock_shared();
  std::thread writer([&] {
    WriterMutexLock lock(mu);
    writer_in.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());
  mu.unlock_shared();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

}  // namespace
}  // namespace invfs

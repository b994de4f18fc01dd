#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/flags.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace vuvuzela::util {
namespace {

TEST(Hex, RoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff7f");
  EXPECT_EQ(HexDecode(hex), data);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(HexEncode({}), "");
  EXPECT_TRUE(HexDecode("").empty());
}

TEST(Hex, UppercaseAccepted) { EXPECT_EQ(HexDecode("AB"), Bytes{0xab}); }

TEST(Hex, RejectsOddLength) { EXPECT_THROW(HexDecode("abc"), std::invalid_argument); }

TEST(Hex, RejectsNonHex) { EXPECT_THROW(HexDecode("zz"), std::invalid_argument); }

TEST(ConstantTimeEqual, Basics) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(SecureZero, Zeroes) {
  Bytes buf = {1, 2, 3, 4};
  SecureZero(buf);
  EXPECT_EQ(buf, Bytes(4, 0));
}

TEST(Concat, MultipleSpans) {
  Bytes a = {1, 2};
  Bytes b = {3};
  Bytes c = {4, 5, 6};
  EXPECT_EQ(Concat(a, b, c), (Bytes{1, 2, 3, 4, 5, 6}));
}

TEST(Endian, RoundTrips) {
  uint8_t buf[8];
  StoreLe64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(LoadLe64(buf), 0x0123456789abcdefULL);
  StoreBe64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(LoadBe64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);  // big-endian: most significant byte first
  StoreLe32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadLe32(buf), 0xdeadbeefu);
  StoreBe32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadBe32(buf), 0xdeadbeefu);
}

TEST(SystemRng, ProducesDistinctValues) {
  SystemRng rng;
  uint64_t a = rng.NextUint64();
  uint64_t b = rng.NextUint64();
  // Probability of collision is 2^-64; a failure here means the RNG is broken.
  EXPECT_NE(a, b);
}

TEST(SystemRng, FillsWholeBuffer) {
  SystemRng rng;
  Bytes buf(1024, 0);
  rng.Fill(buf);
  int zeros = 0;
  for (uint8_t x : buf) {
    zeros += (x == 0);
  }
  // Expected ~4 zero bytes out of 1024; 100 would indicate a short fill.
  EXPECT_LT(zeros, 100);
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256Rng a(42), b(42), c(43);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  Xoshiro256Rng a2(42);
  EXPECT_NE(a2.NextUint64(), c.NextUint64());
}

TEST(Xoshiro, UniformBoundedNoModuloBias) {
  Xoshiro256Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformUint64(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Xoshiro, UniformBoundRejectsZero) {
  Xoshiro256Rng rng(7);
  EXPECT_THROW(rng.UniformUint64(0), std::invalid_argument);
}

TEST(Xoshiro, UniformDoubleInRange) {
  Xoshiro256Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro, FillMatchesNextUint64Stream) {
  Xoshiro256Rng a(5), b(5);
  Bytes buf(16);
  a.Fill(buf);
  uint8_t expect[16];
  StoreLe64(expect, b.NextUint64());
  StoreLe64(expect + 8, b.NextUint64());
  EXPECT_EQ(0, memcmp(buf.data(), expect, 16));
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ZeroIterations) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SingleIterationRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionCancelsRemainingWork) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::atomic<size_t> executed{0};
  EXPECT_THROW(pool.ParallelFor(kN,
                                [&](size_t i) {
                                  if (i == 0) {
                                    throw std::runtime_error("boom");
                                  }
                                  executed.fetch_add(1, std::memory_order_relaxed);
                                }),
               std::runtime_error);
  // Without cancellation every non-throwing index runs (kN - 1); with it, the
  // shards still in flight when the exception landed stop early.
  EXPECT_LT(executed.load(), kN - 1);
}

TEST(ThreadPool, ExceptionFromLastShardStillPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](size_t i) {
                                  if (i == 63) {
                                    throw std::logic_error("tail");
                                  }
                                }),
               std::logic_error);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(4,
                                [&](size_t) {
                                  pool.ParallelFor(16, [](size_t j) {
                                    if (j == 3) {
                                      throw std::logic_error("inner");
                                    }
                                  });
                                }),
               std::logic_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8, [](size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](size_t) {
    GlobalPool().ParallelFor(8, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

// A one-worker pool runs every block on the calling thread, in index order:
// the mix pass needs no serial code path of its own.
TEST(ThreadPool, OneWorkerBlocksRunInlineInOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<size_t, size_t>> blocks;
  pool.ParallelForBlocks(200, 64, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    blocks.emplace_back(begin, end);
  });
  const std::vector<std::pair<size_t, size_t>> expected = {
      {0, 64}, {64, 128}, {128, 192}, {192, 200}};
  EXPECT_EQ(blocks, expected);
}

// --- Flag values ---------------------------------------------------------------

TEST(Flags, ParseUnsignedAcceptsWholeDecimalValuesUpToMax) {
  uint64_t wide = 7;
  EXPECT_TRUE(ParseUnsigned("0", 10, &wide));
  EXPECT_EQ(wide, 0u);
  EXPECT_TRUE(ParseUnsigned("10", 10, &wide));
  EXPECT_EQ(wide, 10u);
  EXPECT_TRUE(ParseUnsigned("18446744073709551615", UINT64_MAX, &wide));
  EXPECT_EQ(wide, UINT64_MAX);
  uint16_t port = 0;
  EXPECT_TRUE(ParseUnsigned("65535", 65535, &port));
  EXPECT_EQ(port, 65535u);
}

TEST(Flags, ParseUnsignedRejectsAnythingElseAndLeavesTheOutputAlone) {
  for (const char* text : {"", "two", "1x", "-1", "+1", " 1", "1 ", "0x10", "1.5", "11",
                           "18446744073709551616", "99999999999999999999999"}) {
    uint64_t value = 42;
    EXPECT_FALSE(ParseUnsigned(text, 10, &value)) << '"' << text << '"';
    EXPECT_EQ(value, 42u) << '"' << text << '"';
  }
  // The target type bounds the value too: no silent truncation.
  uint32_t shards = 1;
  EXPECT_FALSE(ParseUnsigned("4294967297", UINT64_MAX, &shards));
  EXPECT_EQ(shards, 1u);
  int metrics_port = -1;
  EXPECT_FALSE(ParseUnsigned("2147483648", UINT64_MAX, &metrics_port));
  EXPECT_EQ(metrics_port, -1);
}

TEST(Flags, ParseNonNegativeAcceptsFiniteNonNegativeNumbers) {
  double value = -1.0;
  EXPECT_TRUE(ParseNonNegative("0", &value));
  EXPECT_EQ(value, 0.0);
  EXPECT_TRUE(ParseNonNegative("0.05", &value));
  EXPECT_EQ(value, 0.05);
  EXPECT_TRUE(ParseNonNegative("1e3", &value));
  EXPECT_EQ(value, 1000.0);
}

TEST(Flags, ParseNonNegativeRejectsGarbageNegativesAndNonFinite) {
  for (const char* text : {"", "fifty", "1x", "-1", "-0.5", "nan", "inf", "-inf", "1e999"}) {
    double value = 3.0;
    EXPECT_FALSE(ParseNonNegative(text, &value)) << '"' << text << '"';
    EXPECT_EQ(value, 3.0) << '"' << text << '"';
  }
}

// argv as main() receives it, with a program name in front.
class FlagSetTest : public ::testing::Test {
 protected:
  FlagSetTest() {
    flags_.Unsigned("--port", 65535, &port_);
    flags_.NonNegative("--mu", &mu_);
    flags_.String("--name", &name_);
    flags_.Switch("--quiet", &quiet_);
    flags_.Value("--hops", [this](const char* value) {
      hops_.emplace_back(value);
      return hops_.back() != "bad";
    });
  }

  bool Parse(std::vector<std::string> args, std::vector<std::string>* positional = nullptr) {
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    return flags_.Parse(static_cast<int>(argv.size()), argv.data(), positional);
  }

  FlagSet flags_;
  uint16_t port_ = 7;
  double mu_ = 50.0;
  std::string name_;
  bool quiet_ = false;
  std::vector<std::string> hops_;
};

TEST_F(FlagSetTest, BindsEveryKindOfFlag) {
  EXPECT_TRUE(Parse({"--port", "7341", "--mu", "0.5", "--name", "h", "--quiet", "--hops", "a:1"}));
  EXPECT_EQ(port_, 7341u);
  EXPECT_EQ(mu_, 0.5);
  EXPECT_EQ(name_, "h");
  EXPECT_TRUE(quiet_);
  EXPECT_EQ(hops_, std::vector<std::string>{"a:1"});
  EXPECT_TRUE(Parse({}));
}

TEST_F(FlagSetTest, RejectsUnknownFlagsAndMissingValues) {
  EXPECT_FALSE(Parse({"--bogus", "1"}));
  EXPECT_FALSE(Parse({"-p", "1"}));
  EXPECT_FALSE(Parse({"--port"}));
  EXPECT_FALSE(Parse({"--quiet", "--name"}));
  EXPECT_FALSE(Parse({"--hops", "bad"}));  // a custom parser's verdict stands
}

TEST_F(FlagSetTest, RejectsMalformedNumbers) {
  for (const char* text : {"1x", "-1", "65536", "18446744073709551616", ""}) {
    EXPECT_FALSE(Parse({"--port", text})) << '"' << text << '"';
    EXPECT_EQ(port_, 7u) << '"' << text << '"';
  }
  EXPECT_FALSE(Parse({"--mu", "-1"}));
  EXPECT_FALSE(Parse({"--mu", "nan"}));
  EXPECT_EQ(mu_, 50.0);
}

TEST_F(FlagSetTest, RepeatedScalarKeepsTheLastAndRepeatedListAppends) {
  EXPECT_TRUE(Parse({"--port", "1", "--port", "2", "--hops", "a:1", "--hops", "b:2"}));
  EXPECT_EQ(port_, 2u);
  EXPECT_EQ(hops_, (std::vector<std::string>{"a:1", "b:2"}));
}

TEST_F(FlagSetTest, CollectsPositionalArgumentsOnlyWhenAsked) {
  std::vector<std::string> files;
  EXPECT_TRUE(Parse({"a.jsonl", "--quiet", "-", "b.jsonl"}, &files));
  EXPECT_EQ(files, (std::vector<std::string>{"a.jsonl", "-", "b.jsonl"}));
  EXPECT_TRUE(quiet_);
  EXPECT_FALSE(Parse({"a.jsonl"}));
  EXPECT_FALSE(Parse({"--port", "1", "stray"}));
}

TEST_F(FlagSetTest, RequiredFlagMustAppear) {
  flags_.Require("--port");
  flags_.Require("--name");
  EXPECT_TRUE(Parse({"--name", "h", "--port", "1"}));
  EXPECT_FALSE(Parse({"--port", "1"}));
  EXPECT_FALSE(Parse({"--name", "h"}));
  EXPECT_FALSE(Parse({}));
  EXPECT_FALSE(Parse({"--name", "h", "--port", "1x"}));  // present but malformed
  EXPECT_THROW(flags_.Require("--unbound"), std::logic_error);
}

}  // namespace
}  // namespace vuvuzela::util

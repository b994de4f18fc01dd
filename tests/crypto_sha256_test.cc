// SHA-256 against FIPS 180-4 / NIST CAVP vectors plus incremental-API
// properties, and the x86 SHA-extensions kernel against the portable one.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/crypto/sha256.h"
#include "src/crypto/sha256_internal.h"
#include "src/util/bytes.h"
#include "src/util/random.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;
using util::ByteSpan;
using util::HexEncode;

std::string HashHex(const std::string& input) {
  auto digest = Sha256::Hash(ByteSpan(reinterpret_cast<const uint8_t*>(input.data()), input.size()));
  return HexEncode(digest);
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(HashHex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HashHex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, FourBlockMessage) {
  EXPECT_EQ(HashHex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                    "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(ByteSpan(reinterpret_cast<const uint8_t*>(chunk.data()), chunk.size()));
  }
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte input exercises the padding path that appends a whole extra block.
  std::string input(64, 'x');
  Sha256 h;
  h.Update(ByteSpan(reinterpret_cast<const uint8_t*>(input.data()), input.size()));
  EXPECT_EQ(HexEncode(h.Finish()), HashHex(input));
}

TEST(Sha256, FinishTwiceThrows) {
  Sha256 h;
  h.Finish();
  EXPECT_THROW(h.Finish(), std::logic_error);
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.Finish();
  uint8_t b = 0;
  EXPECT_THROW(h.Update(ByteSpan(&b, 1)), std::logic_error);
}

// Property: any chunking of the input produces the same digest.
class Sha256ChunkingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256ChunkingTest, IncrementalMatchesOneShot) {
  size_t chunk_size = GetParam();
  util::Xoshiro256Rng rng(1234);
  Bytes data = rng.RandomBytes(1021);  // deliberately not a multiple of 64

  Sha256 h;
  for (size_t off = 0; off < data.size(); off += chunk_size) {
    size_t take = std::min(chunk_size, data.size() - off);
    h.Update(ByteSpan(data.data() + off, take));
  }
  EXPECT_EQ(h.Finish(), Sha256::Hash(data));
}

INSTANTIATE_TEST_SUITE_P(Chunkings, Sha256ChunkingTest,
                         ::testing::Values(1, 3, 7, 16, 63, 64, 65, 128, 500, 1021));

// Property: distinct lengths of the same repeated byte hash differently
// (regression guard on length padding).
TEST(Sha256, LengthAffectsDigest) {
  Bytes a(100, 0xaa), b(101, 0xaa);
  EXPECT_NE(Sha256::Hash(a), Sha256::Hash(b));
}

// --- Kernel cross-checks ----------------------------------------------------
// Sha256 runs whichever kernel the CPU supports, so the vectors above test
// only that one. These tests compare against the portable kernel, driven with
// its own padding so they do not go through Sha256's buffering.

using Kernel = void (*)(uint32_t state[8], const uint8_t* data, size_t n);

// SHA-256 of `data` using only `kernel`. The padded message is copied to
// `offset` bytes past an aligned start, so the kernel reads unaligned input.
Sha256Digest HashWithKernel(Kernel kernel, ByteSpan data, size_t offset) {
  size_t blocks = (data.size() + 8) / kSha256BlockSize + 1;
  Bytes storage(offset + blocks * kSha256BlockSize, 0);
  uint8_t* message = storage.data() + offset;
  if (!data.empty()) {
    std::memcpy(message, data.data(), data.size());
  }
  message[data.size()] = 0x80;
  util::StoreBe64(message + blocks * kSha256BlockSize - 8, uint64_t{data.size()} * 8);
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernel(state, message, blocks);
  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    util::StoreBe32(digest.data() + 4 * i, state[i]);
  }
  return digest;
}

// Sha256 fed `data` in pieces cut at random points.
Sha256Digest HashInRandomPieces(ByteSpan data, util::Xoshiro256Rng& rng) {
  Sha256 h;
  size_t off = 0;
  while (off < data.size()) {
    size_t take = std::min<size_t>(rng.UniformUint64(200), data.size() - off);
    h.Update(data.subspan(off, take));
    off += take;
  }
  return h.Finish();
}

// The replay digest's feed (hop_daemon.cc DigestRequest): 6000 requests of
// an 8-byte length and a 400-byte item, 2.4 MB in all.
constexpr size_t kDigestItems = 6000;
constexpr size_t kDigestItemSize = 400;

Bytes RequestDigestInput(util::Xoshiro256Rng& rng) {
  Bytes input;
  input.reserve(kDigestItems * (8 + kDigestItemSize));
  for (size_t i = 0; i < kDigestItems; ++i) {
    uint8_t len[8] = {};
    len[0] = kDigestItemSize & 0xff;
    len[1] = kDigestItemSize >> 8;
    input.insert(input.end(), len, len + 8);
    Bytes item = rng.RandomBytes(kDigestItemSize);
    input.insert(input.end(), item.begin(), item.end());
  }
  return input;
}

Sha256Digest HashAsRequestDigest(ByteSpan input) {
  Sha256 h;
  for (size_t off = 0; off < input.size(); off += 8 + kDigestItemSize) {
    h.Update(input.subspan(off, 8));
    h.Update(input.subspan(off + 8, kDigestItemSize));
  }
  return h.Finish();
}

TEST(Sha256Kernels, PortableReferenceMatchesVectors) {
  const std::string abc = "abc";
  EXPECT_EQ(HexEncode(HashWithKernel(internal::Sha256BlocksPortable,
                                     ByteSpan(reinterpret_cast<const uint8_t*>(abc.data()), 3),
                                     0)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(HashWithKernel(internal::Sha256BlocksPortable, {}, 5)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

// Whatever kernel this CPU selects, streaming through Update at random split
// points agrees with the portable kernel on every length up to 1024 bytes.
TEST(Sha256Kernels, SelectedKernelMatchesPortableOnEveryLength) {
  util::Xoshiro256Rng rng(2201);
  Bytes pool = rng.RandomBytes(1024 + 64);
  for (size_t len = 0; len <= 1024; ++len) {
    ByteSpan data(pool.data() + 1 + len % 63, len);
    ASSERT_EQ(HashInRandomPieces(data, rng),
              HashWithKernel(internal::Sha256BlocksPortable, data, 0))
        << "length " << len;
  }
}

TEST(Sha256Kernels, SelectedKernelMatchesPortableOnRequestDigestShape) {
  util::Xoshiro256Rng rng(2202);
  Bytes input = RequestDigestInput(rng);
  EXPECT_EQ(HashAsRequestDigest(input), HashWithKernel(internal::Sha256BlocksPortable, input, 0));
}

TEST(Sha256Kernels, ShaExtensionsMatchPortableOnEveryLength) {
#ifdef VUVUZELA_SHA256_X86_KERNEL
  if (!internal::CpuHasShaExtensions()) {
    GTEST_SKIP() << "this CPU lacks the x86 SHA extensions";
  }
  util::Xoshiro256Rng rng(2203);
  Bytes pool = rng.RandomBytes(1024 + 64);
  for (size_t len = 0; len <= 1024; ++len) {
    ByteSpan data(pool.data() + rng.UniformUint64(64), len);
    size_t offset = 1 + rng.UniformUint64(15);
    ASSERT_EQ(HashWithKernel(internal::Sha256BlocksShaNi, data, offset),
              HashWithKernel(internal::Sha256BlocksPortable, data, 0))
        << "length " << len << ", offset " << offset;
  }
#else
  GTEST_SKIP() << "the SHA-extensions kernel is built only for x86-64";
#endif
}

TEST(Sha256Kernels, ShaExtensionsMatchPortableOnRequestDigestShape) {
#ifdef VUVUZELA_SHA256_X86_KERNEL
  if (!internal::CpuHasShaExtensions()) {
    GTEST_SKIP() << "this CPU lacks the x86 SHA extensions";
  }
  util::Xoshiro256Rng rng(2204);
  Bytes input = RequestDigestInput(rng);
  EXPECT_EQ(HashWithKernel(internal::Sha256BlocksShaNi, input, 3),
            HashWithKernel(internal::Sha256BlocksPortable, input, 0));
#else
  GTEST_SKIP() << "the SHA-extensions kernel is built only for x86-64";
#endif
}

}  // namespace
}  // namespace vuvuzela::crypto

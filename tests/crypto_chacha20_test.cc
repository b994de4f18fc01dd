// ChaCha20 against RFC 8439 §2.3.2 / §2.4.2 vectors, and every keystream
// kernel this build and CPU can run against the portable one.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "src/crypto/chacha20.h"
#include "src/crypto/chacha20_internal.h"
#include "src/util/bytes.h"
#include "src/util/random.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;
using util::HexDecode;
using util::HexEncode;

ChaCha20Key TestKey() {
  ChaCha20Key key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  return key;
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  uint8_t block[kChaCha20BlockSize];
  ChaCha20Block(key, nonce, 1, block);
  EXPECT_EQ(HexEncode(util::ByteSpan(block, sizeof(block))),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const char* text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  util::ByteSpan plaintext(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  Bytes ciphertext(plaintext.size());
  ChaCha20Xor(key, nonce, 1, plaintext, ciphertext);
  EXPECT_EQ(HexEncode(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, XorIsInvolution) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce{};
  util::Xoshiro256Rng rng(77);
  Bytes plaintext = rng.RandomBytes(300);
  Bytes ciphertext(plaintext.size());
  ChaCha20Xor(key, nonce, 5, plaintext, ciphertext);
  Bytes decrypted(ciphertext.size());
  ChaCha20Xor(key, nonce, 5, ciphertext, decrypted);
  EXPECT_EQ(decrypted, plaintext);
}

TEST(ChaCha20, InPlaceXor) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce{};
  Bytes data = {1, 2, 3, 4, 5};
  Bytes original = data;
  ChaCha20Xor(key, nonce, 0, data, data);
  EXPECT_NE(data, original);
  ChaCha20Xor(key, nonce, 0, data, data);
  EXPECT_EQ(data, original);
}

TEST(ChaCha20, SizeMismatchThrows) {
  ChaCha20Key key{};
  ChaCha20Nonce nonce{};
  Bytes in(10), out(11);
  EXPECT_THROW(ChaCha20Xor(key, nonce, 0, in, out), std::invalid_argument);
}

TEST(ChaCha20, CounterAdvancesPerBlock) {
  // Encrypting [block0 ‖ block1] at counter 0 equals encrypting block1 alone
  // at counter 1.
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce{};
  Bytes zeros(128, 0);
  Bytes both(128);
  ChaCha20Xor(key, nonce, 0, zeros, both);
  Bytes second(64);
  ChaCha20Xor(key, nonce, 1, util::ByteSpan(zeros.data(), 64), second);
  EXPECT_EQ(Bytes(both.begin() + 64, both.end()), second);
}

TEST(ChaCha20, DistinctNoncesDistinctStreams) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce n1{}, n2{};
  n2[0] = 1;
  Bytes zeros(64, 0), s1(64), s2(64);
  ChaCha20Xor(key, n1, 0, zeros, s1);
  ChaCha20Xor(key, n2, 0, zeros, s2);
  EXPECT_NE(s1, s2);
}

// --- Keystream kernels ------------------------------------------------------

using NamedKernel = std::pair<const char*, internal::ChaCha20Kernel>;

class ChaCha20KernelTest : public ::testing::TestWithParam<NamedKernel> {
 protected:
  internal::ChaCha20Kernel kernel() const { return GetParam().second; }
};

std::string KernelName(const ::testing::TestParamInfo<NamedKernel>& info) {
  return info.param.first;
}

INSTANTIATE_TEST_SUITE_P(Kernels, ChaCha20KernelTest,
                         ::testing::ValuesIn(internal::ChaCha20Kernels()), KernelName);

// The RFC 8439 §2.4.2 encryption vector on this kernel alone: the portable
// kernel's run stands in for a host without AVX2.
TEST_P(ChaCha20KernelTest, Rfc8439Encryption) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const char* text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  util::ByteSpan plaintext(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  Bytes ciphertext(plaintext.size());
  internal::ChaCha20Xor(kernel(), key, nonce, 1, plaintext, ciphertext);
  EXPECT_EQ(HexEncode(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST_P(ChaCha20KernelTest, Rfc8439BlockFunction) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  uint8_t block[kChaCha20BlockSize];
  kernel()(key, nonce, 1, 1, block);
  EXPECT_EQ(HexEncode(util::ByteSpan(block, sizeof(block))),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// Every block count a call can ask for, at initial counters whose group of
// eight wraps past 2^32 at every position.
TEST_P(ChaCha20KernelTest, BlocksMatchPortableForEveryCount) {
  util::Xoshiro256Rng rng(2020);
  ChaCha20Key key;
  rng.Fill(key);
  ChaCha20Nonce nonce;
  rng.Fill(nonce);
  for (uint32_t back = 0; back <= internal::kChaCha20KernelBlocks; ++back) {
    const uint32_t counter = 0u - back;
    for (size_t blocks = 1; blocks <= internal::kChaCha20KernelBlocks; ++blocks) {
      uint8_t expected[internal::kChaCha20KernelBytes] = {};
      uint8_t got[internal::kChaCha20KernelBytes] = {};
      internal::ChaCha20BlocksPortable(key, nonce, counter, blocks, expected);
      kernel()(key, nonce, counter, blocks, got);
      // Exactly `blocks` blocks are written; the rest of `got` stays zero.
      EXPECT_EQ(HexEncode(util::ByteSpan(got, sizeof(got))),
                HexEncode(util::ByteSpan(expected, sizeof(expected))))
          << "counter " << counter << " blocks " << blocks;
    }
  }
}

// The stream as the RFC defines it: ChaCha20Block at counter, counter + 1,
// ... (modulo 2^32), XORed into `input`.
Bytes BlockByBlockXor(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                      util::ByteSpan input) {
  Bytes out(input.begin(), input.end());
  for (size_t off = 0; off < out.size(); off += kChaCha20BlockSize, ++counter) {
    uint8_t block[kChaCha20BlockSize];
    ChaCha20Block(key, nonce, counter, block);
    for (size_t i = 0; i < kChaCha20BlockSize && off + i < out.size(); ++i) {
      out[off + i] ^= block[i];
    }
  }
  return out;
}

TEST_P(ChaCha20KernelTest, XorMatchesBlockByBlockAtEveryLength) {
  util::Xoshiro256Rng rng(2021);
  ChaCha20Key key;
  rng.Fill(key);
  ChaCha20Nonce nonce;
  rng.Fill(nonce);
  const Bytes input = rng.RandomBytes(1100);
  // 2^32 - 3: the 32-bit counter wraps inside the first group of eight.
  for (uint32_t counter : {0u, 1u, 0xfffffffdu}) {
    for (size_t size = 0; size <= input.size(); ++size) {
      util::ByteSpan in(input.data(), size);
      const Bytes expected = BlockByBlockXor(key, nonce, counter, in);
      Bytes out_of_place(size);
      internal::ChaCha20Xor(kernel(), key, nonce, counter, in, out_of_place);
      ASSERT_EQ(out_of_place, expected) << "counter " << counter << " size " << size;
      Bytes in_place(in.begin(), in.end());
      internal::ChaCha20Xor(kernel(), key, nonce, counter, in_place, in_place);
      ASSERT_EQ(in_place, expected) << "in place, counter " << counter << " size " << size;
    }
  }
}

// The portable kernel is the scalar block: its stream is ChaCha20Block at
// consecutive counters, wrapping modulo 2^32.
TEST(ChaCha20, PortableKernelIsTheScalarBlockInALoop) {
  ChaCha20Key key = TestKey();
  ChaCha20Nonce nonce{};
  uint8_t stream[internal::kChaCha20KernelBytes];
  internal::ChaCha20BlocksPortable(key, nonce, 0xfffffffcu, internal::kChaCha20KernelBlocks,
                                   stream);
  for (uint32_t b = 0; b < internal::kChaCha20KernelBlocks; ++b) {
    uint8_t block[kChaCha20BlockSize];
    ChaCha20Block(key, nonce, 0xfffffffcu + b, block);
    EXPECT_EQ(std::memcmp(block, stream + b * kChaCha20BlockSize, kChaCha20BlockSize), 0)
        << "block " << b;
  }
}

TEST(ChaCha20, SelectedKernelIsListed) {
  bool listed = false;
  for (const NamedKernel& k : internal::ChaCha20Kernels()) {
    listed = listed || k.second == internal::SelectedChaCha20Kernel();
  }
  EXPECT_TRUE(listed);
}

}  // namespace
}  // namespace vuvuzela::crypto

// ChaCha20-Poly1305 AEAD against RFC 8439 §2.8.2 and §A.5 vectors, plus
// tamper-rejection properties, on the process's keystream kernel and on
// every other kernel this build and CPU can run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "src/crypto/aead.h"
#include "src/crypto/chacha20_internal.h"
#include "src/util/bytes.h"
#include "src/util/random.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;
using util::HexDecode;
using util::HexEncode;

AeadKey KeyFromHex(const std::string& hex) {
  Bytes raw = HexDecode(hex);
  AeadKey key;
  std::memcpy(key.data(), raw.data(), key.size());
  return key;
}

AeadNonce NonceFromHex(const std::string& hex) {
  Bytes raw = HexDecode(hex);
  AeadNonce nonce;
  std::memcpy(nonce.data(), raw.data(), nonce.size());
  return nonce;
}

TEST(Aead, Rfc8439SealVector) {
  AeadKey key = KeyFromHex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  AeadNonce nonce = NonceFromHex("070000004041424344454647");
  Bytes aad = HexDecode("50515253c0c1c2c3c4c5c6c7");
  const char* text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  util::ByteSpan plaintext(reinterpret_cast<const uint8_t*>(text), std::strlen(text));

  Bytes sealed = AeadSeal(key, nonce, aad, plaintext);
  EXPECT_EQ(HexEncode(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");

  auto opened = AeadOpen(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(util::ByteSpan(*opened).size(), plaintext.size());
  EXPECT_TRUE(util::ConstantTimeEqual(*opened, plaintext));
}

TEST(Aead, RfcA5DecryptionVector) {
  AeadKey key = KeyFromHex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
  AeadNonce nonce = NonceFromHex("000000000102030405060708");
  Bytes aad = HexDecode("f33388860000000000004e91");
  Bytes ciphertext_and_tag = HexDecode(
      "64a0861575861af460f062c79be643bd5e805cfd345cf389f108670ac76c8cb2"
      "4c6cfc18755d43eea09ee94e382d26b0bdb7b73c321b0100d4f03b7f355894cf"
      "332f830e710b97ce98c8a84abd0b948114ad176e008d33bd60f982b1ff37c855"
      "9797a06ef4f0ef61c186324e2b3506383606907b6a7c02b0f9f6157b53c867e4"
      "b9166c767b804d46a59b5216cde7a4e99040c5a40433225ee282a1b0a06c523e"
      "af4534d7f83fa1155b0047718cbc546a0d072b04b3564eea1b422273f548271a"
      "0bb2316053fa76991955ebd63159434ecebb4e466dae5a1073a6727627097a10"
      "49e617d91d361094fa68f0ff77987130305beaba2eda04df997b714d6c6f2c29"
      "a6ad5cb4022b02709b"
      "eead9d67890cbb22392336fea1851f38");
  auto opened = AeadOpen(key, nonce, aad, ciphertext_and_tag);
  ASSERT_TRUE(opened.has_value());
  std::string plaintext(opened->begin(), opened->end());
  EXPECT_EQ(plaintext.size(), 265u);
  EXPECT_TRUE(plaintext.starts_with("Internet-Drafts are draft documents"));
  EXPECT_NE(plaintext.find("work in progress"), std::string::npos);
}

TEST(Aead, RejectsTamperedCiphertext) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, {}, HexDecode("00112233"));
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(AeadOpen(key, nonce, {}, tampered).has_value()) << "byte " << i;
  }
}

TEST(Aead, RejectsWrongAad) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, HexDecode("aa"), HexDecode("00112233"));
  EXPECT_FALSE(AeadOpen(key, nonce, HexDecode("ab"), sealed).has_value());
  EXPECT_FALSE(AeadOpen(key, nonce, {}, sealed).has_value());
  EXPECT_TRUE(AeadOpen(key, nonce, HexDecode("aa"), sealed).has_value());
}

TEST(Aead, RejectsWrongNonce) {
  AeadKey key{};
  Bytes sealed = AeadSeal(key, NonceFromUint64(7), {}, HexDecode("00112233"));
  EXPECT_FALSE(AeadOpen(key, NonceFromUint64(8), {}, sealed).has_value());
  EXPECT_FALSE(AeadOpen(key, NonceFromUint64(7, 1), {}, sealed).has_value());
  EXPECT_TRUE(AeadOpen(key, NonceFromUint64(7), {}, sealed).has_value());
}

TEST(Aead, RejectsTruncatedInput) {
  AeadKey key{};
  AeadNonce nonce{};
  EXPECT_FALSE(AeadOpen(key, nonce, {}, Bytes(15)).has_value());
  EXPECT_FALSE(AeadOpen(key, nonce, {}, Bytes{}).has_value());
}

TEST(Aead, EmptyPlaintextRoundTrips) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes sealed = AeadSeal(key, nonce, {}, {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  auto opened = AeadOpen(key, nonce, {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

class AeadRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AeadRoundTripTest, SealOpenRoundTrip) {
  util::Xoshiro256Rng rng(GetParam() + 1);
  AeadKey key;
  rng.Fill(key);
  AeadNonce nonce;
  rng.Fill(nonce);
  Bytes plaintext = rng.RandomBytes(GetParam());
  Bytes aad = rng.RandomBytes(GetParam() % 32);

  Bytes sealed = AeadSeal(key, nonce, aad, plaintext);
  EXPECT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);
  auto opened = AeadOpen(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadRoundTripTest,
                         ::testing::Values(1, 15, 16, 17, 63, 64, 65, 240, 256, 1000, 4096));

// The mix pass opens each onion layer where it lies: the plaintext is
// written over the ciphertext it came from.
TEST(Aead, InPlaceOpenMatchesOutOfPlace) {
  util::Xoshiro256Rng rng(31);
  for (size_t size : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 272u, 368u, 1000u}) {
    AeadKey key;
    rng.Fill(key);
    AeadNonce nonce;
    rng.Fill(nonce);
    Bytes aad = rng.RandomBytes(size % 7);
    Bytes sealed = AeadSeal(key, nonce, aad, rng.RandomBytes(size));

    Bytes out_of_place(size);
    ASSERT_TRUE(AeadOpenInto(key, nonce, aad, sealed, out_of_place)) << "size " << size;
    Bytes buffer = sealed;
    util::MutableByteSpan in_place(buffer.data(), size);
    ASSERT_TRUE(AeadOpenInto(key, nonce, aad, buffer, in_place)) << "size " << size;
    EXPECT_EQ(Bytes(in_place.begin(), in_place.end()), out_of_place) << "size " << size;
    // The tag after the plaintext is left as it was.
    EXPECT_TRUE(std::equal(buffer.begin() + size, buffer.end(), sealed.begin() + size));
  }
}

// The tag is checked before any byte is written, so a forged in-place open
// leaves the whole buffer as it was.
TEST(Aead, ForgedInPlaceOpenLeavesBufferUnchanged) {
  util::Xoshiro256Rng rng(32);
  for (size_t size : {1u, 64u, 272u}) {
    AeadKey key;
    rng.Fill(key);
    AeadNonce nonce;
    rng.Fill(nonce);
    Bytes forged = AeadSeal(key, nonce, {}, rng.RandomBytes(size));
    forged.back() ^= 0x01;
    Bytes buffer = forged;
    EXPECT_FALSE(AeadOpenInto(key, nonce, {}, buffer, util::MutableByteSpan(buffer.data(), size)))
        << "size " << size;
    EXPECT_EQ(buffer, forged) << "size " << size;
  }
}

// --- Every keystream kernel -----------------------------------------------

using NamedKernel = std::pair<const char*, internal::ChaCha20Kernel>;

class AeadKernelTest : public ::testing::TestWithParam<NamedKernel> {
 protected:
  internal::ChaCha20Kernel kernel() const { return GetParam().second; }

  Bytes Seal(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
             util::ByteSpan plaintext) const {
    Bytes out(plaintext.size() + kAeadTagSize);
    internal::AeadSealInto(kernel(), key, nonce, aad, plaintext, out);
    return out;
  }
};

std::string KernelName(const ::testing::TestParamInfo<NamedKernel>& info) {
  return info.param.first;
}

INSTANTIATE_TEST_SUITE_P(Kernels, AeadKernelTest, ::testing::ValuesIn(internal::ChaCha20Kernels()),
                         KernelName);

// The RFC vectors on this kernel alone: the portable kernel's run stands in
// for a host without AVX2.
TEST_P(AeadKernelTest, Rfc8439SealVector) {
  AeadKey key = KeyFromHex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  AeadNonce nonce = NonceFromHex("070000004041424344454647");
  Bytes aad = HexDecode("50515253c0c1c2c3c4c5c6c7");
  const char* text =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  util::ByteSpan plaintext(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  Bytes sealed = Seal(key, nonce, aad, plaintext);
  EXPECT_EQ(HexEncode(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");
  Bytes opened(plaintext.size());
  ASSERT_TRUE(internal::AeadOpenInto(kernel(), key, nonce, aad, sealed, opened));
  EXPECT_TRUE(util::ConstantTimeEqual(opened, plaintext));
}

TEST_P(AeadKernelTest, RfcA5DecryptionVector) {
  AeadKey key = KeyFromHex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
  AeadNonce nonce = NonceFromHex("000000000102030405060708");
  Bytes aad = HexDecode("f33388860000000000004e91");
  Bytes ciphertext_and_tag = HexDecode(
      "64a0861575861af460f062c79be643bd5e805cfd345cf389f108670ac76c8cb2"
      "4c6cfc18755d43eea09ee94e382d26b0bdb7b73c321b0100d4f03b7f355894cf"
      "332f830e710b97ce98c8a84abd0b948114ad176e008d33bd60f982b1ff37c855"
      "9797a06ef4f0ef61c186324e2b3506383606907b6a7c02b0f9f6157b53c867e4"
      "b9166c767b804d46a59b5216cde7a4e99040c5a40433225ee282a1b0a06c523e"
      "af4534d7f83fa1155b0047718cbc546a0d072b04b3564eea1b422273f548271a"
      "0bb2316053fa76991955ebd63159434ecebb4e466dae5a1073a6727627097a10"
      "49e617d91d361094fa68f0ff77987130305beaba2eda04df997b714d6c6f2c29"
      "a6ad5cb4022b02709b"
      "eead9d67890cbb22392336fea1851f38");
  Bytes opened(ciphertext_and_tag.size() - kAeadTagSize);
  ASSERT_TRUE(internal::AeadOpenInto(kernel(), key, nonce, aad, ciphertext_and_tag, opened));
  std::string plaintext(opened.begin(), opened.end());
  EXPECT_TRUE(plaintext.starts_with("Internet-Drafts are draft documents"));
  EXPECT_NE(plaintext.find("work in progress"), std::string::npos);
}

// Seal on this kernel at every length up to 600 (past the one-call head of
// 448 bytes and the next group's 512), with and without AAD: the bytes equal
// the portable kernel's, and every kernel opens them, in place and out of
// place.
TEST_P(AeadKernelTest, SealsWhatEveryKernelOpens) {
  util::Xoshiro256Rng rng(3030);
  const auto kernels = internal::ChaCha20Kernels();
  for (size_t size = 0; size <= 600; ++size) {
    AeadKey key;
    rng.Fill(key);
    AeadNonce nonce;
    rng.Fill(nonce);
    const Bytes aad = rng.RandomBytes(size % 3 == 0 ? 0 : size % 37);
    const Bytes plaintext = rng.RandomBytes(size);
    const Bytes sealed = Seal(key, nonce, aad, plaintext);
    Bytes reference(sealed.size());
    internal::AeadSealInto(internal::ChaCha20BlocksPortable, key, nonce, aad, plaintext,
                           reference);
    ASSERT_EQ(sealed, reference) << "size " << size;
    for (const NamedKernel& opener : kernels) {
      Bytes out(size);
      ASSERT_TRUE(internal::AeadOpenInto(opener.second, key, nonce, aad, sealed, out))
          << opener.first << " size " << size;
      ASSERT_EQ(out, plaintext) << opener.first << " size " << size;
      Bytes buffer = sealed;
      ASSERT_TRUE(internal::AeadOpenInto(opener.second, key, nonce, aad, buffer,
                                         util::MutableByteSpan(buffer.data(), size)))
          << opener.first << " in place, size " << size;
      ASSERT_TRUE(std::equal(plaintext.begin(), plaintext.end(), buffer.begin()))
          << opener.first << " in place, size " << size;
    }
    // The in-place seal, as the onion wrap seals each layer where it lies.
    Bytes in_place(sealed.size());
    std::copy(plaintext.begin(), plaintext.end(), in_place.begin());
    internal::AeadSealInto(kernel(), key, nonce, aad, util::ByteSpan(in_place.data(), size),
                           in_place);
    ASSERT_EQ(in_place, sealed) << "in-place seal, size " << size;
  }
}

// The seal as RFC 8439 §2.8 composes it, from the parts alone: the
// ciphertext is the ChaCha20 stream from block 1, block by block, and the
// tag is Poly1305, keyed by block 0, over aad, ciphertext, their zero pads
// and their lengths. Every length up to 1,100 covers the one-call head (448
// bytes) and two groups of eight blocks after it.
TEST_P(AeadKernelTest, SealMatchesTheRfcCompositionAtEveryLength) {
  util::Xoshiro256Rng rng(3032);
  static constexpr uint8_t kZeros[16] = {};
  for (size_t size = 0; size <= 1100; ++size) {
    AeadKey key;
    rng.Fill(key);
    AeadNonce nonce;
    rng.Fill(nonce);
    const Bytes aad = rng.RandomBytes(size % 21);
    const Bytes plaintext = rng.RandomBytes(size);

    Bytes expected(plaintext);
    uint32_t counter = 1;
    for (size_t off = 0; off < size; off += kChaCha20BlockSize, ++counter) {
      uint8_t block[kChaCha20BlockSize];
      ChaCha20Block(key, nonce, counter, block);
      for (size_t i = 0; i < kChaCha20BlockSize && off + i < size; ++i) {
        expected[off + i] ^= block[i];
      }
    }
    uint8_t block0[kChaCha20BlockSize];
    ChaCha20Block(key, nonce, 0, block0);
    Poly1305Key mac_key;
    std::memcpy(mac_key.data(), block0, mac_key.size());
    Poly1305 mac(mac_key);
    mac.Update(aad);
    mac.Update(util::ByteSpan(kZeros, (16 - aad.size() % 16) % 16));
    mac.Update(expected);
    mac.Update(util::ByteSpan(kZeros, (16 - size % 16) % 16));
    uint8_t lengths[16];
    util::StoreLe64(lengths, aad.size());
    util::StoreLe64(lengths + 8, size);
    mac.Update(lengths);
    const Poly1305Tag tag = mac.Finish();
    expected.insert(expected.end(), tag.begin(), tag.end());

    ASSERT_EQ(Seal(key, nonce, aad, plaintext), expected) << "size " << size;
  }
}

// At every length up to 600, a flipped bit in any byte of the ciphertext or
// the tag is rejected, and the rejected in-place open leaves the buffer as
// it was.
TEST_P(AeadKernelTest, RejectsAFlippedBitAnywhere) {
  util::Xoshiro256Rng rng(3031);
  for (size_t size = 0; size <= 600; ++size) {
    AeadKey key;
    rng.Fill(key);
    AeadNonce nonce;
    rng.Fill(nonce);
    const Bytes aad = rng.RandomBytes(size % 5);
    const Bytes sealed = Seal(key, nonce, aad, rng.RandomBytes(size));
    for (size_t i = 0; i < sealed.size(); ++i) {
      Bytes forged = sealed;
      forged[i] ^= static_cast<uint8_t>(1u << (rng.NextUint64() % 8));
      Bytes buffer = forged;
      ASSERT_FALSE(internal::AeadOpenInto(kernel(), key, nonce, aad, buffer,
                                          util::MutableByteSpan(buffer.data(), size)))
          << "size " << size << " byte " << i;
      ASSERT_EQ(buffer, forged) << "size " << size << " byte " << i;
    }
  }
}

TEST(Aead, NonceFromUint64Layout) {
  AeadNonce n = NonceFromUint64(0x0102030405060708ULL, 0xa0b0c0d0);
  EXPECT_EQ(util::LoadLe32(n.data()), 0xa0b0c0d0u);
  EXPECT_EQ(util::LoadLe64(n.data() + 4), 0x0102030405060708ULL);
}

}  // namespace
}  // namespace vuvuzela::crypto

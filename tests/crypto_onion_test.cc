// Onion wrap/unwrap tests across chain lengths (the paper evaluates 1-6
// servers in Figure 11), response-path round trips, and tamper rejection.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "src/crypto/onion.h"
#include "src/util/bytes.h"
#include "src/util/random.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;

struct Chain {
  std::vector<X25519KeyPair> servers;
  std::vector<X25519PublicKey> public_keys;
};

Chain MakeChain(size_t n, util::Rng& rng) {
  Chain chain;
  for (size_t i = 0; i < n; ++i) {
    chain.servers.push_back(X25519KeyPair::Generate(rng));
    chain.public_keys.push_back(chain.servers.back().public_key);
  }
  return chain;
}

class OnionChainTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OnionChainTest, RequestUnwrapsThroughChain) {
  size_t n = GetParam();
  util::Xoshiro256Rng rng(n * 31 + 1);
  Chain chain = MakeChain(n, rng);
  Bytes payload = rng.RandomBytes(272);
  uint64_t round = 42;

  WrappedOnion onion = OnionWrap(chain.public_keys, round, payload, rng);
  EXPECT_EQ(onion.data.size(), OnionRequestSize(payload.size(), n));
  EXPECT_EQ(onion.layer_keys.size(), n);

  Bytes current = onion.data;
  for (size_t i = 0; i < n; ++i) {
    auto unwrapped = OnionUnwrapLayer(chain.servers[i].secret_key, round, current);
    ASSERT_TRUE(unwrapped.has_value()) << "layer " << i;
    // Server's derived key matches the one the client retained.
    EXPECT_EQ(unwrapped->response_key, onion.layer_keys[i]);
    current = std::move(unwrapped->inner);
  }
  EXPECT_EQ(current, payload);
}

TEST_P(OnionChainTest, ResponseRoundTrips) {
  size_t n = GetParam();
  util::Xoshiro256Rng rng(n * 31 + 2);
  Chain chain = MakeChain(n, rng);
  uint64_t round = 43;
  WrappedOnion onion = OnionWrap(chain.public_keys, round, rng.RandomBytes(16), rng);

  // Last server produces a response; every server seals on the way back, in
  // reverse chain order (server n first, server 1 last).
  Bytes response = rng.RandomBytes(256);
  Bytes current = response;
  for (size_t i = n; i-- > 0;) {
    current = OnionSealResponse(onion.layer_keys[i], round, current);
  }
  EXPECT_EQ(current.size(), OnionResponseSize(response.size(), n));

  auto opened = OnionOpenResponse(onion.layer_keys, round, current);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, response);
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, OnionChainTest, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Onion, WrongServerCannotUnwrap) {
  util::Xoshiro256Rng rng(7);
  Chain chain = MakeChain(3, rng);
  X25519KeyPair outsider = X25519KeyPair::Generate(rng);
  WrappedOnion onion = OnionWrap(chain.public_keys, 1, rng.RandomBytes(32), rng);
  EXPECT_FALSE(OnionUnwrapLayer(outsider.secret_key, 1, onion.data).has_value());
  // Second server cannot peel the first server's layer either.
  EXPECT_FALSE(OnionUnwrapLayer(chain.servers[1].secret_key, 1, onion.data).has_value());
}

TEST(Onion, WrongRoundRejected) {
  // Round binding prevents an adversary replaying a request in a later round
  // to correlate dead drops across rounds.
  util::Xoshiro256Rng rng(8);
  Chain chain = MakeChain(2, rng);
  WrappedOnion onion = OnionWrap(chain.public_keys, 10, rng.RandomBytes(32), rng);
  EXPECT_FALSE(OnionUnwrapLayer(chain.servers[0].secret_key, 11, onion.data).has_value());
  EXPECT_TRUE(OnionUnwrapLayer(chain.servers[0].secret_key, 10, onion.data).has_value());
}

TEST(Onion, TamperedLayerRejected) {
  util::Xoshiro256Rng rng(9);
  Chain chain = MakeChain(2, rng);
  WrappedOnion onion = OnionWrap(chain.public_keys, 1, rng.RandomBytes(32), rng);
  Bytes tampered = onion.data;
  tampered[40] ^= 0xff;  // inside the sealed portion (after the 32-byte pk)
  EXPECT_FALSE(OnionUnwrapLayer(chain.servers[0].secret_key, 1, tampered).has_value());
}

// The key a hop derives for `layer`: its DH with the layer's ephemeral key.
AeadKey LayerKey(const X25519SecretKey& server_sk, util::ByteSpan layer) {
  X25519PublicKey ephemeral;
  std::memcpy(ephemeral.data(), layer.data(), ephemeral.size());
  return DeriveBoxKey(X25519(server_sk, ephemeral), OnionContext());
}

// The mix pass peels each onion inside the buffer it arrived in: the inner
// layer is opened over the ciphertext, after the ephemeral key.
TEST(Onion, InPlaceUnwrapMatchesOutOfPlace) {
  util::Xoshiro256Rng rng(33);
  for (size_t layers : {1u, 2u, 3u}) {
    Chain chain = MakeChain(layers, rng);
    for (size_t payload : {0u, 16u, 272u}) {
      WrappedOnion onion = OnionWrap(chain.public_keys, 4, rng.RandomBytes(payload), rng);
      const size_t inner_size = onion.data.size() - kOnionRequestLayerOverhead;

      const AeadKey key = LayerKey(chain.servers[0].secret_key, onion.data);
      EXPECT_EQ(key, onion.layer_keys[0]);
      Bytes out_of_place(inner_size);
      ASSERT_TRUE(OnionOpenLayerInto(key, 4, onion.data, out_of_place));
      std::optional<UnwrappedLayer> reference =
          OnionUnwrapLayer(chain.servers[0].secret_key, 4, onion.data);
      ASSERT_TRUE(reference.has_value());
      EXPECT_EQ(out_of_place, reference->inner);
      Bytes buffer = onion.data;
      util::MutableByteSpan in_place =
          util::MutableByteSpan(buffer).subspan(kX25519KeySize, inner_size);
      ASSERT_TRUE(OnionOpenLayerInto(key, 4, buffer, in_place));
      EXPECT_EQ(Bytes(in_place.begin(), in_place.end()), out_of_place)
          << layers << " layers, payload " << payload;
    }
  }
}

// A forged layer opened in place fails before any byte is written: the
// buffer, ephemeral key and tag included, is left as it was.
TEST(Onion, ForgedInPlaceUnwrapLeavesBufferUnchanged) {
  util::Xoshiro256Rng rng(34);
  Chain chain = MakeChain(2, rng);
  WrappedOnion onion = OnionWrap(chain.public_keys, 1, rng.RandomBytes(272), rng);
  for (size_t flip : {size_t{0}, size_t{40}, onion.data.size() - 1}) {
    Bytes forged = onion.data;
    forged[flip] ^= 0x01;
    Bytes buffer = forged;
    EXPECT_FALSE(OnionOpenLayerInto(
        LayerKey(chain.servers[0].secret_key, buffer), 1, buffer,
        util::MutableByteSpan(buffer).subspan(kX25519KeySize,
                                              buffer.size() - kOnionRequestLayerOverhead)))
        << "byte " << flip;
    EXPECT_EQ(buffer, forged) << "byte " << flip;
  }
}

TEST(Onion, TruncatedLayerRejected) {
  util::Xoshiro256Rng rng(10);
  Chain chain = MakeChain(1, rng);
  EXPECT_FALSE(OnionUnwrapLayer(chain.servers[0].secret_key, 1,
                                Bytes(kOnionRequestLayerOverhead - 1))
                   .has_value());
}

TEST(Onion, EmptyChainIsIdentity) {
  util::Xoshiro256Rng rng(11);
  Bytes payload = rng.RandomBytes(64);
  WrappedOnion onion = OnionWrap({}, 1, payload, rng);
  EXPECT_EQ(onion.data, payload);
  EXPECT_TRUE(onion.layer_keys.empty());
  auto opened = OnionOpenResponse({}, 1, payload);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
}

TEST(Onion, FreshEphemeralsPerWrap) {
  // Wrapping the same payload twice yields unlinkable ciphertexts — the
  // "new keys for each individual message" requirement of §7.
  util::Xoshiro256Rng rng(12);
  Chain chain = MakeChain(3, rng);
  Bytes payload = rng.RandomBytes(32);
  WrappedOnion a = OnionWrap(chain.public_keys, 1, payload, rng);
  WrappedOnion b = OnionWrap(chain.public_keys, 1, payload, rng);
  EXPECT_NE(a.data, b.data);
  EXPECT_NE(a.layer_keys[0], b.layer_keys[0]);
}

TEST(Onion, ResponseTamperRejected) {
  util::Xoshiro256Rng rng(13);
  Chain chain = MakeChain(2, rng);
  WrappedOnion onion = OnionWrap(chain.public_keys, 5, rng.RandomBytes(16), rng);
  Bytes response = rng.RandomBytes(64);
  Bytes sealed = OnionSealResponse(onion.layer_keys[1], 5, response);
  sealed = OnionSealResponse(onion.layer_keys[0], 5, sealed);
  sealed[3] ^= 1;
  EXPECT_FALSE(OnionOpenResponse(onion.layer_keys, 5, sealed).has_value());
}

TEST(Onion, SizeFormulasMatchPaperOverheads) {
  // §8.1: conversation messages are 256 bytes including 16 bytes encryption
  // overhead; each onion layer adds 48 bytes.
  EXPECT_EQ(OnionRequestSize(0, 1), 48u);
  EXPECT_EQ(OnionRequestSize(256, 3), 256u + 144u);
  EXPECT_EQ(OnionResponseSize(256, 3), 256u + 48u);
}

}  // namespace
}  // namespace vuvuzela::crypto

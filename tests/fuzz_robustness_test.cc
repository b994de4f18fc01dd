// Fuzz-style robustness: every boundary that accepts bytes from the network
// (parsers, frame decoders, AEAD/onion openers, the chain itself) is fed
// thousands of random and bit-flipped inputs. The invariant everywhere is
// fail-soft: return nullopt / drop the request — never crash, never read out
// of bounds, never accept garbage as valid.

#include <gtest/gtest.h>

#include "src/client/reliable.h"
#include "src/crypto/aead.h"
#include "src/crypto/box.h"
#include "src/crypto/onion.h"
#include "src/net/frame.h"
#include "src/util/random.h"
#include "src/wire/messages.h"
#include "src/wire/serde.h"

namespace vuvuzela {
namespace {

// Random byte strings of assorted lengths, biased toward interesting sizes.
util::Bytes RandomBlob(util::Rng& rng, size_t round) {
  static constexpr size_t kInteresting[] = {0,   1,   4,   12,  13,  15,  16,  17,
                                            79,  80,  81,  255, 256, 271, 272, 273,
                                            304, 415, 416, 417, 1024};
  size_t n;
  if (round % 3 == 0) {
    n = kInteresting[rng.UniformUint64(std::size(kInteresting))];
  } else {
    n = rng.UniformUint64(600);
  }
  return rng.RandomBytes(n);
}

TEST(Fuzz, WireParsersNeverCrash) {
  util::Xoshiro256Rng rng(0xf022);
  for (size_t i = 0; i < 5000; ++i) {
    util::Bytes blob = RandomBlob(rng, i);
    (void)wire::ExchangeRequest::Parse(blob);
    (void)wire::DialRequest::Parse(blob);
    (void)wire::RoundAnnouncement::Parse(blob);
    (void)net::DecodeFrame(blob);
  }
}

TEST(Fuzz, ReaderNeverOverruns) {
  util::Xoshiro256Rng rng(0xf023);
  for (size_t i = 0; i < 2000; ++i) {
    util::Bytes blob = RandomBlob(rng, i);
    wire::Reader reader(blob);
    // Random sequence of reads; all must fail-soft after exhaustion.
    for (int op = 0; op < 12; ++op) {
      switch (rng.UniformUint64(6)) {
        case 0:
          (void)reader.U8();
          break;
        case 1:
          (void)reader.U16();
          break;
        case 2:
          (void)reader.U32();
          break;
        case 3:
          (void)reader.U64();
          break;
        case 4:
          (void)reader.Raw(rng.UniformUint64(64));
          break;
        default:
          (void)reader.Var();
          break;
      }
    }
  }
}

TEST(Fuzz, AeadOpenRejectsAllRandomInputs) {
  util::Xoshiro256Rng rng(0xf024);
  crypto::AeadKey key;
  rng.Fill(key);
  int accepted = 0;
  for (size_t i = 0; i < 2000; ++i) {
    util::Bytes blob = RandomBlob(rng, i);
    if (crypto::AeadOpen(key, crypto::NonceFromUint64(i), {}, blob)) {
      accepted++;
    }
  }
  EXPECT_EQ(accepted, 0);  // forging a Poly1305 tag by chance: p ≈ 2^-128
}

TEST(Fuzz, OnionUnwrapRejectsAllRandomInputs) {
  util::Xoshiro256Rng rng(0xf025);
  auto server = crypto::X25519KeyPair::Generate(rng);
  int accepted = 0;
  for (size_t i = 0; i < 1000; ++i) {
    util::Bytes blob = RandomBlob(rng, i);
    if (crypto::OnionUnwrapLayer(server.secret_key, i, blob)) {
      accepted++;
    }
  }
  EXPECT_EQ(accepted, 0);
}

TEST(Fuzz, SealedBoxOpenRejectsAllRandomInputs) {
  util::Xoshiro256Rng rng(0xf026);
  auto recipient = crypto::X25519KeyPair::Generate(rng);
  static constexpr uint8_t kCtx[] = "ctx";
  int accepted = 0;
  for (size_t i = 0; i < 1000; ++i) {
    util::Bytes blob = RandomBlob(rng, i);
    if (crypto::SealedBoxOpen(recipient, util::ByteSpan(kCtx, 3), blob)) {
      accepted++;
    }
  }
  EXPECT_EQ(accepted, 0);
}

TEST(Fuzz, ReliableChannelSurvivesGarbageFrames) {
  util::Xoshiro256Rng rng(0xf027);
  client::ReliableChannel channel;
  channel.QueueMessage(util::Bytes{'x'});
  for (size_t i = 0; i < 3000; ++i) {
    util::Bytes blob = RandomBlob(rng, i);
    (void)channel.HandleFrame(blob);
    // The channel must stay usable throughout.
    util::Bytes frame = channel.NextFrame();
    EXPECT_GE(frame.size(), client::kFrameHeaderSize);
  }
}

TEST(Fuzz, BitflippedValidStructuresRejectOrParse) {
  // Mutate valid serialized structures one bit at a time: parsers must
  // either reject or produce a structurally valid object — never crash.
  util::Xoshiro256Rng rng(0xf028);
  wire::ExchangeRequest request;
  rng.Fill(request.dead_drop);
  rng.Fill(request.envelope);
  util::Bytes valid = request.Serialize();
  for (size_t bit = 0; bit < valid.size() * 8; bit += 7) {
    util::Bytes mutated = valid;
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto parsed = wire::ExchangeRequest::Parse(mutated);
    ASSERT_TRUE(parsed.has_value());  // fixed-size body: parse always succeeds
  }

  net::Frame frame{net::FrameType::kBatch, 7, rng.RandomBytes(100)};
  util::Bytes encoded = net::EncodeFrame(frame);
  for (size_t bit = 0; bit < encoded.size() * 8; bit += 5) {
    util::Bytes mutated = encoded;
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    (void)net::DecodeFrame(mutated);  // reject or decode; never crash
  }
}

}  // namespace
}  // namespace vuvuzela

// Poly1305 against RFC 8439 §2.5.2 and all eleven §A.3 vectors, and against
// the donna-32 reference (tests/reference_poly1305.h) on random keys and
// messages.

#include <gtest/gtest.h>

#include <cstring>

#include "src/crypto/poly1305.h"
#include "src/util/bytes.h"
#include "src/util/random.h"
#include "tests/reference_poly1305.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;
using util::HexDecode;
using util::HexEncode;

Poly1305Key KeyFromHex(const std::string& hex) {
  Bytes raw = HexDecode(hex);
  Poly1305Key key;
  std::memcpy(key.data(), raw.data(), key.size());
  return key;
}

TEST(Poly1305, Rfc8439Vector) {
  Poly1305Key key =
      KeyFromHex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const char* text = "Cryptographic Forum Research Group";
  Poly1305Tag tag =
      Poly1305::Compute(key, util::ByteSpan(reinterpret_cast<const uint8_t*>(text), 34));
  EXPECT_EQ(HexEncode(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, A3ZeroKeyZeroMessage) {
  Poly1305Key key{};
  Bytes msg(64, 0);
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "00000000000000000000000000000000");
}

TEST(Poly1305, A3Test2) {
  // r = 0, s = 36e5f6b5c5e06070f0efca96227a863e; msg = 64-byte text block.
  Poly1305Key key =
      KeyFromHex("0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e");
  const char* text =
      "Any submission to the IETF intended by the Contributor for publi"
      "cation as all or part of an IETF Internet-Draft or RFC and any s"
      "tatement made within the context of an IETF activity is consider"
      "ed an \"IETF Contribution\". Such statements include oral statemen"
      "ts in IETF sessions, as well as written and electronic communica"
      "tions made at any time or place, which are addressed to";
  util::ByteSpan msg(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "36e5f6b5c5e06070f0efca96227a863e");
}

TEST(Poly1305, A3Test3) {
  // r = 36e5f6b5c5e06070f0efca96227a863e, s = 0; same message.
  Poly1305Key key =
      KeyFromHex("36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000");
  const char* text =
      "Any submission to the IETF intended by the Contributor for publi"
      "cation as all or part of an IETF Internet-Draft or RFC and any s"
      "tatement made within the context of an IETF activity is consider"
      "ed an \"IETF Contribution\". Such statements include oral statemen"
      "ts in IETF sessions, as well as written and electronic communica"
      "tions made at any time or place, which are addressed to";
  util::ByteSpan msg(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "f3477e7cd95417af89a6b8794c310cf0");
}

TEST(Poly1305, A3Test4) {
  Poly1305Key key =
      KeyFromHex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
  const char* text =
      "'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\n"
      "All mimsy were the borogoves,\nAnd the mome raths outgrabe.";
  util::ByteSpan msg(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
  ASSERT_EQ(msg.size(), 127u);
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "4541669a7eaaee61e708dc7cbcc5eb62");
}

TEST(Poly1305, A3Test5CarryEdge) {
  // Tests a carry in the final addition: r = 2..0, msg = ff..ff.
  Poly1305Key key =
      KeyFromHex("0200000000000000000000000000000000000000000000000000000000000000");
  Bytes msg(16, 0xff);
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "03000000000000000000000000000000");
}

TEST(Poly1305, A3Test6PadAdditionOverflows) {
  // s = ff..ff: adding s to h wraps modulo 2^128.
  Poly1305Key key =
      KeyFromHex("02000000000000000000000000000000ffffffffffffffffffffffffffffffff");
  Bytes msg = HexDecode("02000000000000000000000000000000");
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "03000000000000000000000000000000");
}

TEST(Poly1305, A3Test7AllOnesLimbWithCarry) {
  Poly1305Key key =
      KeyFromHex("0100000000000000000000000000000000000000000000000000000000000000");
  Bytes msg = HexDecode(
      "ffffffffffffffffffffffffffffffff"
      "f0ffffffffffffffffffffffffffffff"
      "11000000000000000000000000000000");
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "05000000000000000000000000000000");
}

TEST(Poly1305, A3Test8ResultIsExactlyP) {
  // The polynomial part is exactly 2^130 - 5, which must reduce to 0.
  Poly1305Key key =
      KeyFromHex("0100000000000000000000000000000000000000000000000000000000000000");
  Bytes msg = HexDecode(
      "ffffffffffffffffffffffffffffffff"
      "fbfefefefefefefefefefefefefefefe"
      "01010101010101010101010101010101");
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "00000000000000000000000000000000");
}

TEST(Poly1305, A3Test9ResultIsPMinusOne) {
  // The polynomial part is 2^130 - 6, just below p: the final select keeps h.
  Poly1305Key key =
      KeyFromHex("0200000000000000000000000000000000000000000000000000000000000000");
  Bytes msg = HexDecode("fdffffffffffffffffffffffffffffff");
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "faffffffffffffffffffffffffffffff");
}

TEST(Poly1305, A3Test10ReductionMakes131BitIntermediate) {
  Poly1305Key key =
      KeyFromHex("0100000000000000040000000000000000000000000000000000000000000000");
  Bytes msg = HexDecode(
      "e33594d7505e43b90000000000000000"
      "3394d7505e4379cd0100000000000000"
      "00000000000000000000000000000000"
      "01000000000000000000000000000000");
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "14000000000000005500000000000000");
}

TEST(Poly1305, A3Test11ReductionMakes131BitResult) {
  Poly1305Key key =
      KeyFromHex("0100000000000000040000000000000000000000000000000000000000000000");
  Bytes msg = HexDecode(
      "e33594d7505e43b90000000000000000"
      "3394d7505e4379cd0100000000000000"
      "00000000000000000000000000000000");
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, msg)), "13000000000000000000000000000000");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  Poly1305Key key =
      KeyFromHex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  util::Xoshiro256Rng rng(11);
  Bytes data = rng.RandomBytes(259);
  for (size_t chunk : {1u, 5u, 15u, 16u, 17u, 100u}) {
    Poly1305 p(key);
    for (size_t off = 0; off < data.size(); off += chunk) {
      p.Update(util::ByteSpan(data.data() + off, std::min(chunk, data.size() - off)));
    }
    EXPECT_EQ(p.Finish(), Poly1305::Compute(key, data)) << "chunk=" << chunk;
  }
}

TEST(Poly1305, EmptyMessage) {
  Poly1305Key key =
      KeyFromHex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  // For an empty message the tag is just s (the pad).
  EXPECT_EQ(HexEncode(Poly1305::Compute(key, {})), "0103808afb0db2fd4abff6af4149f51b");
}

// donna-64 against the donna-32 reference: random keys and messages of every
// length up to 300, then keys and messages that push every limb to its
// maximum (all-0xff keys clamp to the largest r; all-0xff blocks carry into
// every limb).
TEST(Poly1305, MatchesDonna32Reference) {
  util::Xoshiro256Rng rng(1305);
  for (size_t size = 0; size <= 300; ++size) {
    for (int trial = 0; trial < 4; ++trial) {
      Poly1305Key key;
      rng.Fill(key);
      Bytes msg = rng.RandomBytes(size);
      ASSERT_EQ(Poly1305::Compute(key, msg), ReferencePoly1305::Compute(key, msg))
          << "size " << size << " trial " << trial;
    }
  }
  for (uint8_t key_byte : {0x00, 0x01, 0x7f, 0xff}) {
    for (uint8_t msg_byte : {0x00, 0xfe, 0xff}) {
      Poly1305Key key;
      key.fill(key_byte);
      for (size_t size : {1u, 15u, 16u, 17u, 64u, 255u, 256u, 1000u}) {
        Bytes msg(size, msg_byte);
        ASSERT_EQ(Poly1305::Compute(key, msg), ReferencePoly1305::Compute(key, msg))
            << "key byte " << int{key_byte} << " msg byte " << int{msg_byte} << " size " << size;
      }
    }
  }
}

TEST(Poly1305, IncrementalMatchesReferenceAtEveryChunking) {
  util::Xoshiro256Rng rng(1306);
  Poly1305Key key;
  rng.Fill(key);
  Bytes data = rng.RandomBytes(200);
  const Poly1305Tag expected = ReferencePoly1305::Compute(key, data);
  for (size_t chunk = 1; chunk <= 40; ++chunk) {
    Poly1305 p(key);
    for (size_t off = 0; off < data.size(); off += chunk) {
      p.Update(util::ByteSpan(data.data() + off, std::min(chunk, data.size() - off)));
    }
    EXPECT_EQ(p.Finish(), expected) << "chunk=" << chunk;
  }
}

TEST(Poly1305, FinishTwiceThrows) {
  Poly1305 p(Poly1305Key{});
  p.Finish();
  EXPECT_THROW(p.Finish(), std::logic_error);
}

}  // namespace
}  // namespace vuvuzela::crypto

// X25519 against RFC 7748 §5.2 scalar-multiplication vectors (including the
// 1,000-iteration vector) and the §6.1 Diffie-Hellman vector, the batch
// kernels behind X25519Many and X25519Lanes against that ladder, and the
// comb kernels behind X25519CombLanes against X25519Precomp::Mult and it.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/crypto/x25519.h"
#include "src/crypto/x25519_internal.h"
#include "src/crypto/x25519_precomp.h"
#include "src/util/bytes.h"
#include "src/util/random.h"

namespace vuvuzela::crypto {
namespace {

using util::Bytes;
using util::HexDecode;
using util::HexEncode;

template <typename Array>
Array FromHex(const std::string& hex) {
  Bytes raw = HexDecode(hex);
  Array out;
  EXPECT_EQ(raw.size(), out.size());
  std::memcpy(out.data(), raw.data(), out.size());
  return out;
}

TEST(X25519, Rfc7748Vector1) {
  auto scalar = FromHex<X25519SecretKey>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = FromHex<X25519PublicKey>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(HexEncode(X25519(scalar, point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  auto scalar = FromHex<X25519SecretKey>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point = FromHex<X25519PublicKey>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(HexEncode(X25519(scalar, point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748IteratedOnce) {
  X25519SecretKey k{};
  k[0] = 9;
  X25519PublicKey u{};
  u[0] = 9;
  auto result = X25519(k, u);
  EXPECT_EQ(HexEncode(result),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
}

TEST(X25519, Rfc7748Iterated1000) {
  X25519SecretKey k{};
  k[0] = 9;
  X25519PublicKey u{};
  u[0] = 9;
  for (int i = 0; i < 1000; ++i) {
    auto result = X25519(k, u);
    std::memcpy(u.data(), k.data(), 32);
    std::memcpy(k.data(), result.data(), 32);
  }
  EXPECT_EQ(HexEncode(k), "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, Rfc7748DiffieHellman) {
  auto alice_sk = FromHex<X25519SecretKey>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto bob_sk = FromHex<X25519SecretKey>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  X25519PublicKey alice_pk = X25519BasePoint(alice_sk);
  X25519PublicKey bob_pk = X25519BasePoint(bob_sk);
  EXPECT_EQ(HexEncode(alice_pk),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(HexEncode(bob_pk),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  auto shared_ab = X25519(alice_sk, bob_pk);
  auto shared_ba = X25519(bob_sk, alice_pk);
  EXPECT_EQ(shared_ab, shared_ba);
  EXPECT_EQ(HexEncode(shared_ab),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, GeneratedKeyPairsAgree) {
  util::Xoshiro256Rng rng(2024);
  for (int i = 0; i < 8; ++i) {
    auto a = X25519KeyPair::Generate(rng);
    auto b = X25519KeyPair::Generate(rng);
    EXPECT_EQ(X25519(a.secret_key, b.public_key), X25519(b.secret_key, a.public_key));
  }
}

TEST(X25519, DistinctSecretsDistinctPublics) {
  util::Xoshiro256Rng rng(55);
  auto a = X25519KeyPair::Generate(rng);
  auto b = X25519KeyPair::Generate(rng);
  EXPECT_NE(a.public_key, b.public_key);
}

TEST(X25519, ClampingIgnoresScalarNoiseBits) {
  // The three low bits and the top bit of the scalar are clamped, so flipping
  // them must not change the result.
  util::Xoshiro256Rng rng(66);
  auto kp = X25519KeyPair::Generate(rng);
  X25519SecretKey noisy = kp.secret_key;
  noisy[0] ^= 0x07;
  noisy[31] ^= 0x80;
  EXPECT_EQ(X25519BasePoint(noisy), kp.public_key);
}

TEST(X25519, HighBitOfPointIsMasked) {
  // RFC 7748: implementations MUST mask the most significant bit of u.
  util::Xoshiro256Rng rng(67);
  auto kp = X25519KeyPair::Generate(rng);
  X25519PublicKey point = kp.public_key;
  X25519PublicKey masked = point;
  masked[31] |= 0x80;
  X25519SecretKey s;
  rng.Fill(s);
  EXPECT_EQ(X25519(s, point), X25519(s, masked));
}

// --- Batch kernels ----------------------------------------------------------
//
// X25519Many must equal X25519 byte for byte, whichever kernel this CPU
// selects, and so must the IFMA kernel called directly. Each property runs
// once through the dispatcher and once through the IFMA kernel (skipped
// where the CPU lacks it).

using Secrets = std::vector<X25519SharedSecret>;
using BatchKernel = Secrets (*)(const X25519SecretKey&, const std::vector<X25519PublicKey>&);

Secrets ViaDispatcher(const X25519SecretKey& scalar, const std::vector<X25519PublicKey>& points) {
  Secrets out(points.size());
  X25519Many(scalar, points, out);
  return out;
}

#ifdef VUVUZELA_X25519_IFMA_KERNEL
Secrets ViaIfma(const X25519SecretKey& scalar, const std::vector<X25519PublicKey>& points) {
  Secrets out(points.size());
  internal::X25519LanesIfma(&scalar, 0, points.data(), out.data(), points.size());
  return out;
}
#endif

// The IFMA kernel, or null where this build or CPU cannot run it.
BatchKernel IfmaKernel() {
#ifdef VUVUZELA_X25519_IFMA_KERNEL
  if (internal::CpuHasAvx512Ifma()) {
    return ViaIfma;
  }
#endif
  return nullptr;
}

// 2^255 - 19, little-endian.
X25519PublicKey FieldPrime() {
  X25519PublicKey p;
  p.fill(0xff);
  p[0] = 0xed;
  p[31] = 0x7f;
  return p;
}

// a + b mod 2^256, little-endian.
X25519PublicKey Add256(const X25519PublicKey& a, const X25519PublicKey& b) {
  X25519PublicKey out;
  unsigned carry = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    unsigned sum = a[i] + b[i] + carry;
    out[i] = static_cast<uint8_t>(sum);
    carry = sum >> 8;
  }
  return out;
}

X25519PublicKey PrimeMinusOne() {
  X25519PublicKey u = FieldPrime();
  u[0] = 0xec;
  return u;
}

X25519PublicKey Small(uint8_t v) {
  X25519PublicKey u{};
  u[0] = v;
  return u;
}

// Runs `points` through `kernel` inside full 8-point groups (the point list
// is padded by repeating it, so every point takes a ladder lane rather than
// a short tail) and compares each result with the one-point ladder.
void ExpectMatchesLadder(BatchKernel kernel, const X25519SecretKey& scalar,
                         std::vector<X25519PublicKey> points) {
  const size_t n = points.size();
  for (size_t i = n; i % 8 != 0 || i < 8; ++i) {
    points.push_back(points[i % n]);
  }
  Secrets batch = kernel(scalar, points);
  ASSERT_EQ(batch.size(), points.size());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(HexEncode(batch[i]), HexEncode(X25519(scalar, points[i])))
        << "point " << i << " u=" << HexEncode(points[i]);
  }
}

void CheckRfc7748Vectors(BatchKernel kernel) {
  util::Xoshiro256Rng rng(7748);
  auto scalar1 = FromHex<X25519SecretKey>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point1 = FromHex<X25519PublicKey>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  auto scalar2 = FromHex<X25519SecretKey>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point2 = FromHex<X25519PublicKey>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  // Each vector's point shares a group with seven random points.
  std::vector<X25519PublicKey> group(8);
  for (auto& p : group) {
    rng.Fill(p);
  }
  group[3] = point1;
  EXPECT_EQ(HexEncode(kernel(scalar1, group)[3]),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
  group[6] = point2;
  EXPECT_EQ(HexEncode(kernel(scalar2, group)[6]),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");

  // The iterated vector, its point moving through every lane.
  X25519SecretKey k = Small(9);
  X25519PublicKey u = Small(9);
  for (int i = 1; i <= 1000; ++i) {
    group[i % 8] = u;
    X25519SharedSecret result = kernel(k, group)[i % 8];
    u = k;
    k = result;
    if (i == 1) {
      EXPECT_EQ(HexEncode(k), "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(HexEncode(k), "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// 10,000 random (scalar, point) pairs: 1,250 scalars, eight points each.
void CheckRandomPairs(BatchKernel kernel) {
  util::Xoshiro256Rng rng(2510);
  for (int s = 0; s < 1250; ++s) {
    X25519SecretKey scalar;
    rng.Fill(scalar);
    std::vector<X25519PublicKey> points(8);
    for (auto& p : points) {
      rng.Fill(p);
    }
    ExpectMatchesLadder(kernel, scalar, points);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Points the decoder must treat exactly as the ladder does: the high bit
// set, non-canonical u in [p, 2^255) with and without it, and points on the
// twist.
void CheckEdgePoints(BatchKernel kernel) {
  util::Xoshiro256Rng rng(2511);
  std::vector<X25519PublicKey> points;
  for (int i = 0; i < 8; ++i) {
    X25519PublicKey p = X25519KeyPair::Generate(rng).public_key;
    p[31] |= 0x80;
    points.push_back(p);
  }
  for (uint8_t i = 0; i < 19; ++i) {
    X25519PublicKey u = Add256(FieldPrime(), Small(i));  // p + i < 2^255
    points.push_back(u);
    u[31] |= 0x80;
    points.push_back(u);
  }
  points.push_back(Add256(FieldPrime(), Small(19)));  // 2^255: the masked 0
  size_t twist = 0;
  while (twist < 16) {
    X25519PublicKey u;
    rng.Fill(u);
    u[31] &= 0x7f;
    if (!X25519Precomp::Create(u)) {  // no curve point has this u
      points.push_back(u);
      ++twist;
    }
  }
  for (int s = 0; s < 4; ++s) {
    X25519SecretKey scalar;
    rng.Fill(scalar);
    ExpectMatchesLadder(kernel, scalar, points);
  }
}

// Every low-order u (0, 1, p - 1 and the two order-8 points) and each plus
// p, as a 256-bit string. The low-order ones give the all-zero secret in
// their own lane, whatever their neighbours hold.
void CheckLowOrderPoints(BatchKernel kernel) {
  const std::vector<X25519PublicKey> low_order = {
      Small(0),
      Small(1),
      PrimeMinusOne(),
      FromHex<X25519PublicKey>(
          "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
      FromHex<X25519PublicKey>(
          "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
  };
  std::vector<X25519PublicKey> points = low_order;
  for (const X25519PublicKey& u : low_order) {
    points.push_back(Add256(u, FieldPrime()));
  }
  util::Xoshiro256Rng rng(2512);
  for (int s = 0; s < 4; ++s) {
    X25519SecretKey scalar;
    rng.Fill(scalar);
    ExpectMatchesLadder(kernel, scalar, points);
    // Mixed with random points, so zero and nonzero lanes share ladders.
    std::vector<X25519PublicKey> mixed;
    for (const X25519PublicKey& u : low_order) {
      mixed.push_back(u);
      X25519PublicKey r;
      rng.Fill(r);
      mixed.push_back(r);
    }
    Secrets out = kernel(scalar, mixed);
    for (size_t i = 0; i < mixed.size(); ++i) {
      EXPECT_EQ(out[i], X25519(scalar, mixed[i])) << "point " << i;
      if (i % 2 == 0) {
        EXPECT_EQ(out[i], X25519SharedSecret{}) << "low-order point " << i / 2;
      }
    }
  }
}

// Every batch length from 0 to 17, and 64, with repeated points, straight
// through the kernel: whole groups, padded tails and ladder tails.
void CheckBatchLengths(BatchKernel kernel) {
  util::Xoshiro256Rng rng(2513);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 17; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(64);
  for (size_t n : lengths) {
    X25519SecretKey scalar;
    rng.Fill(scalar);
    std::vector<X25519PublicKey> points(n);
    for (size_t i = 0; i < n; ++i) {
      if (i % 3 == 2) {
        points[i] = points[rng.UniformUint64(i)];
      } else {
        rng.Fill(points[i]);
      }
    }
    Secrets out = kernel(scalar, points);
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], X25519(scalar, points[i])) << "length " << n << ", point " << i;
    }
  }
}

// --- A scalar per lane --------------------------------------------------------
//
// X25519Lanes gives each point its own scalar. Every lane of every length
// must equal the one-point ladder, through the dispatcher and through the
// IFMA kernel directly.

using Scalars = std::vector<X25519SecretKey>;
using Points = std::vector<X25519PublicKey>;
using LanesKernel = Secrets (*)(const Scalars&, const Points&);

Secrets LanesViaDispatcher(const Scalars& scalars, const Points& points) {
  Secrets out(points.size());
  X25519Lanes(scalars, points, out);
  return out;
}

#ifdef VUVUZELA_X25519_IFMA_KERNEL
Secrets LanesViaIfma(const Scalars& scalars, const Points& points) {
  Secrets out(points.size());
  internal::X25519LanesIfma(scalars.data(), 1, points.data(), out.data(), points.size());
  return out;
}
#endif

LanesKernel IfmaLanesKernel() {
#ifdef VUVUZELA_X25519_IFMA_KERNEL
  if (internal::CpuHasAvx512Ifma()) {
    return LanesViaIfma;
  }
#endif
  return nullptr;
}

// Lane i's scalar: random, then by i mod 4 the bits clamping touches (the
// low three, bit 254 and bit 255) left random, all set, all cleared, or
// flipped, so clamping is checked per lane.
X25519SecretKey LaneScalar(util::Rng& rng, size_t i) {
  X25519SecretKey s;
  rng.Fill(s);
  switch (i % 4) {
    case 1:
      s[0] |= 7;
      s[31] |= 0xc0;
      break;
    case 2:
      s[0] &= 0xf8;
      s[31] &= 0x3f;
      break;
    case 3:
      s[0] ^= 7;
      s[31] ^= 0xc0;
      break;
  }
  return s;
}

// Lane i's point: mostly random curve points, with low-order points (whose
// lane gives the all-zero secret), a u with bit 255 set and a u >= p among
// them.
X25519PublicKey LanePoint(util::Rng& rng, size_t i) {
  static const Points kLowOrder = {
      Small(0), Small(1), PrimeMinusOne(),
      FromHex<X25519PublicKey>("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800")};
  X25519PublicKey u = X25519KeyPair::Generate(rng).public_key;
  switch (i % 7) {
    case 2:
      return kLowOrder[(i / 7) % kLowOrder.size()];
    case 4:
      u[31] |= 0x80;
      return u;
    case 5:
      // p + 2 <= u < 2^255; p and p + 1 would be the low-order 0 and 1.
      return Add256(FieldPrime(), Small(static_cast<uint8_t>(2 + i % 17)));
    default:
      return u;
  }
}

void CheckLanesEveryLength(LanesKernel kernel) {
  util::Xoshiro256Rng rng(2514);
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 17; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(64);
  for (size_t n : lengths) {
    Scalars scalars(n);
    Points points(n);
    for (size_t i = 0; i < n; ++i) {
      scalars[i] = LaneScalar(rng, i);
      points[i] = LanePoint(rng, i);
    }
    for (size_t i = 1; i < n; ++i) {
      ASSERT_NE(scalars[i], scalars[i - 1]);
    }
    Secrets out = kernel(scalars, points);
    ASSERT_EQ(out.size(), n);
    size_t zero_lanes = 0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(HexEncode(out[i]), HexEncode(X25519(scalars[i], points[i])))
          << "length " << n << ", lane " << i;
      zero_lanes += out[i] == X25519SharedSecret{} ? 1 : 0;
    }
    // Exactly the low-order lanes (i = 2 mod 7) give the all-zero secret.
    EXPECT_EQ(zero_lanes, (n + 4) / 7) << "length " << n;
  }
}

// Every lane holding one scalar is X25519Many, byte for byte.
void CheckLanesEqualScalarsAreMany(LanesKernel kernel) {
  util::Xoshiro256Rng rng(2515);
  for (size_t n : {1u, 7u, 8u, 9u, 64u}) {
    X25519SecretKey scalar = LaneScalar(rng, n);
    Points points(n);
    for (size_t i = 0; i < n; ++i) {
      points[i] = LanePoint(rng, i);
    }
    Secrets many(n);
    X25519Many(scalar, points, many);
    EXPECT_EQ(kernel(Scalars(n, scalar), points), many) << "length " << n;
  }
}

TEST(X25519Lanes, DispatcherMatchesLadderOnEveryLength) {
  CheckLanesEveryLength(LanesViaDispatcher);
}
TEST(X25519Lanes, DispatcherEqualScalarsMatchMany) {
  CheckLanesEqualScalarsAreMany(LanesViaDispatcher);
}
TEST(X25519Lanes, DispatcherMatchesRfc7748Vectors) {
  auto scalar1 = FromHex<X25519SecretKey>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point1 = FromHex<X25519PublicKey>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  auto scalar2 = FromHex<X25519SecretKey>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point2 = FromHex<X25519PublicKey>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  // The two vectors side by side in one ladder, among six random pairs.
  util::Xoshiro256Rng rng(2516);
  Scalars scalars(8);
  Points points(8);
  for (size_t i = 0; i < 8; ++i) {
    scalars[i] = LaneScalar(rng, i);
    points[i] = LanePoint(rng, i);
  }
  scalars[2] = scalar1;
  points[2] = point1;
  scalars[5] = scalar2;
  points[5] = point2;
  Secrets out = LanesViaDispatcher(scalars, points);
  EXPECT_EQ(HexEncode(out[2]), "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
  EXPECT_EQ(HexEncode(out[5]), "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}
TEST(X25519Lanes, RejectsMismatchedSpans) {
  Scalars scalars(3);
  Points points(3);
  Secrets out(3);
  Secrets short_out(2);
  Scalars short_scalars(2);
  EXPECT_THROW(X25519Lanes(scalars, points, short_out), std::invalid_argument);
  EXPECT_THROW(X25519Lanes(short_scalars, points, out), std::invalid_argument);
  X25519Lanes({}, {}, {});  // an empty batch is fine
}
TEST(X25519Lanes, IfmaMatchesLadderOnEveryLength) {
  LanesKernel kernel = IfmaLanesKernel();
  if (kernel == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  CheckLanesEveryLength(kernel);
}
TEST(X25519Lanes, IfmaEqualScalarsMatchMany) {
  LanesKernel kernel = IfmaLanesKernel();
  if (kernel == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  CheckLanesEqualScalarsAreMany(kernel);
}

TEST(X25519Kernels, SelectedLanesFollowCpu) {
  EXPECT_EQ(X25519ManyLanes(), internal::CpuHasAvx512Ifma() ? 8u : 1u);
}

TEST(X25519Kernels, ManyRejectsMismatchedOutput) {
  std::vector<X25519PublicKey> points(3);
  Secrets out(2);
  EXPECT_THROW(X25519Many(X25519SecretKey{}, points, out), std::invalid_argument);
}

TEST(X25519Kernels, DispatcherMatchesRfc7748Vectors) { CheckRfc7748Vectors(ViaDispatcher); }
TEST(X25519Kernels, DispatcherMatchesLadderOnRandomPairs) { CheckRandomPairs(ViaDispatcher); }
TEST(X25519Kernels, DispatcherMatchesLadderOnEdgePoints) { CheckEdgePoints(ViaDispatcher); }
TEST(X25519Kernels, DispatcherMatchesLadderOnLowOrderPoints) {
  CheckLowOrderPoints(ViaDispatcher);
}
TEST(X25519Kernels, DispatcherMatchesLadderOnEveryBatchLength) {
  CheckBatchLengths(ViaDispatcher);
}

TEST(X25519Kernels, IfmaMatchesRfc7748Vectors) {
  BatchKernel kernel = IfmaKernel();
  if (kernel == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  CheckRfc7748Vectors(kernel);
}
TEST(X25519Kernels, IfmaMatchesLadderOnRandomPairs) {
  BatchKernel kernel = IfmaKernel();
  if (kernel == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  CheckRandomPairs(kernel);
}
TEST(X25519Kernels, IfmaMatchesLadderOnEdgePoints) {
  BatchKernel kernel = IfmaKernel();
  if (kernel == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  CheckEdgePoints(kernel);
}
TEST(X25519Kernels, IfmaMatchesLadderOnLowOrderPoints) {
  BatchKernel kernel = IfmaKernel();
  if (kernel == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  CheckLowOrderPoints(kernel);
}
TEST(X25519Kernels, IfmaMatchesLadderOnEveryBatchLength) {
  BatchKernel kernel = IfmaKernel();
  if (kernel == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  CheckBatchLengths(kernel);
}

// --- X25519CombLanes: eight scalars per comb over one table ----------------

X25519CombKernel IfmaCombKernel() {
#ifdef VUVUZELA_X25519_IFMA_KERNEL
  if (internal::CpuHasAvx512Ifma()) {
    return internal::X25519CombLanesIfma;
  }
#endif
  return nullptr;
}

// Comb kernels under test: the dispatcher X25519CombLanes, and the portable
// kernel directly, so its lane handling is checked on every CPU.
void CombViaDispatcher(const X25519Precomp& table, const X25519SecretKey* scalars,
                       X25519SharedSecret* out, size_t n) {
  X25519CombLanes(table, {scalars, n}, {out, n});
}

// The tables the comb serves: the base point (keygen) and a suffix key (a
// layer DH).
std::vector<X25519Precomp> CombTables() {
  util::Xoshiro256Rng rng(2517);
  std::vector<X25519Precomp> tables;
  tables.push_back(X25519BasePointPrecomp());
  tables.push_back(*X25519Precomp::Create(X25519KeyPair::Generate(rng).public_key));
  return tables;
}

// Every n from 1 to 17 and 64, with LaneScalar's clamped bits by lane, and
// lanes whose digits reach the recoding's ends: the all-zero and all-ones
// scalars, and 0x88 bytes, whose digits are all 8 before the carry.
void CheckCombEveryLength(X25519CombKernel kernel) {
  util::Xoshiro256Rng rng(2518);
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 17; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(64);
  for (const X25519Precomp& table : CombTables()) {
    for (size_t n : lengths) {
      Scalars scalars(n);
      for (size_t i = 0; i < n; ++i) {
        scalars[i] = LaneScalar(rng, i);
        if (i % 11 == 10) {
          scalars[i].fill(static_cast<uint8_t>(i % 3 == 0 ? 0x00 : i % 3 == 1 ? 0xff : 0x88));
        }
      }
      Secrets out(n);
      kernel(table, scalars.data(), out.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(HexEncode(out[i]), HexEncode(table.Mult(scalars[i])))
            << "length " << n << ", lane " << i;
        ASSERT_EQ(out[i], X25519(scalars[i], table.point())) << "length " << n << ", lane " << i;
      }
    }
  }
}

TEST(X25519CombLanes, DispatcherMatchesMultAndLadderOnEveryLength) {
  CheckCombEveryLength(CombViaDispatcher);
}
TEST(X25519CombLanes, PortableMatchesMultAndLadderOnEveryLength) {
  CheckCombEveryLength(internal::X25519CombLanesPortable);
}
TEST(X25519CombLanes, IfmaMatchesMultAndLadderOnEveryLength) {
  X25519CombKernel kernel = IfmaCombKernel();
  if (kernel == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  CheckCombEveryLength(kernel);
}
TEST(X25519CombLanes, SelectedKernelFollowsCpu) {
  X25519CombKernel expected = IfmaCombKernel();
  if (expected == nullptr) {
    expected = internal::X25519CombLanesPortable;
  }
  EXPECT_EQ(internal::SelectedCombKernel(), expected);
}
TEST(X25519CombLanes, RejectsMismatchedSpans) {
  Scalars scalars(3);
  Secrets short_out(2);
  EXPECT_THROW(X25519CombLanes(X25519BasePointPrecomp(), scalars, short_out),
               std::invalid_argument);
  X25519CombLanes(X25519BasePointPrecomp(), {}, {});  // an empty batch is fine
}

}  // namespace
}  // namespace vuvuzela::crypto

// X25519 Diffie-Hellman (RFC 7748) over Curve25519.
//
// This is the workhorse primitive of Vuvuzela: every onion layer on every
// request costs each server one X25519 operation, and the paper's end-to-end
// latency analysis (§8.2, "Dominant costs") is expressed in DH ops/sec. The
// field arithmetic uses five 51-bit limbs with unsigned __int128 products
// (the portable "donna-c64" shape) and a constant-time Montgomery ladder.
// Validated against the RFC 7748 §5.2 vectors, including the 1,000-iteration
// vector, in tests/crypto_x25519_test.cc. X25519Lanes batches (scalar, point)
// pairs, and X25519Many one scalar over many points, through one AVX-512 IFMA
// ladder with a scalar per lane where the CPU has it. The hop's cache-miss
// DH (X25519Many) runs on it. Fixed-base multiplications take
// X25519Precomp's comb tables instead (x25519_precomp.h): client keygen, and
// a hop's cover-onion keygens and layer DHs, eight scalars per comb on IFMA
// (X25519CombLanes, via crypto::CoverOnionWrapper).

#ifndef VUVUZELA_SRC_CRYPTO_X25519_H_
#define VUVUZELA_SRC_CRYPTO_X25519_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/util/bytes.h"
#include "src/util/random.h"

namespace vuvuzela::crypto {

inline constexpr size_t kX25519KeySize = 32;

using X25519PublicKey = std::array<uint8_t, kX25519KeySize>;
using X25519SecretKey = std::array<uint8_t, kX25519KeySize>;
using X25519SharedSecret = std::array<uint8_t, kX25519KeySize>;

// Scalar multiplication: out = scalar * point (u-coordinate). The scalar is
// clamped per RFC 7748 before use.
X25519SharedSecret X25519(const X25519SecretKey& scalar, const X25519PublicKey& point);

// out[i] = X25519(scalars[i], points[i]) for every i, byte-identical to
// calling X25519 in a loop. `scalars` and `out` must be exactly as long as
// `points` (std::invalid_argument otherwise). On a CPU with AVX-512 IFMA it
// runs eight pairs per Montgomery ladder; elsewhere it is that loop. The
// kernel is chosen once per process, on first use.
void X25519Lanes(std::span<const X25519SecretKey> scalars,
                 std::span<const X25519PublicKey> points, std::span<X25519SharedSecret> out);

// out[i] = X25519(scalar, points[i]) for every i: one scalar (a hop's secret
// key) times many points, X25519Lanes with every lane's scalar equal. `out`
// must be exactly as long as `points`.
void X25519Many(const X25519SecretKey& scalar, std::span<const X25519PublicKey> points,
                std::span<X25519SharedSecret> out);

// Pairs the selected X25519Lanes / X25519Many kernel multiplies per ladder:
// 8 on AVX-512 IFMA, 1 on the portable loop.
size_t X25519ManyLanes();

// Computes the public key for `scalar` (scalar * base point 9).
X25519PublicKey X25519BasePoint(const X25519SecretKey& scalar);

// Key pair for X25519.
struct X25519KeyPair {
  X25519PublicKey public_key;
  X25519SecretKey secret_key;

  // Generates a fresh key pair from `rng`.
  static X25519KeyPair Generate(util::Rng& rng);
};

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_X25519_H_

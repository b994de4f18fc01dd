#include "src/crypto/x25519.h"

#include <cstring>
#include <stdexcept>

#include "src/crypto/fe25519.h"
#include "src/crypto/x25519_internal.h"
#include "src/crypto/x25519_precomp.h"

namespace vuvuzela::crypto {

namespace {

using fe25519::Fe;
using fe25519::FeAdd;
using fe25519::FeCswap;
using fe25519::FeFromBytes;
using fe25519::FeInvert;
using fe25519::FeMul;
using fe25519::FeMul121665;
using fe25519::FeSquare;
using fe25519::FeSub;
using fe25519::FeToBytes;

// Constant-time Montgomery ladder (RFC 7748 §5). This is the reference for
// every other scalar-multiplication path in the codebase: X25519Precomp must
// produce bit-identical outputs for all points on the curve, which
// tests/crypto_x25519_test.cc pins down against this function.
void ScalarMult(uint8_t out[32], const uint8_t scalar[32], const uint8_t point[32]) {
  uint8_t e[32];
  std::memcpy(e, scalar, 32);
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;

  uint8_t u[32];
  std::memcpy(u, point, 32);
  u[31] &= 127;  // RFC 7748: mask the unused high bit of the u-coordinate

  Fe x1;
  FeFromBytes(x1, u);
  Fe x2{{1, 0, 0, 0, 0}};
  Fe z2{{0, 0, 0, 0, 0}};
  Fe x3 = x1;
  Fe z3{{1, 0, 0, 0, 0}};

  uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    uint64_t k_t = (e[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    FeCswap(swap, x2, x3);
    FeCswap(swap, z2, z3);
    swap = k_t;

    Fe a, aa, b, bb, eiv, c, d, da, cb, tmp;
    FeAdd(a, x2, z2);
    FeSquare(aa, a);
    FeSub(b, x2, z2);
    FeSquare(bb, b);
    FeSub(eiv, aa, bb);
    FeAdd(c, x3, z3);
    FeSub(d, x3, z3);
    FeMul(da, d, a);
    FeMul(cb, c, b);

    FeAdd(tmp, da, cb);
    FeSquare(x3, tmp);
    FeSub(tmp, da, cb);
    FeSquare(tmp, tmp);
    FeMul(z3, x1, tmp);

    FeMul(x2, aa, bb);
    FeMul121665(tmp, eiv);
    FeAdd(tmp, aa, tmp);
    FeMul(z2, eiv, tmp);
  }
  FeCswap(swap, x2, x3);
  FeCswap(swap, z2, z3);

  Fe z_inv, result;
  FeInvert(z_inv, z2);
  FeMul(result, x2, z_inv);
  FeToBytes(out, result);
}

using LanesKernel = void (*)(const X25519SecretKey* scalars, size_t scalar_stride,
                            const X25519PublicKey* points, X25519SharedSecret* out, size_t n);

// Chosen on first use, like Sha256's kernel, so a static initialiser in
// another translation unit still gets one.
LanesKernel ActiveKernel() {
#ifdef VUVUZELA_X25519_IFMA_KERNEL
  static const LanesKernel kernel =
      internal::CpuHasAvx512Ifma() ? internal::X25519LanesIfma : internal::X25519LanesPortable;
  return kernel;
#else
  return internal::X25519LanesPortable;
#endif
}

}  // namespace

namespace internal {

void X25519LanesPortable(const X25519SecretKey* scalars, size_t scalar_stride,
                         const X25519PublicKey* points, X25519SharedSecret* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    ScalarMult(out[i].data(), scalars[i * scalar_stride].data(), points[i].data());
  }
}

}  // namespace internal

void X25519Lanes(std::span<const X25519SecretKey> scalars,
                 std::span<const X25519PublicKey> points, std::span<X25519SharedSecret> out) {
  if (scalars.size() != points.size() || out.size() != points.size()) {
    throw std::invalid_argument("X25519Lanes: scalar, point and output counts differ");
  }
  ActiveKernel()(scalars.data(), 1, points.data(), out.data(), points.size());
}

void X25519Many(const X25519SecretKey& scalar, std::span<const X25519PublicKey> points,
                std::span<X25519SharedSecret> out) {
  if (out.size() != points.size()) {
    throw std::invalid_argument("X25519Many: output and point counts differ");
  }
  ActiveKernel()(&scalar, 0, points.data(), out.data(), points.size());
}

size_t X25519ManyLanes() {
#ifdef VUVUZELA_X25519_IFMA_KERNEL
  if (ActiveKernel() == internal::X25519LanesIfma) {
    return internal::kX25519IfmaLanes;
  }
#endif
  return 1;
}

X25519SharedSecret X25519(const X25519SecretKey& scalar, const X25519PublicKey& point) {
  X25519SharedSecret out;
  ScalarMult(out.data(), scalar.data(), point.data());
  return out;
}

X25519PublicKey X25519BasePoint(const X25519SecretKey& scalar) {
  static constexpr uint8_t kBasePoint[32] = {9};
  X25519PublicKey out;
  ScalarMult(out.data(), scalar.data(), kBasePoint);
  return out;
}

X25519KeyPair X25519KeyPair::Generate(util::Rng& rng) {
  X25519KeyPair kp;
  rng.Fill(kp.secret_key);
  // Fixed-base scalar multiplication through the precomputed base-point
  // table — ~3x faster than the ladder and proven bit-identical to
  // X25519BasePoint by the precomp conformance tests. Clients generate their
  // onion keys here; a hop's cover onions take the same table through
  // X25519CombLanes.
  kp.public_key = X25519BasePointPrecomp().Mult(kp.secret_key);
  return kp;
}

}  // namespace vuvuzela::crypto

// Precomputed-table X25519 for *fixed* points.
//
// The Montgomery ladder costs ~255 ladder steps regardless of the point. When
// the point is known in advance — the base point (every key generation) or a
// hop's long-term public key (every cover-onion layer a mix server wraps) —
// a signed radix-16 comb over the birationally-equivalent twisted Edwards
// curve does the same multiplication in 64 cached additions + 4 doublings,
// roughly 3x faster than one ladder. The tables are built once per point and
// reused for every subsequent multiplication.
//
// Who uses it: clients, for their onion keys (X25519KeyPair::Generate), and
// every mix server that wraps cover onions. CoverOnionWrapper builds a table
// per chain-suffix key once, beside the process's base-point table, and
// runs each layer's keygen and DH through X25519CombLanes: on AVX-512 IFMA
// eight scalars share one comb over one table, elsewhere it is Mult in a
// loop. The last hop wraps no cover onions and builds no table.
//
// Correctness contract: for every point on the curve, Mult(scalar) is
// bit-identical to X25519(scalar, point) — the Edwards comb computes the same
// group operation, and the Montgomery u-coordinate of k·P is independent of
// which square root is chosen when lifting P. The conformance suite pins this
// against the ladder for the RFC 7748 vectors and thousands of random pairs.
// Points on the *twist* (u-coordinates not on the curve) cannot be lifted;
// Create returns nullopt and callers fall back to the ladder. Honest Vuvuzela
// keys are always curve points (they are sk·9).
//
// Threading/lifetime: a built X25519Precomp is immutable; Mult is const,
// allocation-free, and safe to call concurrently from any number of threads.
// X25519BasePointPrecomp() returns a process-lifetime singleton (thread-safe
// magic-static initialization). Scalar handling is constant-time (branch-free
// digit recoding and table selection), matching the ladder's discipline;
// tests/constant_time_test.cc checks Mult and both X25519CombLanes kernels by
// their retired-instruction and branch counts.

#ifndef VUVUZELA_SRC_CRYPTO_X25519_PRECOMP_H_
#define VUVUZELA_SRC_CRYPTO_X25519_PRECOMP_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <span>

#include "src/crypto/fe25519.h"
#include "src/crypto/x25519.h"

namespace vuvuzela::crypto {

class X25519Precomp;

// A comb kernel: out[i] = table.Mult(scalars[i]) for i < n.
using X25519CombKernel = void (*)(const X25519Precomp& table, const X25519SecretKey* scalars,
                                  X25519SharedSecret* out, size_t n);

namespace internal {
void X25519CombLanesIfma(const X25519Precomp& table, const X25519SecretKey* scalars,
                         X25519SharedSecret* out, size_t n);
}  // namespace internal

class X25519Precomp {
 public:
  // Builds the 32x8 comb table for `point` (a Montgomery u-coordinate) in
  // its own heap slot, where it stays: the table (about 30 KB) is filled in
  // place, with no copy and no heap temporaries. Returns null if the point
  // is not on the curve (it is on the twist or malformed) — fall back to the
  // ladder. Cost: ~256 point operations + eight field inversions, well
  // under a millisecond.
  static std::unique_ptr<X25519Precomp> New(const X25519PublicKey& point);

  // The same table by value (New, then one copy), for callers that keep
  // tables in a container of their own. nullopt where New returns null.
  static std::optional<X25519Precomp> Create(const X25519PublicKey& point);

  // Computes the shared secret scalar*point, bit-identical to
  // X25519(scalar, point). The scalar is clamped per RFC 7748, exactly as the
  // ladder clamps it.
  X25519SharedSecret Mult(const X25519SecretKey& scalar) const;

  // The point this table was built for.
  const X25519PublicKey& point() const { return point_; }

  // Affine "niels" form of a precomputed point: (y+x, y-x, 2dxy). Every
  // limb of a table entry is canonical (below 2^51): the IFMA comb's
  // vpmadd52 reads only a limb's low 52 bits.
  struct Niels {
    fe25519::Fe y_plus_x;
    fe25519::Fe y_minus_x;
    fe25519::Fe xy2d;
  };

 private:
  friend void internal::X25519CombLanesIfma(const X25519Precomp&, const X25519SecretKey*,
                                            X25519SharedSecret*, size_t);

  X25519Precomp() = default;

  // Fills table_ and point_ for `point`; false if it does not lift.
  bool Fill(const X25519PublicKey& point);

  void Select(Niels& out, int level, int8_t digit) const;

  // table_[i][j-1] = j * 16^(2i) * P in affine niels form, i in [0,32),
  // j in [1,8].
  Niels table_[32][8];
  X25519PublicKey point_{};
};

// Comb table for the curve base point (u = 9), built once per process.
// X25519KeyPair::Generate routes through this.
const X25519Precomp& X25519BasePointPrecomp();

// Fixed-base scalar multiplication via the base-point table; bit-identical to
// X25519BasePoint (which remains the ladder reference).
X25519PublicKey X25519BasePointFast(const X25519SecretKey& scalar);

// out[i] = table.Mult(scalars[i]) for every i, and so X25519(scalars[i],
// table.point()), byte for byte. `out` must be exactly as long as `scalars`
// (std::invalid_argument otherwise). On a CPU with AVX-512 IFMA eight
// scalars share one comb over the one table; elsewhere it is Mult in a loop.
// The kernel is chosen once per process, on first use, with X25519Lanes'.
void X25519CombLanes(const X25519Precomp& table, std::span<const X25519SecretKey> scalars,
                     std::span<X25519SharedSecret> out);

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_X25519_PRECOMP_H_

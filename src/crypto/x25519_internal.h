// X25519 batch kernels behind crypto::X25519Lanes, crypto::X25519Many and
// crypto::X25519CombLanes (private to src/crypto, its tests and benches).
//
// Each kernel computes out[i] = X25519(scalars[i * scalar_stride], points[i])
// for i < n, bit-identical to crypto::X25519, low-order and non-canonical
// points included. A stride of 1 gives each point its own scalar
// (X25519Lanes); a stride of 0 multiplies every point by scalars[0]
// (X25519Many). One kernel is picked per process: the AVX-512 IFMA kernel,
// eight pairs per ladder, when the CPU has it, otherwise the portable one,
// which is crypto::X25519 in a loop and the tests' reference.
//
// The comb kernels compute out[i] = table.Mult(scalars[i]) for i < n over
// one X25519Precomp table, picked the same way: the IFMA comb, eight scalars
// per comb, or the portable one, Mult in a loop.

#ifndef VUVUZELA_SRC_CRYPTO_X25519_INTERNAL_H_
#define VUVUZELA_SRC_CRYPTO_X25519_INTERNAL_H_

#include <cstddef>

#include "src/crypto/x25519.h"
#include "src/crypto/x25519_precomp.h"

#if defined(__x86_64__)
#define VUVUZELA_X25519_IFMA_KERNEL 1
#endif

namespace vuvuzela::crypto::internal {

void X25519LanesPortable(const X25519SecretKey* scalars, size_t scalar_stride,
                         const X25519PublicKey* points, X25519SharedSecret* out, size_t n);

void X25519CombLanesPortable(const X25519Precomp& table, const X25519SecretKey* scalars,
                             X25519SharedSecret* out, size_t n);

// The comb kernel X25519CombLanes runs in this process.
X25519CombKernel SelectedCombKernel();

// The comb's signed radix-16 recoding of the clamped `scalar`:
// sum digits[i] 16^i, each digit in [-8, 8], computed without a branch.
void CombDigits(const X25519SecretKey& scalar, int8_t digits[64]);

#ifdef VUVUZELA_X25519_IFMA_KERNEL
// Pairs per IFMA ladder: one per 64-bit lane of a 512-bit register.
inline constexpr size_t kX25519IfmaLanes = 8;

// An 8-lane Montgomery ladder on vpmadd52{lo,hi}uq with a scalar per lane.
// Runs whole groups of eight pairs; a remainder of two or more is padded
// into one more group, a single leftover pair takes the portable ladder.
// Call only where CpuHasAvx512Ifma().
void X25519LanesIfma(const X25519SecretKey* scalars, size_t scalar_stride,
                     const X25519PublicKey* points, X25519SharedSecret* out, size_t n);

// An 8-lane signed radix-16 comb on vpmadd52{lo,hi}uq: the eight lanes share
// `table`, each with its own scalar. A remainder is padded into one more
// group. Call only where CpuHasAvx512Ifma().
void X25519CombLanesIfma(const X25519Precomp& table, const X25519SecretKey* scalars,
                         X25519SharedSecret* out, size_t n);
#endif

// True iff this build has the IFMA kernel and the CPU and OS can run it
// (AVX-512F and AVX-512 IFMA with the ZMM state enabled).
bool CpuHasAvx512Ifma();

}  // namespace vuvuzela::crypto::internal

#endif  // VUVUZELA_SRC_CRYPTO_X25519_INTERNAL_H_

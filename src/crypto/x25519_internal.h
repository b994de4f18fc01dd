// X25519 batch kernels behind crypto::X25519Many (private to src/crypto and
// its tests).
//
// Each kernel multiplies one scalar by `n` points and produces bit-identical
// results to crypto::X25519, low-order and non-canonical points included.
// X25519Many picks one per process: the AVX-512 IFMA kernel, eight points
// per ladder, when the CPU has it, otherwise the portable one, which is
// crypto::X25519 in a loop and the tests' reference.

#ifndef VUVUZELA_SRC_CRYPTO_X25519_INTERNAL_H_
#define VUVUZELA_SRC_CRYPTO_X25519_INTERNAL_H_

#include <cstddef>

#include "src/crypto/x25519.h"

#if defined(__x86_64__)
#define VUVUZELA_X25519_IFMA_KERNEL 1
#endif

namespace vuvuzela::crypto::internal {

void X25519ManyPortable(const X25519SecretKey& scalar, const X25519PublicKey* points,
                        X25519SharedSecret* out, size_t n);

#ifdef VUVUZELA_X25519_IFMA_KERNEL
// Points per IFMA ladder: one per 64-bit lane of a 512-bit register.
inline constexpr size_t kX25519IfmaLanes = 8;

// An 8-lane Montgomery ladder on vpmadd52{lo,hi}uq. Runs whole groups of
// eight points; a remainder of two or more is padded into one more group,
// a single leftover point takes the portable ladder. Call only where
// CpuHasAvx512Ifma().
void X25519ManyIfma(const X25519SecretKey& scalar, const X25519PublicKey* points,
                    X25519SharedSecret* out, size_t n);
#endif

// True iff this build has the IFMA kernel and the CPU and OS can run it
// (AVX-512F and AVX-512 IFMA with the ZMM state enabled).
bool CpuHasAvx512Ifma();

}  // namespace vuvuzela::crypto::internal

#endif  // VUVUZELA_SRC_CRYPTO_X25519_INTERNAL_H_

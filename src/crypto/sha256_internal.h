// SHA-256 compression kernels behind crypto::Sha256 (private to src/crypto
// and its tests).
//
// Each kernel compresses `n` consecutive 64-byte blocks at `data` (any
// alignment) into `state` and produces bit-identical results. Sha256 picks
// one per process: the x86 SHA-extensions kernel when the CPU has them,
// otherwise the portable one, which is also the tests' reference.

#ifndef VUVUZELA_SRC_CRYPTO_SHA256_INTERNAL_H_
#define VUVUZELA_SRC_CRYPTO_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#define VUVUZELA_SHA256_X86_KERNEL 1
#endif

namespace vuvuzela::crypto::internal {

void Sha256BlocksPortable(uint32_t state[8], const uint8_t* data, size_t n);

#ifdef VUVUZELA_SHA256_X86_KERNEL
// sha256rnds2/sha256msg1/sha256msg2. Call only where CpuHasShaExtensions().
void Sha256BlocksShaNi(uint32_t state[8], const uint8_t* data, size_t n);
#endif

// True iff this build has the x86 kernel and the CPU can run it (SHA,
// SSE4.1 and SSSE3).
bool CpuHasShaExtensions();

}  // namespace vuvuzela::crypto::internal

#endif  // VUVUZELA_SRC_CRYPTO_SHA256_INTERNAL_H_

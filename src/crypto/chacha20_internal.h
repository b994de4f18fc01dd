// ChaCha20 keystream kernels behind crypto::ChaCha20Xor and the
// ChaCha20-Poly1305 AEAD (private to src/crypto, its tests and benches).
//
// A kernel writes `blocks` (1 to 8) consecutive 64-byte keystream blocks for
// (key, nonce) to `out`, for counters counter, counter + 1, ... modulo 2^32,
// exactly as ChaCha20Block would one at a time. The vector kernels run all
// eight blocks side by side, one block per 32-bit lane of a 256-bit vector,
// and store the first `blocks` of them; the portable kernel is the scalar
// block in a loop and the tests' reference. One kernel is picked per
// process, on first use, from CPUID: AVX-512VL (native 32-bit rotates and 32
// vector registers), else AVX2, else portable.

#ifndef VUVUZELA_SRC_CRYPTO_CHACHA20_INTERNAL_H_
#define VUVUZELA_SRC_CRYPTO_CHACHA20_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/crypto/chacha20.h"

#if defined(__x86_64__)
#define VUVUZELA_CHACHA20_X86_KERNELS 1
#endif

namespace vuvuzela::crypto::internal {

// Blocks, and keystream bytes, per kernel call.
inline constexpr size_t kChaCha20KernelBlocks = 8;
inline constexpr size_t kChaCha20KernelBytes = kChaCha20KernelBlocks * kChaCha20BlockSize;

using ChaCha20Kernel = void (*)(const ChaCha20Key& key, const ChaCha20Nonce& nonce,
                                uint32_t counter, size_t blocks, uint8_t* out);

void ChaCha20BlocksPortable(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                            size_t blocks, uint8_t* out);

#ifdef VUVUZELA_CHACHA20_X86_KERNELS
// Call only where ChaCha20Kernels() lists them.
void ChaCha20BlocksAvx2(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                        size_t blocks, uint8_t* out);
void ChaCha20BlocksAvx512Vl(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                            size_t blocks, uint8_t* out);
#endif

// The kernel ChaCha20Xor and the AEAD run in this process.
ChaCha20Kernel SelectedChaCha20Kernel();

// Every kernel this build and CPU (and OS) can run, by name, slowest first:
// portable, then AVX2, then AVX-512VL.
std::vector<std::pair<const char*, ChaCha20Kernel>> ChaCha20Kernels();

// out[i] = in[i] ^ keystream[i] for i < n; `out` may equal `in`.
inline void XorKeystream(const uint8_t* in, const uint8_t* keystream, uint8_t* out, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, in + i, 8);
    std::memcpy(&b, keystream + i, 8);
    a ^= b;
    std::memcpy(out + i, &a, 8);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint8_t>(in[i] ^ keystream[i]);
  }
}

// crypto::ChaCha20Xor, crypto::AeadSealInto and crypto::AeadOpenInto (the
// last two in aead.cc) on a given kernel, so tests and benches can run each
// kernel on one CPU. The bytes do not depend on the kernel.
void ChaCha20Xor(ChaCha20Kernel kernel, const ChaCha20Key& key, const ChaCha20Nonce& nonce,
                 uint32_t initial_counter, util::ByteSpan input, util::MutableByteSpan output);
void AeadSealInto(ChaCha20Kernel kernel, const ChaCha20Key& key, const ChaCha20Nonce& nonce,
                  util::ByteSpan aad, util::ByteSpan plaintext, util::MutableByteSpan out);
bool AeadOpenInto(ChaCha20Kernel kernel, const ChaCha20Key& key, const ChaCha20Nonce& nonce,
                  util::ByteSpan aad, util::ByteSpan ciphertext_and_tag,
                  util::MutableByteSpan plaintext_out);

}  // namespace vuvuzela::crypto::internal

#endif  // VUVUZELA_SRC_CRYPTO_CHACHA20_INTERNAL_H_

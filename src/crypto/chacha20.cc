#include "src/crypto/chacha20.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/crypto/chacha20_internal.h"

namespace vuvuzela::crypto {

namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl(d, 16);
  c += d;
  b ^= c;
  b = Rotl(b, 12);
  a += b;
  d ^= a;
  d = Rotl(d, 8);
  c += d;
  b ^= c;
  b = Rotl(b, 7);
}

void InitState(uint32_t state[16], const ChaCha20Key& key, const ChaCha20Nonce& nonce,
               uint32_t counter) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = util::LoadLe32(key.data() + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = util::LoadLe32(nonce.data() + 4 * i);
  }
}

void Rounds(uint32_t x[16]) {
  for (int i = 0; i < 10; ++i) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
}

#ifdef VUVUZELA_CHACHA20_X86_KERNELS
// The 8-lane kernel, written once in GCC vector extensions and inlined into
// one function per instruction set, so the compiler picks the instructions:
// AVX2 rotates by 12 and 7 with two shifts and an or, AVX-512VL with one
// vprold, and both rotate by 16 and 8 with a byte shuffle. Lane j of every
// state vector belongs to block j. Vectors pass by reference only: a 32-byte
// vector by value outside an AVX function changes the ABI.
typedef uint32_t U32x8 __attribute__((vector_size(32)));
typedef uint8_t U8x32 __attribute__((vector_size(32)));

// Rotates each 32-bit lane left by kBytes whole bytes: byte i of a lane
// takes byte (i - kBytes) mod 4 of the same lane (x86 is little-endian).
template <int kBytes, size_t... I>
inline __attribute__((always_inline)) void RotlLaneBytes(U8x32& b, std::index_sequence<I...>) {
  b = __builtin_shufflevector(b, b, (I & ~size_t{3}) | ((I - kBytes) & 3)...);
}

template <int N>
inline __attribute__((always_inline)) void RotlLanes(U32x8& x) {
  if constexpr (N % 8 == 0) {
    U8x32 bytes = reinterpret_cast<U8x32>(x);
    RotlLaneBytes<N / 8>(bytes, std::make_index_sequence<32>());
    x = reinterpret_cast<U32x8>(bytes);
  } else {
    x = (x << N) | (x >> (32 - N));
  }
}

inline __attribute__((always_inline)) void QuarterRoundLanes(U32x8& a, U32x8& b, U32x8& c,
                                                             U32x8& d) {
  a += b;
  d ^= a;
  RotlLanes<16>(d);
  c += d;
  b ^= c;
  RotlLanes<12>(b);
  a += b;
  d ^= a;
  RotlLanes<8>(d);
  c += d;
  b ^= c;
  RotlLanes<7>(b);
}

// Transposes the 8x8 matrix of rows r[0..7] (row i, lane j) in place, so
// that r[j] holds lane j of every input row: unpacks of 32-bit and 64-bit
// pairs within 128-bit halves, then an exchange of halves.
inline __attribute__((always_inline)) void Transpose8(U32x8 r[8]) {
  U32x8 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 1, 9, 4, 12, 5, 13);
    t[i + 1] = __builtin_shufflevector(r[i], r[i + 1], 2, 10, 3, 11, 6, 14, 7, 15);
  }
  U32x8 u[8];
  for (int i = 0; i < 8; i += 4) {
    u[i] = __builtin_shufflevector(t[i], t[i + 2], 0, 1, 8, 9, 4, 5, 12, 13);
    u[i + 1] = __builtin_shufflevector(t[i], t[i + 2], 2, 3, 10, 11, 6, 7, 14, 15);
    u[i + 2] = __builtin_shufflevector(t[i + 1], t[i + 3], 0, 1, 8, 9, 4, 5, 12, 13);
    u[i + 3] = __builtin_shufflevector(t[i + 1], t[i + 3], 2, 3, 10, 11, 6, 7, 14, 15);
  }
  for (int j = 0; j < 4; ++j) {
    r[j] = __builtin_shufflevector(u[j], u[j + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    r[j + 4] = __builtin_shufflevector(u[j], u[j + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

inline __attribute__((always_inline)) void Blocks8(const ChaCha20Key& key,
                                                   const ChaCha20Nonce& nonce, uint32_t counter,
                                                   size_t blocks, uint8_t* out) {
  uint32_t words[16];
  InitState(words, key, nonce, counter);
  U32x8 state[16];
  U32x8 x[16];
  for (int i = 0; i < 16; ++i) {
    state[i] = U32x8{} + words[i];
  }
  state[12] += U32x8{0, 1, 2, 3, 4, 5, 6, 7};  // wraps mod 2^32, as counter++ does
  for (int i = 0; i < 16; ++i) {
    x[i] = state[i];
  }
  for (int i = 0; i < 10; ++i) {
    QuarterRoundLanes(x[0], x[4], x[8], x[12]);
    QuarterRoundLanes(x[1], x[5], x[9], x[13]);
    QuarterRoundLanes(x[2], x[6], x[10], x[14]);
    QuarterRoundLanes(x[3], x[7], x[11], x[15]);
    QuarterRoundLanes(x[0], x[5], x[10], x[15]);
    QuarterRoundLanes(x[1], x[6], x[11], x[12]);
    QuarterRoundLanes(x[2], x[7], x[8], x[13]);
    QuarterRoundLanes(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    x[i] += state[i];
  }
  // x[0..7] become the first halves of the eight blocks, x[8..15] the
  // second halves; x86 is little-endian, so each lane stores as LE32.
  Transpose8(x);
  Transpose8(x + 8);
  for (size_t j = 0; j < blocks; ++j) {
    std::memcpy(out + j * kChaCha20BlockSize, &x[j], 32);
    std::memcpy(out + j * kChaCha20BlockSize + 32, &x[8 + j], 32);
  }
}
#endif

}  // namespace

namespace internal {

void ChaCha20BlocksPortable(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                            size_t blocks, uint8_t* out) {
  uint32_t state[16];
  InitState(state, key, nonce, counter);
  for (size_t b = 0; b < blocks; ++b, ++state[12], out += kChaCha20BlockSize) {
    uint32_t x[16];
    std::memcpy(x, state, sizeof(x));
    Rounds(x);
    for (int i = 0; i < 16; ++i) {
      util::StoreLe32(out + 4 * i, x[i] + state[i]);
    }
  }
}

#ifdef VUVUZELA_CHACHA20_X86_KERNELS
__attribute__((target("avx2"))) void ChaCha20BlocksAvx2(const ChaCha20Key& key,
                                                        const ChaCha20Nonce& nonce,
                                                        uint32_t counter, size_t blocks,
                                                        uint8_t* out) {
  Blocks8(key, nonce, counter, blocks, out);
}

__attribute__((target("avx2,avx512f,avx512vl"))) void ChaCha20BlocksAvx512Vl(
    const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter, size_t blocks,
    uint8_t* out) {
  Blocks8(key, nonce, counter, blocks, out);
}
#endif

std::vector<std::pair<const char*, ChaCha20Kernel>> ChaCha20Kernels() {
  std::vector<std::pair<const char*, ChaCha20Kernel>> kernels = {
      {"portable", ChaCha20BlocksPortable}};
#ifdef VUVUZELA_CHACHA20_X86_KERNELS
  __builtin_cpu_init();  // tests list the kernels from static initialisers
  if (__builtin_cpu_supports("avx2")) {
    kernels.emplace_back("avx2", ChaCha20BlocksAvx2);
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl")) {
      kernels.emplace_back("avx512vl", ChaCha20BlocksAvx512Vl);
    }
  }
#endif
  return kernels;
}

// The last, and fastest, kernel listed. Chosen on first use rather than at
// static initialisation, so a seal from another translation unit's static
// initialiser still gets a kernel.
ChaCha20Kernel SelectedChaCha20Kernel() {
  static const ChaCha20Kernel kernel = ChaCha20Kernels().back().second;
  return kernel;
}

void ChaCha20Xor(ChaCha20Kernel kernel, const ChaCha20Key& key, const ChaCha20Nonce& nonce,
                 uint32_t initial_counter, util::ByteSpan input, util::MutableByteSpan output) {
  if (input.size() != output.size()) {
    throw std::invalid_argument("ChaCha20Xor: size mismatch");
  }
  uint8_t keystream[kChaCha20KernelBytes];
  uint32_t counter = initial_counter;
  for (size_t off = 0; off < input.size();
       off += kChaCha20KernelBytes, counter += kChaCha20KernelBlocks) {
    const size_t take = std::min(input.size() - off, kChaCha20KernelBytes);
    kernel(key, nonce, counter, (take + kChaCha20BlockSize - 1) / kChaCha20BlockSize, keystream);
    XorKeystream(input.data() + off, keystream, output.data() + off, take);
  }
}

}  // namespace internal

void ChaCha20Block(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t counter,
                   uint8_t out[kChaCha20BlockSize]) {
  internal::ChaCha20BlocksPortable(key, nonce, counter, 1, out);
}

void ChaCha20Xor(const ChaCha20Key& key, const ChaCha20Nonce& nonce, uint32_t initial_counter,
                 util::ByteSpan input, util::MutableByteSpan output) {
  internal::ChaCha20Xor(internal::SelectedChaCha20Kernel(), key, nonce, initial_counter, input,
                        output);
}

}  // namespace vuvuzela::crypto

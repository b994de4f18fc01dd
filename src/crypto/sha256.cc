#include "src/crypto/sha256.h"

#include <cstring>
#include <stdexcept>

#include "src/crypto/sha256_internal.h"

#ifdef VUVUZELA_SHA256_X86_KERNEL
#include <immintrin.h>
#endif

namespace vuvuzela::crypto {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

using BlocksKernel = void (*)(uint32_t state[8], const uint8_t* data, size_t n);

// Chosen on first use rather than at static initialisation, so a hash taken
// from another translation unit's static initialiser still gets a kernel.
BlocksKernel ActiveKernel() {
#ifdef VUVUZELA_SHA256_X86_KERNEL
  static const BlocksKernel kernel = internal::CpuHasShaExtensions()
                                         ? internal::Sha256BlocksShaNi
                                         : internal::Sha256BlocksPortable;
  return kernel;
#else
  return internal::Sha256BlocksPortable;
#endif
}

}  // namespace

namespace internal {

void Sha256BlocksPortable(uint32_t state[8], const uint8_t* data, size_t n) {
  for (; n > 0; --n, data += kSha256BlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = util::LoadBe32(data + 4 * i);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef VUVUZELA_SHA256_X86_KERNEL

// sha256rnds2 runs two rounds on the state split as (A,B,E,F) and (C,D,G,H),
// taking W[t]+K[t] for both from the low half of its third operand. Message
// words are processed four at a time: W[4g..4g+3] is one vector, and for
// g >= 4 it comes from the four before it through sha256msg1 (the sigma0
// terms), the W[t-7] words and sha256msg2 (the sigma1 terms).
__attribute__((target("sha,sse4.1,ssse3"))) void Sha256BlocksShaNi(uint32_t state[8],
                                                                   const uint8_t* data,
                                                                   size_t n) {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; n > 0; --n, data += kSha256BlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[g % 4] holds W[4g..4g+3] once group g is reached
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), kByteSwap);
      } else {
        const __m128i prev = w[(g + 3) % 4];
        __m128i next = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        next = _mm_add_epi32(next, _mm_alignr_epi8(prev, w[(g + 2) % 4], 4));
        w[g % 4] = _mm_sha256msg2_epu32(next, prev);
      }
      __m128i wk = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool CpuHasShaExtensions() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

#else

bool CpuHasShaExtensions() { return false; }

#endif  // VUVUZELA_SHA256_X86_KERNEL

}  // namespace internal

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::ProcessBlocks(const uint8_t* data, size_t n) { ActiveKernel()(state_, data, n); }

void Sha256::Update(util::ByteSpan data) {
  if (finished_) {
    throw std::logic_error("Sha256: Update after Finish");
  }
  total_bytes_ += data.size();
  size_t off = 0;
  if (buffered_ > 0) {
    size_t take = std::min(data.size(), kSha256BlockSize - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    off += take;
    if (buffered_ == kSha256BlockSize) {
      ProcessBlocks(buffer_, 1);
      buffered_ = 0;
    }
  }
  size_t blocks = (data.size() - off) / kSha256BlockSize;
  if (blocks > 0) {
    ProcessBlocks(data.data() + off, blocks);
    off += blocks * kSha256BlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

Sha256Digest Sha256::Finish() {
  if (finished_) {
    throw std::logic_error("Sha256: Finish called twice");
  }
  finished_ = true;

  uint64_t bit_len = total_bytes_ * 8;
  uint8_t pad[kSha256BlockSize * 2];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  size_t rem = (buffered_ + pad_len) % kSha256BlockSize;
  size_t zeros = (rem <= 56) ? (56 - rem) : (kSha256BlockSize + 56 - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  util::StoreBe64(pad + pad_len, bit_len);
  pad_len += 8;

  // Feed padding through the block path directly (Update would bump
  // total_bytes_).
  size_t off = 0;
  while (off < pad_len) {
    size_t take = std::min(pad_len - off, kSha256BlockSize - buffered_);
    std::memcpy(buffer_ + buffered_, pad + off, take);
    buffered_ += take;
    off += take;
    if (buffered_ == kSha256BlockSize) {
      ProcessBlocks(buffer_, 1);
      buffered_ = 0;
    }
  }

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    util::StoreBe32(digest.data() + 4 * i, state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(util::ByteSpan data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace vuvuzela::crypto

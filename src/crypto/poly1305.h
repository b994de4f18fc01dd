// Poly1305 one-time authenticator (RFC 8439 §2.5).
//
// Tag half of the ChaCha20-Poly1305 AEAD. Validated against the RFC 8439
// §2.5.2 and §A.3 vectors and the AEAD vectors, and against the donna-32
// reference in tests/reference_poly1305.h on random keys and messages.
//
// poly1305-donna-64: the accumulator and r are three limbs of 44, 44 and 42
// bits, multiplied in unsigned __int128 (9 multiplies a block, against the
// 25 of five 26-bit limbs). Whole blocks are read straight from the input;
// only a message's ragged ends pass through the 16-byte buffer. No branch
// or memory index depends on the key, the message or the accumulator: the
// final reduction picks h or h - p with a mask.

#ifndef VUVUZELA_SRC_CRYPTO_POLY1305_H_
#define VUVUZELA_SRC_CRYPTO_POLY1305_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace vuvuzela::crypto {

inline constexpr size_t kPoly1305KeySize = 32;
inline constexpr size_t kPoly1305TagSize = 16;

using Poly1305Key = std::array<uint8_t, kPoly1305KeySize>;
using Poly1305Tag = std::array<uint8_t, kPoly1305TagSize>;

// Incremental Poly1305. The key must be used for exactly one message.
class Poly1305 {
 public:
  explicit Poly1305(const Poly1305Key& key);

  void Update(util::ByteSpan data);
  Poly1305Tag Finish();

  static Poly1305Tag Compute(const Poly1305Key& key, util::ByteSpan data);

 private:
  // Absorbs `blocks` 16-byte blocks at `data`, each with 2^128 added when
  // `hibit` (a message's last, padded partial block has it clear).
  void ProcessBlocks(const uint8_t* data, size_t blocks, bool hibit);

  // Clamped r and the accumulator, in 44/44/42-bit limbs.
  uint64_t r_[3];
  uint64_t h_[3] = {0, 0, 0};
  uint64_t pad_[2];
  uint8_t buffer_[16];
  size_t buffered_ = 0;
  bool finished_ = false;
};

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_POLY1305_H_

// Reference Poly1305 (RFC 8439 §2.5), the oracle tests/crypto_poly1305_test.cc
// pins crypto::Poly1305 against.
//
// This is poly1305-donna-32, the implementation src/crypto used before it
// moved to donna-64: five 26-bit limbs, 25 32x32-bit multiplies a block,
// every block copied into a 17-byte buffer whose last byte carries the 2^128
// bit. It shares no arithmetic with crypto::Poly1305, so a limb, carry or
// final-select mistake in either one shows as a tag mismatch.

#ifndef VUVUZELA_TESTS_REFERENCE_POLY1305_H_
#define VUVUZELA_TESTS_REFERENCE_POLY1305_H_

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/crypto/poly1305.h"
#include "src/util/bytes.h"

namespace vuvuzela::crypto {

class ReferencePoly1305 {
 public:
  explicit ReferencePoly1305(const Poly1305Key& key) {
    // Clamp r per RFC 8439 §2.5 and split into five 26-bit limbs.
    const uint8_t* k = key.data();
    r_[0] = util::LoadLe32(k + 0) & 0x03ffffff;
    r_[1] = (util::LoadLe32(k + 3) >> 2) & 0x03ffff03;
    r_[2] = (util::LoadLe32(k + 6) >> 4) & 0x03ffc0ff;
    r_[3] = (util::LoadLe32(k + 9) >> 6) & 0x03f03fff;
    r_[4] = (util::LoadLe32(k + 12) >> 8) & 0x000fffff;
    std::memcpy(pad_, k + 16, 16);
  }

  void Update(util::ByteSpan data) {
    size_t off = 0;
    if (buffered_ > 0) {
      size_t take = std::min(data.size(), 16 - buffered_);
      std::memcpy(buffer_ + buffered_, data.data(), take);
      buffered_ += take;
      off += take;
      if (buffered_ == 16) {
        uint8_t block[17];
        std::memcpy(block, buffer_, 16);
        block[16] = 1;
        ProcessBlock(block);
        buffered_ = 0;
      }
    }
    while (off + 16 <= data.size()) {
      uint8_t block[17];
      std::memcpy(block, data.data() + off, 16);
      block[16] = 1;
      ProcessBlock(block);
      off += 16;
    }
    if (off < data.size()) {
      std::memcpy(buffer_, data.data() + off, data.size() - off);
      buffered_ = data.size() - off;
    }
  }

  Poly1305Tag Finish() {
    if (buffered_ > 0) {
      uint8_t block[17];
      std::memset(block, 0, sizeof(block));
      std::memcpy(block, buffer_, buffered_);
      block[buffered_] = 1;  // padding bit folded into the value; hibit = 0
      ProcessBlock(block);
    }

    // Full carry propagation.
    uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
    uint32_t c = h1 >> 26;
    h1 &= 0x03ffffff;
    h2 += c;
    c = h2 >> 26;
    h2 &= 0x03ffffff;
    h3 += c;
    c = h3 >> 26;
    h3 &= 0x03ffffff;
    h4 += c;
    c = h4 >> 26;
    h4 &= 0x03ffffff;
    h0 += c * 5;
    c = h0 >> 26;
    h0 &= 0x03ffffff;
    h1 += c;

    // Compute g = h + 5 - 2^130 and select h or g in constant time.
    uint32_t g0 = h0 + 5;
    c = g0 >> 26;
    g0 &= 0x03ffffff;
    uint32_t g1 = h1 + c;
    c = g1 >> 26;
    g1 &= 0x03ffffff;
    uint32_t g2 = h2 + c;
    c = g2 >> 26;
    g2 &= 0x03ffffff;
    uint32_t g3 = h3 + c;
    c = g3 >> 26;
    g3 &= 0x03ffffff;
    uint32_t g4 = h4 + c - (1u << 26);

    uint32_t mask = (g4 >> 31) - 1;  // all-ones if g >= 2^130 (i.e. h >= p)
    g0 &= mask;
    g1 &= mask;
    g2 &= mask;
    g3 &= mask;
    g4 &= mask;
    uint32_t nmask = ~mask;
    h0 = (h0 & nmask) | g0;
    h1 = (h1 & nmask) | g1;
    h2 = (h2 & nmask) | g2;
    h3 = (h3 & nmask) | g3;
    h4 = (h4 & nmask) | g4;

    // h = h mod 2^128, then add pad (s) with carry.
    uint32_t f0 = h0 | (h1 << 26);
    uint32_t f1 = (h1 >> 6) | (h2 << 20);
    uint32_t f2 = (h2 >> 12) | (h3 << 14);
    uint32_t f3 = (h3 >> 18) | (h4 << 8);

    uint64_t acc = static_cast<uint64_t>(f0) + util::LoadLe32(pad_ + 0);
    f0 = static_cast<uint32_t>(acc);
    acc = static_cast<uint64_t>(f1) + util::LoadLe32(pad_ + 4) + (acc >> 32);
    f1 = static_cast<uint32_t>(acc);
    acc = static_cast<uint64_t>(f2) + util::LoadLe32(pad_ + 8) + (acc >> 32);
    f2 = static_cast<uint32_t>(acc);
    acc = static_cast<uint64_t>(f3) + util::LoadLe32(pad_ + 12) + (acc >> 32);
    f3 = static_cast<uint32_t>(acc);

    Poly1305Tag tag;
    util::StoreLe32(tag.data() + 0, f0);
    util::StoreLe32(tag.data() + 4, f1);
    util::StoreLe32(tag.data() + 8, f2);
    util::StoreLe32(tag.data() + 12, f3);
    return tag;
  }

  static Poly1305Tag Compute(const Poly1305Key& key, util::ByteSpan data) {
    ReferencePoly1305 p(key);
    p.Update(data);
    return p.Finish();
  }

 private:
  void ProcessBlock(const uint8_t block[17]) {
    // Add the 17-byte value (block[16] carries the 2^128 coefficient) to h.
    uint32_t h0 = h_[0] + (util::LoadLe32(block + 0) & 0x03ffffff);
    uint32_t h1 = h_[1] + ((util::LoadLe32(block + 3) >> 2) & 0x03ffffff);
    uint32_t h2 = h_[2] + ((util::LoadLe32(block + 6) >> 4) & 0x03ffffff);
    uint32_t h3 = h_[3] + ((util::LoadLe32(block + 9) >> 6) & 0x03ffffff);
    uint32_t h4 =
        h_[4] + ((util::LoadLe32(block + 12) >> 8) | (static_cast<uint32_t>(block[16]) << 24));

    // h *= r mod 2^130 - 5.
    uint64_t s1 = static_cast<uint64_t>(r_[1]) * 5;
    uint64_t s2 = static_cast<uint64_t>(r_[2]) * 5;
    uint64_t s3 = static_cast<uint64_t>(r_[3]) * 5;
    uint64_t s4 = static_cast<uint64_t>(r_[4]) * 5;

    uint64_t d0 = static_cast<uint64_t>(h0) * r_[0] + static_cast<uint64_t>(h1) * s4 +
                  static_cast<uint64_t>(h2) * s3 + static_cast<uint64_t>(h3) * s2 +
                  static_cast<uint64_t>(h4) * s1;
    uint64_t d1 = static_cast<uint64_t>(h0) * r_[1] + static_cast<uint64_t>(h1) * r_[0] +
                  static_cast<uint64_t>(h2) * s4 + static_cast<uint64_t>(h3) * s3 +
                  static_cast<uint64_t>(h4) * s2;
    uint64_t d2 = static_cast<uint64_t>(h0) * r_[2] + static_cast<uint64_t>(h1) * r_[1] +
                  static_cast<uint64_t>(h2) * r_[0] + static_cast<uint64_t>(h3) * s4 +
                  static_cast<uint64_t>(h4) * s3;
    uint64_t d3 = static_cast<uint64_t>(h0) * r_[3] + static_cast<uint64_t>(h1) * r_[2] +
                  static_cast<uint64_t>(h2) * r_[1] + static_cast<uint64_t>(h3) * r_[0] +
                  static_cast<uint64_t>(h4) * s4;
    uint64_t d4 = static_cast<uint64_t>(h0) * r_[4] + static_cast<uint64_t>(h1) * r_[3] +
                  static_cast<uint64_t>(h2) * r_[2] + static_cast<uint64_t>(h3) * r_[1] +
                  static_cast<uint64_t>(h4) * r_[0];

    uint64_t c = d0 >> 26;
    h_[0] = static_cast<uint32_t>(d0) & 0x03ffffff;
    d1 += c;
    c = d1 >> 26;
    h_[1] = static_cast<uint32_t>(d1) & 0x03ffffff;
    d2 += c;
    c = d2 >> 26;
    h_[2] = static_cast<uint32_t>(d2) & 0x03ffffff;
    d3 += c;
    c = d3 >> 26;
    h_[3] = static_cast<uint32_t>(d3) & 0x03ffffff;
    d4 += c;
    c = d4 >> 26;
    h_[4] = static_cast<uint32_t>(d4) & 0x03ffffff;
    h_[0] += static_cast<uint32_t>(c * 5);
    c = h_[0] >> 26;
    h_[0] &= 0x03ffffff;
    h_[1] += static_cast<uint32_t>(c);
  }

  uint32_t r_[5];
  uint32_t h_[5] = {0, 0, 0, 0, 0};
  uint8_t pad_[16];
  uint8_t buffer_[16];
  size_t buffered_ = 0;
};

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_TESTS_REFERENCE_POLY1305_H_

#include "src/crypto/poly1305.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace vuvuzela::crypto {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;

}  // namespace

Poly1305::Poly1305(const Poly1305Key& key) {
  // Clamp r per RFC 8439 §2.5 and split it into 44/44/42-bit limbs.
  const uint64_t t0 = util::LoadLe64(key.data());
  const uint64_t t1 = util::LoadLe64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffffULL;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  r_[2] = (t1 >> 24) & 0x00ffffffc0fULL;
  pad_[0] = util::LoadLe64(key.data() + 16);
  pad_[1] = util::LoadLe64(key.data() + 24);
}

void Poly1305::ProcessBlocks(const uint8_t* data, size_t blocks, bool hibit) {
  const uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // 2^130 = 5 mod p, and the limbs sit at 2^0, 2^44 and 2^88: a product
  // landing at 2^132 folds back times 4 * 5.
  const uint64_t s1 = r1 * 20, s2 = r2 * 20;
  const uint64_t high = hibit ? uint64_t{1} << 40 : 0;  // 2^128 within the top limb
  uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; blocks > 0; --blocks, data += 16) {
    const uint64_t t0 = util::LoadLe64(data);
    const uint64_t t1 = util::LoadLe64(data + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | high;

    // h *= r mod 2^130 - 5, partially reduced.
    const u128 d0 = static_cast<u128>(h0) * r0 + static_cast<u128>(h1) * s2 +
                    static_cast<u128>(h2) * s1;
    u128 d1 = static_cast<u128>(h0) * r1 + static_cast<u128>(h1) * r0 +
              static_cast<u128>(h2) * s2;
    u128 d2 = static_cast<u128>(h0) * r2 + static_cast<u128>(h1) * r1 +
              static_cast<u128>(h2) * r0;
    uint64_t c = static_cast<uint64_t>(d0 >> 44);
    h0 = static_cast<uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<uint64_t>(d1 >> 44);
    h1 = static_cast<uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<uint64_t>(d2 >> 42);
    h2 = static_cast<uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::Update(util::ByteSpan data) {
  if (finished_) {
    throw std::logic_error("Poly1305: Update after Finish");
  }
  const uint8_t* p = data.data();
  size_t left = data.size();
  if (left == 0) {
    return;
  }
  if (buffered_ > 0) {
    const size_t take = std::min(left, 16 - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    left -= take;
    if (buffered_ < 16) {
      return;
    }
    ProcessBlocks(buffer_, 1, /*hibit=*/true);
    buffered_ = 0;
  }
  ProcessBlocks(p, left / 16, /*hibit=*/true);
  p += left / 16 * 16;
  left %= 16;
  if (left > 0) {
    std::memcpy(buffer_, p, left);
    buffered_ = left;
  }
}

Poly1305Tag Poly1305::Finish() {
  if (finished_) {
    throw std::logic_error("Poly1305: Finish called twice");
  }
  finished_ = true;

  if (buffered_ > 0) {
    // The padding bit is folded into the value; the 2^128 bit stays clear.
    buffer_[buffered_] = 1;
    std::memset(buffer_ + buffered_ + 1, 0, 16 - buffered_ - 1);
    ProcessBlocks(buffer_, 1, /*hibit=*/false);
  }

  // Full carry propagation: twice around, so every limb ends in range.
  uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // g = h + 5 - 2^130; keep g where it is not negative (h >= p), with a
  // mask rather than a branch.
  uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  uint64_t g2 = h2 + c - (uint64_t{1} << 42);
  const uint64_t mask = (g2 >> 63) - 1;  // all-ones iff g >= 0
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // h + s mod 2^128.
  const uint64_t s0 = pad_[0], s1 = pad_[1];
  h0 += s0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((s0 >> 44) | (s1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += ((s1 >> 24) & kMask42) + c;
  h2 &= kMask42;

  Poly1305Tag tag;
  util::StoreLe64(tag.data(), h0 | (h1 << 44));
  util::StoreLe64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Poly1305Tag Poly1305::Compute(const Poly1305Key& key, util::ByteSpan data) {
  Poly1305 p(key);
  p.Update(data);
  return p.Finish();
}

}  // namespace vuvuzela::crypto

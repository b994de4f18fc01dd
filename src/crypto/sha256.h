// SHA-256 (FIPS 180-4).
//
// Used for dead-drop ID derivation (H(shared_secret, round), §4.1), invitation
// dead-drop assignment (H(pk) mod m, §5.1), the hop daemon's replay digest
// (every request's full content, hashed on the serve thread before each
// pass), and as the compression function behind HMAC/HKDF. Validated against
// the FIPS 180-4 / NIST CAVP vectors in tests/crypto_sha256_test.cc.
//
// Compression runs on one of two kernels (sha256_internal.h), chosen once per
// process on first use: the x86 SHA extensions when CPUID reports them, the
// portable code otherwise. Both produce the same digests; there is no knob.

#ifndef VUVUZELA_SRC_CRYPTO_SHA256_H_
#define VUVUZELA_SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace vuvuzela::crypto {

inline constexpr size_t kSha256DigestSize = 32;
inline constexpr size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

// Incremental SHA-256. Usage: ctor → Update()* → Finish().
class Sha256 {
 public:
  Sha256();

  void Update(util::ByteSpan data);
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(util::ByteSpan data);

 private:
  // Compresses `n` whole blocks; Update hands each run over in one call.
  void ProcessBlocks(const uint8_t* data, size_t n);

  uint32_t state_[8];
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[kSha256BlockSize];
  size_t buffered_ = 0;
  bool finished_ = false;
};

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_SHA256_H_

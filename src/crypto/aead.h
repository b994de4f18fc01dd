// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// Every fixed-size Vuvuzela envelope and onion layer is sealed with this AEAD.
// `Seal` appends a 16-byte tag; `Open` verifies in constant time and returns
// std::nullopt on forgery. Validated against the RFC 8439 §2.8.2 and A.5
// vectors.

#ifndef VUVUZELA_SRC_CRYPTO_AEAD_H_
#define VUVUZELA_SRC_CRYPTO_AEAD_H_

#include <optional>

#include "src/crypto/chacha20.h"
#include "src/crypto/poly1305.h"
#include "src/util/bytes.h"

namespace vuvuzela::crypto {

inline constexpr size_t kAeadKeySize = kChaCha20KeySize;
inline constexpr size_t kAeadNonceSize = kChaCha20NonceSize;
inline constexpr size_t kAeadTagSize = kPoly1305TagSize;

using AeadKey = ChaCha20Key;
using AeadNonce = ChaCha20Nonce;

// Encrypts `plaintext` with `aad` bound into the tag. Output layout:
// ciphertext ‖ tag (plaintext.size() + 16 bytes).
util::Bytes AeadSeal(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                     util::ByteSpan plaintext);

// Verifies and decrypts. Returns nullopt if the tag does not verify or the
// input is shorter than a tag.
std::optional<util::Bytes> AeadOpen(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                                    util::ByteSpan ciphertext_and_tag);

// Allocation-free variants for the batched mix pass: the caller owns the
// output buffer (typically a slot in a preallocated block of results), so a
// pass over N onions performs zero intermediate allocations. Byte-identical
// to AeadSeal/AeadOpen.
//
// `out` must be exactly plaintext.size() + kAeadTagSize bytes. It may start
// at `plaintext` (an in-place seal: the onion wrap seals each layer where it
// lies) but must not overlap it any other way.
void AeadSealInto(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                  util::ByteSpan plaintext, util::MutableByteSpan out);

// `plaintext_out` must be exactly ciphertext_and_tag.size() - kAeadTagSize
// bytes. It may start at `ciphertext_and_tag` (an in-place open: the mix
// pass peels each onion where it lies) but must not overlap it any other
// way. The tag is checked before any byte is written, so a false return
// (the tag fails, or the input is shorter than a tag) leaves `plaintext_out`
// untouched.
bool AeadOpenInto(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                  util::ByteSpan ciphertext_and_tag, util::MutableByteSpan plaintext_out);

// Builds an AEAD nonce from a 64-bit counter (e.g. the round number). The
// remaining 4 bytes are a caller-chosen domain tag so different uses of the
// same key never collide.
AeadNonce NonceFromUint64(uint64_t counter, uint32_t domain = 0);

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_AEAD_H_

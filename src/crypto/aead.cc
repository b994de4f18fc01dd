#include "src/crypto/aead.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/chacha20_internal.h"

namespace vuvuzela::crypto {

namespace {

// One kernel call covers keystream blocks 0 to 7: block 0 is the Poly1305
// one-time key (its first 32 bytes, RFC 8439 §2.6) and blocks 1 to 7
// encrypt the first kHeadBytes of the message. That is every onion layer
// and response a hop seals or opens; a longer message continues at block 8.
constexpr size_t kHeadBytes = (internal::kChaCha20KernelBlocks - 1) * kChaCha20BlockSize;

// Keystream block 0 and the head's blocks for a message of `size` bytes.
// Returns the head's length.
size_t HeadKeystream(internal::ChaCha20Kernel kernel, const AeadKey& key, const AeadNonce& nonce,
                     size_t size, uint8_t keystream[internal::kChaCha20KernelBytes]) {
  const size_t head = std::min(size, kHeadBytes);
  kernel(key, nonce, 0, 1 + (head + kChaCha20BlockSize - 1) / kChaCha20BlockSize, keystream);
  return head;
}

Poly1305Tag ComputeTag(const uint8_t* mac_key_bytes, util::ByteSpan aad,
                       util::ByteSpan ciphertext) {
  static constexpr uint8_t kZeroPad[16] = {0};
  Poly1305Key mac_key;
  std::memcpy(mac_key.data(), mac_key_bytes, mac_key.size());
  Poly1305 mac(mac_key);
  mac.Update(aad);
  if (aad.size() % 16 != 0) {
    mac.Update(util::ByteSpan(kZeroPad, 16 - aad.size() % 16));
  }
  mac.Update(ciphertext);
  if (ciphertext.size() % 16 != 0) {
    mac.Update(util::ByteSpan(kZeroPad, 16 - ciphertext.size() % 16));
  }
  uint8_t lengths[16];
  util::StoreLe64(lengths, aad.size());
  util::StoreLe64(lengths + 8, ciphertext.size());
  mac.Update(lengths);
  return mac.Finish();
}

// XORs `input` into `output` with the message keystream: the head from
// `keystream` (blocks 1 to 7), the rest from block 8 on.
void XorMessage(internal::ChaCha20Kernel kernel, const AeadKey& key, const AeadNonce& nonce,
                const uint8_t* keystream, size_t head, util::ByteSpan input,
                util::MutableByteSpan output) {
  internal::XorKeystream(input.data(), keystream + kChaCha20BlockSize, output.data(), head);
  if (input.size() > head) {
    internal::ChaCha20Xor(kernel, key, nonce, internal::kChaCha20KernelBlocks,
                          input.subspan(head), output.subspan(head));
  }
}

}  // namespace

namespace internal {

void AeadSealInto(ChaCha20Kernel kernel, const AeadKey& key, const AeadNonce& nonce,
                  util::ByteSpan aad, util::ByteSpan plaintext, util::MutableByteSpan out) {
  uint8_t keystream[kChaCha20KernelBytes];
  const size_t head = HeadKeystream(kernel, key, nonce, plaintext.size(), keystream);
  util::MutableByteSpan ciphertext = out.subspan(0, plaintext.size());
  XorMessage(kernel, key, nonce, keystream, head, plaintext, ciphertext);
  const Poly1305Tag tag = ComputeTag(keystream, aad, ciphertext);
  std::memcpy(out.data() + plaintext.size(), tag.data(), tag.size());
}

bool AeadOpenInto(ChaCha20Kernel kernel, const AeadKey& key, const AeadNonce& nonce,
                  util::ByteSpan aad, util::ByteSpan ciphertext_and_tag,
                  util::MutableByteSpan plaintext_out) {
  if (ciphertext_and_tag.size() < kAeadTagSize) {
    return false;
  }
  const size_t ct_len = ciphertext_and_tag.size() - kAeadTagSize;
  util::ByteSpan ciphertext = ciphertext_and_tag.subspan(0, ct_len);
  util::ByteSpan tag = ciphertext_and_tag.subspan(ct_len);

  uint8_t keystream[kChaCha20KernelBytes];
  const size_t head = HeadKeystream(kernel, key, nonce, ct_len, keystream);
  const Poly1305Tag expected = ComputeTag(keystream, aad, ciphertext);
  if (!util::ConstantTimeEqual(expected, tag)) {
    return false;
  }
  XorMessage(kernel, key, nonce, keystream, head, ciphertext, plaintext_out);
  return true;
}

}  // namespace internal

util::Bytes AeadSeal(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                     util::ByteSpan plaintext) {
  util::Bytes out(plaintext.size() + kAeadTagSize);
  AeadSealInto(key, nonce, aad, plaintext, out);
  return out;
}

std::optional<util::Bytes> AeadOpen(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                                    util::ByteSpan ciphertext_and_tag) {
  if (ciphertext_and_tag.size() < kAeadTagSize) {
    return std::nullopt;
  }
  util::Bytes plaintext(ciphertext_and_tag.size() - kAeadTagSize);
  if (!AeadOpenInto(key, nonce, aad, ciphertext_and_tag, plaintext)) {
    return std::nullopt;
  }
  return plaintext;
}

void AeadSealInto(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                  util::ByteSpan plaintext, util::MutableByteSpan out) {
  internal::AeadSealInto(internal::SelectedChaCha20Kernel(), key, nonce, aad, plaintext, out);
}

bool AeadOpenInto(const AeadKey& key, const AeadNonce& nonce, util::ByteSpan aad,
                  util::ByteSpan ciphertext_and_tag, util::MutableByteSpan plaintext_out) {
  return internal::AeadOpenInto(internal::SelectedChaCha20Kernel(), key, nonce, aad,
                                ciphertext_and_tag, plaintext_out);
}

AeadNonce NonceFromUint64(uint64_t counter, uint32_t domain) {
  AeadNonce nonce;
  util::StoreLe32(nonce.data(), domain);
  util::StoreLe64(nonce.data() + 4, counter);
  return nonce;
}

}  // namespace vuvuzela::crypto

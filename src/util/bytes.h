// Byte-buffer helpers shared across all Vuvuzela modules.
//
// Vuvuzela's wire formats are fixed-size byte strings (envelopes, onion layers,
// dead-drop IDs), so most code passes around `Bytes` (an owned buffer) or
// `ByteSpan` (a borrowed view). Helpers here cover hex encoding for logs and
// test vectors, constant-time comparison for MACs and IDs, and secure wiping
// for key material.

#ifndef VUVUZELA_SRC_UTIL_BYTES_H_
#define VUVUZELA_SRC_UTIL_BYTES_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace vuvuzela::util {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;
using MutableByteSpan = std::span<uint8_t>;

// Encodes `data` as lowercase hex.
std::string HexEncode(ByteSpan data);

// Decodes a hex string; throws std::invalid_argument on malformed input.
Bytes HexDecode(const std::string& hex);

// Constant-time equality. Returns false on length mismatch without leaking
// where the first difference is.
bool ConstantTimeEqual(ByteSpan a, ByteSpan b);

// Overwrites the buffer with zeros in a way the compiler may not elide.
void SecureZero(MutableByteSpan data);

// Appends `src` to `dst`. Written as resize and memcpy rather than
// vector::insert, which does the same: GCC 12 inlines insert's memmove into
// callers that have just reserved or sized `dst`, and then warns
// (-Wstringop-overflow, -Warray-bounds) about a write past the old end that
// the reallocation it cannot follow makes safe.
inline void Append(Bytes& dst, ByteSpan src) {
  const size_t at = dst.size();
  dst.resize(at + src.size());
  if (!src.empty()) {
    std::memcpy(dst.data() + at, src.data(), src.size());
  }
}

// Concatenates any number of byte spans.
template <typename... Spans>
Bytes Concat(const Spans&... spans) {
  Bytes out;
  size_t total = (static_cast<size_t>(0) + ... + spans.size());
  out.reserve(total);
  (Append(out, ByteSpan(spans)), ...);
  return out;
}

// Little-endian integer store/load used by the crypto substrate.
inline void StoreLe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
  StoreLe32(p, static_cast<uint32_t>(v));
  StoreLe32(p + 4, static_cast<uint32_t>(v >> 32));
}

inline uint64_t LoadLe64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadLe32(p)) | (static_cast<uint64_t>(LoadLe32(p + 4)) << 32);
}

// Big-endian store/load (SHA-256 and wire framing use network order).
inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void StoreBe64(uint8_t* p, uint64_t v) {
  StoreBe32(p, static_cast<uint32_t>(v >> 32));
  StoreBe32(p + 4, static_cast<uint32_t>(v));
}

inline uint64_t LoadBe64(const uint8_t* p) {
  return (static_cast<uint64_t>(LoadBe32(p)) << 32) | static_cast<uint64_t>(LoadBe32(p + 4));
}

}  // namespace vuvuzela::util

#endif  // VUVUZELA_SRC_UTIL_BYTES_H_

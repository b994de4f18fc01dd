#include "src/crypto/onion.h"

#include <cstring>
#include <stdexcept>

namespace vuvuzela::crypto {

namespace {

constexpr uint32_t kRequestDomain = 1;
constexpr uint32_t kResponseDomain = 2;

const util::ByteSpan kOnionContext() {
  static constexpr uint8_t kCtx[] = "vuvuzela/onion/v1";
  return util::ByteSpan(kCtx, sizeof(kCtx) - 1);
}

// One layer's public key (what the server reads) and derived AEAD key.
struct Layer {
  X25519PublicKey public_key;
  AeadKey key;
};

// A fresh ephemeral against a server key by the ladder, or by its comb
// table. Both draw the ephemeral from `rng` the same way.
Layer LadderLayer(const X25519PublicKey& server_pk, util::Rng& rng) {
  X25519KeyPair ephemeral = X25519KeyPair::Generate(rng);
  return Layer{ephemeral.public_key,
               DeriveBoxKey(X25519(ephemeral.secret_key, server_pk), kOnionContext())};
}

Layer PrecompLayer(const X25519Precomp& server_table, util::Rng& rng) {
  X25519KeyPair ephemeral = X25519KeyPair::Generate(rng);
  return Layer{ephemeral.public_key,
               DeriveBoxKey(server_table.Mult(ephemeral.secret_key), kOnionContext())};
}

WrappedOnion EmptyOnion(size_t num_layers, size_t payload_size) {
  WrappedOnion out;
  out.data.resize(OnionRequestSize(payload_size, num_layers));
  out.layer_keys.resize(num_layers);
  return out;
}

// Wraps `payload` for `num_layers` servers into `out`, which must be
// OnionRequestSize(payload.size(), num_layers) bytes. Layer i is
// [public key i][layer i+1 sealed][tag i] and starts 32 * i bytes in, so the
// layer inside it (or the payload) already sits where its ciphertext goes:
// sealing from the last hop outward works in place, with no buffer per
// layer. `derive(i)` is called for i = num_layers-1 down to 0, the order
// every wrap draws its ephemerals in. `layer_keys`, when not empty, receives
// each layer's key.
template <typename DeriveLayer>
void WrapInto(size_t num_layers, uint64_t round, util::ByteSpan payload,
              util::MutableByteSpan out, std::span<AeadKey> layer_keys, DeriveLayer derive) {
  if (out.size() != OnionRequestSize(payload.size(), num_layers)) {
    throw std::invalid_argument("onion wrap: output size mismatch");
  }
  if (!payload.empty()) {  // an empty payload's data() may be null
    std::memmove(out.data() + num_layers * kX25519KeySize, payload.data(), payload.size());
  }
  size_t inner_size = payload.size();
  for (size_t idx = num_layers; idx-- > 0;) {
    Layer layer = derive(idx);
    if (!layer_keys.empty()) {
      layer_keys[idx] = layer.key;
    }
    uint8_t* start = out.data() + idx * kX25519KeySize;
    std::memcpy(start, layer.public_key.data(), kX25519KeySize);
    util::MutableByteSpan sealed(start + kX25519KeySize, inner_size + kAeadTagSize);
    AeadSealInto(layer.key, NonceFromUint64(round, kRequestDomain), /*aad=*/{},
                 sealed.first(inner_size), sealed);
    inner_size += kOnionRequestLayerOverhead;
  }
}

}  // namespace

WrappedOnion OnionWrap(std::span<const X25519PublicKey> server_pks, uint64_t round,
                       util::ByteSpan payload, util::Rng& rng) {
  WrappedOnion out = EmptyOnion(server_pks.size(), payload.size());
  WrapInto(server_pks.size(), round, payload, out.data, out.layer_keys,
           [&](size_t idx) { return LadderLayer(server_pks[idx], rng); });
  return out;
}

void OnionWrapInto(std::span<const X25519PublicKey> server_pks, uint64_t round,
                   util::ByteSpan payload, util::Rng& rng, util::MutableByteSpan out) {
  WrapInto(server_pks.size(), round, payload, out, {},
           [&](size_t idx) { return LadderLayer(server_pks[idx], rng); });
}

std::optional<UnwrappedLayer> OnionUnwrapLayer(const X25519SecretKey& server_sk, uint64_t round,
                                               util::ByteSpan layer) {
  if (layer.size() < kOnionRequestLayerOverhead) {
    return std::nullopt;
  }
  X25519PublicKey ephemeral_pk;
  std::memcpy(ephemeral_pk.data(), layer.data(), ephemeral_pk.size());
  X25519SharedSecret shared = X25519(server_sk, ephemeral_pk);
  AeadKey key = DeriveBoxKey(shared, kOnionContext());

  std::optional<util::Bytes> inner = AeadOpen(key, NonceFromUint64(round, kRequestDomain),
                                              /*aad=*/{}, layer.subspan(kX25519KeySize));
  if (!inner) {
    return std::nullopt;
  }
  return UnwrappedLayer{std::move(*inner), key};
}

util::Bytes OnionSealResponse(const AeadKey& key, uint64_t round, util::ByteSpan response) {
  return AeadSeal(key, NonceFromUint64(round, kResponseDomain), /*aad=*/{}, response);
}

util::ByteSpan OnionContext() { return kOnionContext(); }

bool OnionOpenLayerInto(const AeadKey& key, uint64_t round, util::ByteSpan layer,
                        util::MutableByteSpan inner_out) {
  if (layer.size() < kOnionRequestLayerOverhead) {
    return false;
  }
  return AeadOpenInto(key, NonceFromUint64(round, kRequestDomain), /*aad=*/{},
                      layer.subspan(kX25519KeySize), inner_out);
}

void OnionSealResponseInto(const AeadKey& key, uint64_t round, util::ByteSpan response,
                           util::MutableByteSpan out) {
  AeadSealInto(key, NonceFromUint64(round, kResponseDomain), /*aad=*/{}, response, out);
}

WrappedOnion OnionWrapPrecomp(std::span<const X25519Precomp> server_tables, uint64_t round,
                              util::ByteSpan payload, util::Rng& rng) {
  WrappedOnion out = EmptyOnion(server_tables.size(), payload.size());
  WrapInto(server_tables.size(), round, payload, out.data, out.layer_keys,
           [&](size_t idx) { return PrecompLayer(server_tables[idx], rng); });
  return out;
}

void OnionWrapPrecompInto(std::span<const X25519Precomp> server_tables, uint64_t round,
                          util::ByteSpan payload, util::Rng& rng, util::MutableByteSpan out) {
  WrapInto(server_tables.size(), round, payload, out, {},
           [&](size_t idx) { return PrecompLayer(server_tables[idx], rng); });
}

WrappedOnion OnionWrapWithKeys(std::span<const X25519PublicKey> server_pks,
                               std::span<const X25519KeyPair> layer_keys, uint64_t round,
                               util::ByteSpan payload) {
  WrappedOnion out = EmptyOnion(server_pks.size(), payload.size());
  WrapInto(server_pks.size(), round, payload, out.data, out.layer_keys, [&](size_t idx) {
    const X25519KeyPair& kp = layer_keys[idx];
    return Layer{kp.public_key, DeriveBoxKey(X25519(kp.secret_key, server_pks[idx]),
                                             kOnionContext())};
  });
  return out;
}

std::optional<util::Bytes> OnionOpenResponse(std::span<const AeadKey> layer_keys, uint64_t round,
                                             util::ByteSpan response) {
  util::Bytes current(response.begin(), response.end());
  for (const AeadKey& key : layer_keys) {
    std::optional<util::Bytes> inner =
        AeadOpen(key, NonceFromUint64(round, kResponseDomain), /*aad=*/{}, current);
    if (!inner) {
      return std::nullopt;
    }
    current = std::move(*inner);
  }
  return current;
}

}  // namespace vuvuzela::crypto

#include "src/crypto/onion.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/crypto/drbg.h"
#include "src/crypto/x25519_internal.h"

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

// An onion for `num_layers` servers is OnionRequestSize(payload size,
// num_layers) bytes. Layer i is [public key i][layer i+1 sealed][tag i] and
// starts 32 * i bytes in, so the layer inside it (or the payload) already
// sits where its ciphertext goes: sealing from the last hop outward works in
// place, with no buffer per layer. PlacePayload checks `out`'s size and puts
// the payload there; SealLayer(idx) then seals layer idx over the sealed
// layers idx+1 on (or the payload).
void PlacePayload(size_t num_layers, util::ByteSpan payload, util::MutableByteSpan out) {
  if (out.size() != OnionRequestSize(payload.size(), num_layers)) {
    throw std::invalid_argument("onion wrap: output size mismatch");
  }
  if (!payload.empty()) {  // an empty payload's data() may be null
    std::memmove(out.data() + num_layers * kX25519KeySize, payload.data(), payload.size());
  }
}

void SealLayer(const Layer& layer, size_t idx, uint64_t round, util::MutableByteSpan out) {
  // Each outer layer adds its key in front and its tag behind this one.
  const size_t layer_size = out.size() - idx * kOnionRequestLayerOverhead;
  uint8_t* start = out.data() + idx * kX25519KeySize;
  std::memcpy(start, layer.public_key.data(), kX25519KeySize);
  util::MutableByteSpan sealed(start + kX25519KeySize, layer_size - kX25519KeySize);
  AeadSealInto(layer.key, NonceFromUint64(round, kRequestDomain), /*aad=*/{},
               sealed.first(sealed.size() - kAeadTagSize), sealed);
}

// Wraps `payload` for `num_layers` servers into `out`. `derive(i)` is called
// for i = num_layers-1 down to 0, the order every wrap draws its ephemerals
// in. `layer_keys`, when not empty, receives each layer's key.
template <typename DeriveLayer>
void WrapInto(size_t num_layers, uint64_t round, util::ByteSpan payload,
              util::MutableByteSpan out, std::span<AeadKey> layer_keys, DeriveLayer derive) {
  PlacePayload(num_layers, payload, out);
  for (size_t idx = num_layers; idx-- > 0;) {
    Layer layer = derive(idx);
    if (!layer_keys.empty()) {
      layer_keys[idx] = layer.key;
    }
    SealLayer(layer, idx, round, out);
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

CoverOnionWrapper::CoverOnionWrapper(std::span<const X25519PublicKey> server_pks)
    : server_pks_(server_pks.begin(), server_pks.end()) {
  if (server_pks_.empty()) {
    return;
  }
  base_table_ = &X25519BasePointPrecomp();
  tables_.reserve(server_pks_.size());
  for (const X25519PublicKey& pk : server_pks_) {
    tables_.push_back(X25519Precomp::New(pk));
  }
}

void CoverOnionWrapper::WrapInto(uint64_t round, std::span<const ChaCha20Key> seeds,
                                 util::ByteSpan payloads, util::MutableByteSpan out) const {
  WrapInto(internal::SelectedCombKernel(), round, seeds, payloads, out);
}

void CoverOnionWrapper::WrapInto(X25519CombKernel kernel, uint64_t round,
                                 std::span<const ChaCha20Key> seeds, util::ByteSpan payloads,
                                 util::MutableByteSpan out) const {
  const size_t n = seeds.size();
  const size_t layers = server_pks_.size();
  const size_t payload_size = n == 0 ? 0 : payloads.size() / n;
  const size_t onion_size = OnionRequestSize(payload_size, layers);
  if (payloads.size() != n * payload_size || out.size() != n * onion_size) {
    throw std::invalid_argument("CoverOnionWrapper: payload or output size mismatch");
  }
  auto onion = [&](size_t i) { return out.subspan(i * onion_size, onion_size); };

  for (size_t begin = 0; begin < n; begin += kRun) {
    const size_t count = std::min(kRun, n - begin);
    std::optional<ChaChaRng> rngs[kRun];
    for (size_t c = 0; c < count; ++c) {
      rngs[c].emplace(seeds[begin + c]);
      PlacePayload(layers, payloads.subspan((begin + c) * payload_size, payload_size),
                   onion(begin + c));
    }
    for (size_t idx = layers; idx-- > 0;) {
      X25519SecretKey secrets[kRun];
      X25519PublicKey public_keys[kRun];
      X25519SharedSecret shared[kRun];
      for (size_t c = 0; c < count; ++c) {
        rngs[c]->Fill(secrets[c]);  // X25519KeyPair::Generate's draw
      }
      kernel(*base_table_, secrets, public_keys, count);
      if (tables_[idx]) {
        kernel(*tables_[idx], secrets, shared, count);
      } else {
        for (size_t c = 0; c < count; ++c) {
          shared[c] = X25519(secrets[c], server_pks_[idx]);
        }
      }
      for (size_t c = 0; c < count; ++c) {
        SealLayer(Layer{public_keys[c], DeriveBoxKey(shared[c], kOnionContext())}, idx, round,
                  onion(begin + c));
      }
    }
  }
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

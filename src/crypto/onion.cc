#include "src/crypto/onion.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "src/crypto/drbg.h"

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

CoverOnionWrapper::CoverOnionWrapper(std::span<const X25519PublicKey> server_pks)
    : CoverOnionWrapper(server_pks, X25519ManyLanes() > 1 && server_pks.size() <= kLanePairs
                                        ? Path::kLanes
                                        : Path::kComb) {}

CoverOnionWrapper::CoverOnionWrapper(std::span<const X25519PublicKey> server_pks, Path path)
    : server_pks_(server_pks.begin(), server_pks.end()), path_(path) {
  if (path_ == Path::kLanes) {
    if (server_pks_.size() > kLanePairs) {
      throw std::invalid_argument("CoverOnionWrapper: suffix too long for the lane path");
    }
    return;
  }
  tables_.reserve(server_pks_.size());
  for (const X25519PublicKey& pk : server_pks_) {
    std::optional<X25519Precomp> table = X25519Precomp::Create(pk);
    if (!table) {
      // A non-curve key cannot be lifted; wrap with the ladder instead.
      tables_.clear();
      break;
    }
    tables_.push_back(std::move(*table));
  }
}

void CoverOnionWrapper::WrapInto(uint64_t round, std::span<const ChaCha20Key> seeds,
                                 util::ByteSpan payloads, util::MutableByteSpan out) const {
  const size_t n = seeds.size();
  const size_t layers = server_pks_.size();
  const size_t payload_size = n == 0 ? 0 : payloads.size() / n;
  const size_t onion_size = OnionRequestSize(payload_size, layers);
  if (payloads.size() != n * payload_size || out.size() != n * onion_size) {
    throw std::invalid_argument("CoverOnionWrapper: payload or output size mismatch");
  }
  auto payload = [&](size_t i) { return payloads.subspan(i * payload_size, payload_size); };
  auto onion = [&](size_t i) { return out.subspan(i * onion_size, onion_size); };

  if (path_ == Path::kComb) {
    for (size_t i = 0; i < n; ++i) {
      ChaChaRng rng(seeds[i]);
      if (tables_.size() == layers) {
        OnionWrapPrecompInto(tables_, round, payload(i), rng, onion(i));
      } else {
        OnionWrapInto(server_pks_, round, payload(i), rng, onion(i));
      }
    }
    return;
  }

  static const auto kBasePoints = [] {
    std::array<X25519PublicKey, kLanePairs> points{};
    for (X25519PublicKey& u : points) {
      u[0] = 9;
    }
    return points;
  }();
  // Entry c * layers + idx holds layer idx of the run's onion c.
  const size_t run = kLanePairs / std::max<size_t>(layers, 1);
  for (size_t begin = 0; begin < n; begin += run) {
    const size_t count = std::min(run, n - begin);
    const size_t entries = count * layers;
    X25519SecretKey secrets[kLanePairs]{};
    X25519PublicKey suffix_keys[kLanePairs]{};
    X25519PublicKey public_keys[kLanePairs]{};
    X25519SharedSecret shared[kLanePairs]{};
    for (size_t c = 0; c < count; ++c) {
      // X25519KeyPair::Generate's draw, in WrapInto's layer order.
      ChaChaRng rng(seeds[begin + c]);
      for (size_t idx = layers; idx-- > 0;) {
        rng.Fill(secrets[c * layers + idx]);
        suffix_keys[c * layers + idx] = server_pks_[idx];
      }
    }
    X25519Lanes({secrets, entries}, {kBasePoints.data(), entries}, {public_keys, entries});
    X25519Lanes({secrets, entries}, {suffix_keys, entries}, {shared, entries});
    for (size_t c = 0; c < count; ++c) {
      const size_t first = c * layers;
      crypto::WrapInto(layers, round, payload(begin + c), onion(begin + c), {}, [&](size_t idx) {
        return Layer{public_keys[first + idx],
                     DeriveBoxKey(shared[first + idx], kOnionContext())};
      });
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

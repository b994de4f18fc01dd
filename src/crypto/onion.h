// Onion encryption for the Vuvuzela mixnet (Algorithm 1 step 2, Algorithm 2
// steps 1 and 4).
//
// Requests are wrapped innermost-out: for each server i (from the last to the
// first) the client generates a fresh X25519 key pair, derives a shared key
// with that server's long-term public key, and seals the inner layer. Each
// layer therefore adds 48 bytes (32-byte ephemeral public key + 16-byte tag).
// Servers retain the derived key per request so results can be re-encrypted
// on the way back (16 bytes of tag per layer, no key material on the wire).
//
// Fresh ephemeral keys per message are what the paper's §7 calls out as the
// dominant CPU cost: one DH per request per server in each direction of the
// chain traversal.

#ifndef VUVUZELA_SRC_CRYPTO_ONION_H_
#define VUVUZELA_SRC_CRYPTO_ONION_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/crypto/box.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/x25519_precomp.h"
#include "src/util/bytes.h"

namespace vuvuzela::crypto {

// Bytes added to a request payload per onion layer.
inline constexpr size_t kOnionRequestLayerOverhead = kX25519KeySize + kAeadTagSize;  // 48
// Bytes added to a response payload per layer on the return path.
inline constexpr size_t kOnionResponseLayerOverhead = kAeadTagSize;  // 16

constexpr size_t OnionRequestSize(size_t payload_size, size_t num_layers) {
  return payload_size + num_layers * kOnionRequestLayerOverhead;
}

constexpr size_t OnionResponseSize(size_t payload_size, size_t num_layers) {
  return payload_size + num_layers * kOnionResponseLayerOverhead;
}

// A client-wrapped request onion plus the per-layer keys needed to decrypt
// the response. keys[i] corresponds to the i-th server the request visits.
struct WrappedOnion {
  util::Bytes data;
  std::vector<AeadKey> layer_keys;
};

// Wraps `payload` for the chain suffix `server_pks` (ordered first→last hop).
// Mix servers call this with the suffix of the chain after themselves when
// generating noise requests (§4.2).
WrappedOnion OnionWrap(std::span<const X25519PublicKey> server_pks, uint64_t round,
                       util::ByteSpan payload, util::Rng& rng);

// One server peeling its layer. Returns the inner bytes and the derived key
// to use for the response on the way back; nullopt if the layer is malformed
// or fails authentication.
struct UnwrappedLayer {
  util::Bytes inner;
  AeadKey response_key;
};
std::optional<UnwrappedLayer> OnionUnwrapLayer(const X25519SecretKey& server_sk, uint64_t round,
                                               util::ByteSpan layer);

// Server-side response wrap with the key retained from OnionUnwrapLayer.
util::Bytes OnionSealResponse(const AeadKey& key, uint64_t round, util::ByteSpan response);

// Client-side: removes all response layers (layer_keys from OnionWrap, in
// chain order).
std::optional<util::Bytes> OnionOpenResponse(std::span<const AeadKey> layer_keys, uint64_t round,
                                             util::ByteSpan response);

// --- Batch-pass primitives --------------------------------------------------
//
// The mix pass (MixServer) is built on these. All of them are byte-identical
// to the plain functions above, which the serial test oracle
// (tests/reference_mix_server.h) uses; tests/batch_pass_test.cc pins that
// equivalence down pass by pass.

// The HKDF context string onion keys are derived under — exposed so a
// SecretCache can be primed (MixServer::PrimeClientSecrets) with exactly the
// keys OnionUnwrapLayer would derive.
util::ByteSpan OnionContext();

// Allocation-free open of one request layer under its key, for block
// processing: `key` is DeriveBoxKey(X25519(server_sk, ephemeral key),
// OnionContext()), which the mix pass gets for a whole block from
// SecretCache::GetMany (one DH per client per key epoch instead of one per
// onion per round). `inner_out` must be exactly layer.size() -
// kOnionRequestLayerOverhead bytes. It may be the layer's own ciphertext,
// layer.subspan(kX25519KeySize, inner size) — an in-place open, which is how
// the mix pass peels each onion inside the buffer it arrived in — but must
// not overlap `layer` any other way. Returns false on malformed or forged
// layers, leaving `inner_out` (and so an in-place layer) untouched.
bool OnionOpenLayerInto(const AeadKey& key, uint64_t round, util::ByteSpan layer,
                        util::MutableByteSpan inner_out);

// Allocation-free response seal: `out` must be exactly response.size() +
// kOnionResponseLayerOverhead bytes and must not overlap `response`.
void OnionSealResponseInto(const AeadKey& key, uint64_t round, util::ByteSpan response,
                           util::MutableByteSpan out);

// OnionWrap with the per-hop DH routed through precomputed comb tables for
// the (static) server public keys. Consumes the rng stream exactly like
// OnionWrap, so given the same rng state the output onion is byte-identical;
// tables[i] must have been built for server_pks[i] of the intended chain
// suffix. vzbench's fresh-key clients wrap with it.
WrappedOnion OnionWrapPrecomp(std::span<const X25519Precomp> server_tables, uint64_t round,
                              util::ByteSpan payload, util::Rng& rng);

// Allocation-free one-onion wraps: the onion OnionWrapPrecomp / OnionWrap
// would return, written into `out`, which must be exactly
// OnionRequestSize(payload.size(), server_tables.size()) bytes. The layers
// are sealed in place inside `out`, and the layer keys are not returned.
// They are the one-onion references CoverOnionWrapper is tested against.
void OnionWrapPrecompInto(std::span<const X25519Precomp> server_tables, uint64_t round,
                          util::ByteSpan payload, util::Rng& rng, util::MutableByteSpan out);
void OnionWrapInto(std::span<const X25519PublicKey> server_pks, uint64_t round,
                   util::ByteSpan payload, util::Rng& rng, util::MutableByteSpan out);

// Wraps a mix server's cover onions for one fixed chain suffix, many at a
// time. Onion i of a call is byte-identical to
// OnionWrapInto(server_pks, round, payload i, rng, onion i) with
// rng = ChaChaRng(seeds[i]), and so to OnionWrapPrecompInto: each onion
// draws its layers' ephemeral secrets from its own DRBG, in WrapInto's
// order (the last hop's layer first).
//
// Every multiplication has a fixed base, so all of them run on comb tables,
// through X25519CombLanes' kernel. A run of up to kRun onions is wrapped a
// layer at a time, from the last hop's outward: each onion draws that
// layer's secret, one comb call over the base-point table makes the run's
// ephemeral public keys (secret times 9), one over the layer's suffix-key
// table makes its DHs, and each onion seals the layer in place. The
// constructor builds a table per suffix key, about 30 KB each, and takes the
// process's base-point table, but only for a non-empty suffix: the last hop
// builds none. A suffix key that does not lift (a twist point) has no table,
// and its layer's DHs take the ladder.
//
// Threading: immutable once built; WrapInto is const, allocation-free and
// safe to call concurrently on disjoint outputs.
class CoverOnionWrapper {
 public:
  // Onions wrapped side by side, a layer at a time.
  static constexpr size_t kRun = 64;

  explicit CoverOnionWrapper(std::span<const X25519PublicKey> server_pks);

  // Wraps seeds.size() onions. `payloads` holds their payloads back to back,
  // all of one size; `out` receives the onions back to back, each
  // OnionRequestSize(payload size, suffix keys) bytes, and must not overlap
  // `payloads`. Throws std::invalid_argument on sizes that do not fit.
  void WrapInto(uint64_t round, std::span<const ChaCha20Key> seeds, util::ByteSpan payloads,
                util::MutableByteSpan out) const;
  // The same wrap on a given comb kernel (internal::X25519CombLanesIfma or
  // internal::X25519CombLanesPortable), so tests and benches can run both
  // on one CPU. The bytes do not depend on the kernel.
  void WrapInto(X25519CombKernel kernel, uint64_t round, std::span<const ChaCha20Key> seeds,
                util::ByteSpan payloads, util::MutableByteSpan out) const;

 private:
  std::vector<X25519PublicKey> server_pks_;
  // Aligned with server_pks_, each built in place; null where a key does
  // not lift.
  std::vector<std::unique_ptr<X25519Precomp>> tables_;
  // X25519BasePointPrecomp(), or null for an empty suffix.
  const X25519Precomp* base_table_ = nullptr;
};

// OnionWrap with caller-supplied per-layer key pairs instead of fresh
// ephemerals — how a client with a static onion identity wraps so that
// servers' secret caches hit every round. layer_keys[i] is used for
// server_pks[i]; sizes must match.
//
// Nonce-safety contract: the derived (client key, server key) AEAD key is
// reused across rounds with the round number as nonce, so a given static key
// pair must wrap at most ONE onion per (round, direction) — exactly the
// one-request-per-round shape of Vuvuzela's conversation protocol. Wrapping
// two same-round onions under one static key would reuse a nonce; use fresh
// ephemerals (plain OnionWrap) for anything outside the one-per-round model.
WrappedOnion OnionWrapWithKeys(std::span<const X25519PublicKey> server_pks,
                               std::span<const X25519KeyPair> layer_keys, uint64_t round,
                               util::ByteSpan payload);

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_ONION_H_

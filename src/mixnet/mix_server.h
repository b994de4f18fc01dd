// One Vuvuzela server (Algorithm 2).
//
// Every server peels one onion layer off each request. A server that is not
// the last additionally generates cover traffic, shuffles the round's
// requests, and forwards them; on the return path it unshuffles, strips its
// own noise, and seals each response with the per-request key it retained.
// The last server hosts the dead drops (conversation exchanges / invitation
// table).
//
// The class is deployment-agnostic: the chain driver, the TCP server wrapper
// in examples, and the benches all call the same ForwardX/BackwardX methods.
//
// Determinism contract (crash recovery): all of a round's randomness — noise
// plans, fake payloads, the shuffle, and the garbage filling dropped response
// slots — is drawn from a per-(round, pass) RNG derived by HKDF from the
// server's seed, never from RNG state carried across rounds. Every pass is
// therefore a pure function of (seed, round, input batch), so a server
// restarted from its key file replays any round bit-for-bit, whatever rounds
// it processed before the crash — which is what lets the round engine retry a
// crashed round and get output byte-identical to an uninterrupted run.
//
// One implementation of each pass: onions are processed in cache-friendly
// blocks over ThreadPool::ParallelForBlocks, each peeled where it lies in the
// caller's buffer (no per-onion allocation and no second batch), per-client
// shared secrets are cached across rounds in a two-generation SecretCache
// advanced once per unwrap pass (the round number only enters the AEAD nonce, so a hit cannot
// change any output byte; keys not seen for two passes leave, so the cache
// holds one pass's clients, not every cover onion ever unwrapped; a block's
// misses are derived together, eight per ladder on AVX-512 IFMA), and cover
// onions are wrapped in blocks by crypto::CoverOnionWrapper (every layer
// keygen and DH on a comb table, eight per comb on AVX-512 IFMA). A serial,
// uncached, ladder-only reference of every pass lives in
// tests/reference_mix_server.h; tests/batch_pass_test.cc pins this class
// byte-for-byte against it, which the determinism contract above makes
// provable rather than statistical.
//
// Threading/ownership: one MixServer runs one pass at a time — callers
// serialize passes (the hop daemon's connection loop and the chain driver
// both do). Within a pass the server fans out over util::GlobalPool();
// per-round state is touched only between fan-outs, on the calling thread.
// The secret cache is internally synchronized because pool workers hit it
// concurrently. RotateKey and ExpireRounds must not race a running pass.

#ifndef VUVUZELA_SRC_MIXNET_MIX_SERVER_H_
#define VUVUZELA_SRC_MIXNET_MIX_SERVER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/crypto/drbg.h"
#include "src/crypto/onion.h"
#include "src/crypto/secret_cache.h"
#include "src/crypto/x25519.h"
#include "src/deaddrop/conversation_table.h"
#include "src/deaddrop/exchange_backend.h"
#include "src/deaddrop/invitation_table.h"
#include "src/noise/noise_gen.h"
#include "src/util/batch.h"
#include "src/util/bytes.h"
#include "src/util/thread_pool.h"

namespace vuvuzela::mixnet {

struct MixServerConfig {
  // Zero-based position in the chain; the server at `chain_length - 1` hosts
  // the dead drops.
  size_t position = 0;
  size_t chain_length = 1;
  noise::NoiseConfig conversation_noise;
  noise::NoiseConfig dialing_noise;
};

// Per-round, per-server counters surfaced to benches (Figures 9-11, §8.2
// bandwidth table).
struct ServerRoundStats {
  uint64_t requests_in = 0;
  uint64_t requests_dropped = 0;  // failed authentication / malformed
  uint64_t noise_requests_added = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t dh_ops = 0;  // X25519 operations performed this pass
};

class MixServer {
 public:
  // `chain_public_keys` is the full ordered chain (including this server);
  // noise onions are wrapped for the suffix after `config.position`.
  MixServer(const MixServerConfig& config, crypto::X25519KeyPair key_pair,
            std::vector<crypto::X25519PublicKey> chain_public_keys,
            const crypto::ChaCha20Key& rng_seed);

  const crypto::X25519PublicKey& public_key() const { return key_pair_.public_key; }
  const MixServerConfig& config() const { return config_; }
  bool is_last() const { return config_.position + 1 == config_.chain_length; }

  // Overrides the last server's dead-drop exchange backend (non-owning; the
  // backend must outlive the server). nullptr restores the default in-process
  // exchange, sharded by ID prefix across the pool's workers. Backends are
  // deterministic given the same requests, so swapping backends never changes
  // a round's bytes — the exchange-partition conformance suite pins that down.
  void SetExchangeBackend(deaddrop::ExchangeBackend* backend) { exchange_backend_ = backend; }
  deaddrop::ExchangeBackend* exchange_backend() const { return exchange_backend_; }

  // --- Conversation rounds ------------------------------------------------
  //
  // The peeling passes (both forward passes and both last hops) work inside
  // the caller's buffers: `batch` views the requests (the hop daemon passes
  // views straight into the received chunks; no two items may overlap), and
  // the pass may overwrite every byte of every item. Each onion is opened
  // where it lies — a layer's plaintext is its ciphertext minus the 48-byte
  // ephemeral key and tag, so the inner onion of request i is
  // batch[i].subspan(32, size - 48) — and a last hop seals each response
  // over its own request there. Their outputs are util::InPlaceBatch views
  // that alias `batch`, so the caller keeps the input buffers alive for as
  // long as it reads the output, and holds one batch a pass instead of two.
  // The only bytes a peeling pass allocates for items are its own: the cover
  // onions, and the response slots of missized requests.
  //
  // BackwardConversation reads its input as views only during the call (its
  // output is 16 bytes an item larger than its input, so it cannot work in
  // place) and writes one util::Batch: one buffer allocated on the calling
  // thread, whose strides the pool workers fill.
  //
  // Size rule: at one position in one round type every request has one size,
  // crypto::OnionRequestSize(payload, servers left). A request of any other
  // size is dropped and counted in requests_dropped, like one that fails
  // authentication, so no onion carries a size of its own across a shuffle.

  // Intermediate server: peel one layer from each onion, add cover traffic,
  // shuffle, and return the batch for the next hop: views of the peeled
  // onions inside `batch`, shuffled together with the cover onions of the
  // returned batch's `owned`. Stores round state for the return pass.
  util::InPlaceBatch ForwardConversation(uint64_t round,
                                         std::span<const util::MutableByteSpan> batch,
                                         ServerRoundStats* stats = nullptr);

  // Intermediate server, return pass: `responses` aligned with the batch
  // returned by ForwardConversation. Returns responses aligned with that
  // call's input batch. Clears the round state.
  util::Batch BackwardConversation(uint64_t round, std::span<const util::ByteSpan> responses,
                                   ServerRoundStats* stats = nullptr);

  // Last server: peel the final layer, run the dead-drop exchange, and seal
  // each response. Responses aligned with the input batch. The exchange
  // reads the dead-drop IDs of the requests peeled in place, and each
  // response is sealed into its own request's region, from its partner's
  // envelope there (a response, kEnvelopeSize + 16 bytes, is exactly a
  // peeled request's size), so no request, envelope or response batch is
  // allocated. Only a missized request's response slot is `owned`.
  struct LastHopOutput {
    util::InPlaceBatch responses;
    deaddrop::AccessHistogram histogram;
    uint64_t messages_exchanged = 0;
  };
  LastHopOutput ProcessConversationLastHop(uint64_t round,
                                           std::span<const util::MutableByteSpan> batch,
                                           ServerRoundStats* stats = nullptr);

  // The last hop's result with one owned vector per response: the form the
  // round drivers' seams (transport::HopTransport, Chain) hand out.
  struct LastServerResult {
    std::vector<util::Bytes> responses;
    deaddrop::AccessHistogram histogram;
    uint64_t messages_exchanged = 0;
  };
  static LastServerResult ToLastServerResult(const LastHopOutput& output);

  // --- Dialing rounds -----------------------------------------------------

  // Intermediate server: peel, add per-drop noise invitations, shuffle,
  // forward — in place, like ForwardConversation. Dialing has no return pass
  // through the chain (§5.5): clients download their invitation drop
  // out-of-band.
  util::InPlaceBatch ForwardDialing(uint64_t round, std::span<const util::MutableByteSpan> batch,
                                    uint32_t num_drops, ServerRoundStats* stats = nullptr);

  // Last server: peel in place, deposit invitations into the table, add this
  // server's own noise directly. The table owns its invitations, so `batch`
  // may be freed once this returns.
  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round,
                                                  std::span<const util::MutableByteSpan> batch,
                                                  uint32_t num_drops,
                                                  ServerRoundStats* stats = nullptr);

  // --- Key lifecycle --------------------------------------------------------

  // Installs a new long-term key pair and invalidates every cached client
  // secret derived under the old one (a stale entry would fail the AEAD tag
  // on every onion wrapped for the new key and silently drop the batch).
  // Callers must not rotate concurrently with a running pass.
  void RotateKey(const crypto::X25519KeyPair& key_pair);

  // Warms the shared-secret cache for a known client population (the static
  // key ceremony) so the first round after startup or rotation pays no DH
  // storm inside the pass. Optional: misses during a pass derive on demand.
  void PrimeClientSecrets(std::span<const crypto::X25519PublicKey> client_pks);

  // Cache observability: hits climb once clients present static keys; a
  // rotation shows up as an epoch bump and a restart of misses.
  const crypto::SecretCache& secret_cache() const { return secret_cache_; }

  // Summed wall time of every forward pass's cover-onion wrap, seed draws
  // included; read it before and after a pass to time that pass's wrap.
  uint64_t noise_wrap_nanos() const { return noise_wrap_nanos_; }

  // --- Hygiene --------------------------------------------------------------

  // Number of rounds awaiting their return pass.
  size_t pending_rounds() const { return rounds_.size(); }

  // Discards state for rounds older than `newest_round - keep`. A downstream
  // server that never returns responses (a DoS, §2.3) must not pin memory
  // here forever; dead drops are ephemeral (§3.1), so expired rounds can
  // never complete anyway.
  void ExpireRounds(uint64_t newest_round, uint64_t keep);

 private:
  struct RoundState {
    // Original batch size (responses owed to the previous hop).
    size_t input_size = 0;
    // orig_index[j] = input position of the j-th valid request.
    std::vector<uint32_t> orig_index;
    // Response key retained per valid request (same order as orig_index).
    std::vector<crypto::AeadKey> response_keys;
    // Shuffle applied to (valid ‖ noise).
    std::vector<uint32_t> perm;
    // Response payload size expected from the next hop.
    size_t response_size_in = 0;
  };

  // Peels every input in place on the pool: the inner layer of batch[i] is
  // opened into Inner(batch[i]). A request that is not inner_size +
  // kOnionRequestLayerOverhead bytes, or fails authentication, is not ok
  // (and a failed open leaves its bytes untouched).
  struct Peeled {
    std::vector<uint8_t> ok;            // per input; uint8_t: written concurrently
    std::vector<crypto::AeadKey> keys;  // response key per ok input
    uint64_t dropped = 0;
  };
  Peeled Peel(uint64_t round, std::span<const util::MutableByteSpan> batch, size_t inner_size);

  // The forward pass of both round types: peels the batch in place, wraps
  // the cover payloads into the output's owned batch, and shuffles the views
  // of the valid inners and the cover onions. Fills `state` (orig_index,
  // response_keys, perm) and the pass's stats.
  util::InPlaceBatch PeelAndMix(uint64_t round, std::span<const util::MutableByteSpan> batch,
                                size_t payload_size, const util::Batch& noise_payloads,
                                crypto::ChaChaRng& rng, ServerRoundStats& stats,
                                RoundState& state);

  deaddrop::ExchangeBackend& Backend() {
    return exchange_backend_ != nullptr ? *exchange_backend_ : in_process_exchange_;
  }
  std::span<const crypto::X25519PublicKey> ChainSuffix() const;
  size_t ResponseSizeFromNextHop() const;
  // Wraps each cover payload for the chain suffix into out[i], block by
  // block on the pool, drawing one per-onion seed from `rng` in order, and
  // adds the wall time to noise_wrap_nanos_.
  void WrapNoise(uint64_t round, const util::Batch& payloads, crypto::ChaChaRng& rng,
                 util::Batch& out);
  // Derives the per-(round, pass) RNG; `pass` is a domain-separation label so
  // the forward and backward passes of one round never share a stream.
  crypto::ChaChaRng RoundRng(uint8_t pass, uint64_t round) const;

  MixServerConfig config_;
  crypto::X25519KeyPair key_pair_;
  std::vector<crypto::X25519PublicKey> chain_public_keys_;
  crypto::ChaCha20Key rng_seed_;
  std::unordered_map<uint64_t, RoundState> rounds_;
  deaddrop::ExchangeBackend* exchange_backend_ = nullptr;
  // The default backend: one exchange shard per pool worker.
  deaddrop::InProcessExchangeBackend in_process_exchange_{util::GlobalPool().num_threads()};
  // Derived-key cache for the unwrap pass; invalidated by RotateKey.
  crypto::SecretCache secret_cache_;
  // Wraps the cover onions for ChainSuffix().
  crypto::CoverOnionWrapper cover_wrapper_;
  uint64_t noise_wrap_nanos_ = 0;
};

}  // namespace vuvuzela::mixnet

#endif  // VUVUZELA_SRC_MIXNET_MIX_SERVER_H_

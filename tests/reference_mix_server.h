// Reference implementation of one Vuvuzela server's passes (Algorithm 2), the
// oracle tests/batch_pass_test.cc pins mixnet::MixServer against.
//
// Every pass here is the plainest form the paper describes: one onion at a
// time on the calling thread, a fresh DH per onion (no SecretCache), the
// Montgomery ladder for every cover-onion layer (no comb tables), and its own
// envelope-swapping dead-drop exchange (a map over dead-drop IDs) in place of
// deaddrop::ExchangeRound. None of MixServer's pass code is shared. The
// per-(round, pass) RNG is rederived here from the server's seed (HKDF, info
// "vz-rng/" ‖ pass ‖ round as 8 little-endian bytes), so byte-identical
// output also pins MixServer's determinism contract from outside the class:
// every pass is a pure function of (seed, round, input batch).
//
// The output contract is MixServer's: same sizes, same order, same stats,
// the same size rule on every unwrap (a request that is not
// OnionRequestSize(payload, servers left) bytes is dropped like a forgery),
// and the same rule for a return-path slot with no valid response (a
// request dropped on the forward pass, or a response of the wrong size from
// the next hop): random bytes of the sealed size, drawn in slot order.

#ifndef VUVUZELA_TESTS_REFERENCE_MIX_SERVER_H_
#define VUVUZELA_TESTS_REFERENCE_MIX_SERVER_H_

#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/crypto/drbg.h"
#include "src/crypto/hkdf.h"
#include "src/crypto/onion.h"
#include "src/deaddrop/conversation_table.h"
#include "src/deaddrop/invitation_table.h"
#include "src/mixnet/mix_server.h"
#include "src/mixnet/shuffler.h"
#include "src/noise/noise_gen.h"
#include "src/wire/messages.h"

namespace vuvuzela::mixnet {

class ReferenceMixServer {
 public:
  // Same arguments as MixServer. `mix = false` models a compromised server
  // that skips the shuffle and forwards its batch in order (§4.2, the
  // adversary tests); MixServer always shuffles.
  ReferenceMixServer(const MixServerConfig& config, crypto::X25519KeyPair key_pair,
                     std::vector<crypto::X25519PublicKey> chain_public_keys,
                     const crypto::ChaCha20Key& rng_seed, bool mix = true)
      : config_(config),
        key_pair_(key_pair),
        chain_public_keys_(std::move(chain_public_keys)),
        rng_seed_(rng_seed),
        mix_(mix) {}

  std::vector<util::Bytes> ForwardConversation(uint64_t round, std::vector<util::Bytes> batch,
                                               ServerRoundStats* stats = nullptr) {
    ServerRoundStats local = Incoming(batch);
    Unwrapped unwrapped = Unwrap(round, batch, wire::kExchangeRequestSize);
    local.requests_dropped = unwrapped.dropped;
    local.dh_ops += batch.size();

    // Cover traffic: the singles, then the pairs (two fakes sharing a drop).
    crypto::ChaChaRng rng = RoundRng(kForwardConversation, round);
    noise::ConversationNoisePlan plan = PlanConversationNoise(config_.conversation_noise, rng);
    std::vector<util::Bytes> payloads;
    for (uint64_t i = 0; i < plan.singles; ++i) {
      payloads.push_back(FakeExchange(rng).Serialize());
    }
    for (uint64_t i = 0; i < plan.pairs; ++i) {
      wire::ExchangeRequest first = FakeExchange(rng);
      wire::ExchangeRequest second = FakeExchange(rng);
      second.dead_drop = first.dead_drop;
      payloads.push_back(first.Serialize());
      payloads.push_back(second.Serialize());
    }

    Pending pending;
    pending.input_size = batch.size();
    pending.orig_index = std::move(unwrapped.orig_index);
    pending.keys = std::move(unwrapped.keys);
    pending.response_size_in =
        wire::kEnvelopeSize +
        (config_.chain_length - 1 - config_.position) * crypto::kOnionResponseLayerOverhead;
    std::vector<util::Bytes> out =
        MixWithNoise(round, std::move(unwrapped.inners), payloads, rng, &local, &pending.perm);
    pending_[round] = std::move(pending);
    Outgoing(out, &local, stats);
    return out;
  }

  std::vector<util::Bytes> BackwardConversation(uint64_t round, std::vector<util::Bytes> responses,
                                                ServerRoundStats* stats = nullptr) {
    auto it = pending_.find(round);
    if (it == pending_.end()) {
      throw std::logic_error("ReferenceMixServer: unknown round");
    }
    Pending pending = std::move(it->second);
    pending_.erase(it);
    if (responses.size() != pending.perm.size()) {
      throw std::invalid_argument("ReferenceMixServer: response count mismatch");
    }
    ServerRoundStats local = Incoming(responses);

    std::vector<util::Bytes> unshuffled = pending.perm.ApplyInverse(std::move(responses));
    std::vector<util::Bytes> out(pending.input_size);
    for (size_t j = 0; j < pending.orig_index.size(); ++j) {
      if (unshuffled[j].size() == pending.response_size_in) {
        out[pending.orig_index[j]] =
            crypto::OnionSealResponse(pending.keys[j], round, unshuffled[j]);
      }
    }
    crypto::ChaChaRng rng = RoundRng(kBackwardConversation, round);
    FillEmpty(out, pending.response_size_in + crypto::kOnionResponseLayerOverhead, rng);
    Outgoing(out, &local, stats);
    return out;
  }

  MixServer::LastServerResult ProcessConversationLastHop(uint64_t round,
                                                         std::vector<util::Bytes> batch,
                                                         ServerRoundStats* stats = nullptr) {
    ServerRoundStats local = Incoming(batch);
    Unwrapped unwrapped = Unwrap(round, batch, wire::kExchangeRequestSize);
    local.dh_ops += batch.size();

    std::vector<wire::ExchangeRequest> requests;
    std::vector<uint32_t> orig_index;
    std::vector<crypto::AeadKey> keys;
    for (size_t j = 0; j < unwrapped.inners.size(); ++j) {
      std::optional<wire::ExchangeRequest> parsed =
          wire::ExchangeRequest::Parse(unwrapped.inners[j]);
      if (!parsed) {
        unwrapped.dropped++;
        continue;
      }
      requests.push_back(*parsed);
      orig_index.push_back(unwrapped.orig_index[j]);
      keys.push_back(unwrapped.keys[j]);
    }
    local.requests_dropped = unwrapped.dropped;

    MixServer::LastServerResult result;
    std::vector<wire::Envelope> envelopes =
        SwapEnvelopes(requests, result.histogram, result.messages_exchanged);
    result.responses.resize(batch.size());
    for (size_t j = 0; j < requests.size(); ++j) {
      result.responses[orig_index[j]] = crypto::OnionSealResponse(keys[j], round, envelopes[j]);
    }
    crypto::ChaChaRng rng = RoundRng(kLastConversation, round);
    FillEmpty(result.responses, wire::kEnvelopeSize + crypto::kOnionResponseLayerOverhead, rng);
    Outgoing(result.responses, &local, stats);
    return result;
  }

  std::vector<util::Bytes> ForwardDialing(uint64_t round, std::vector<util::Bytes> batch,
                                          uint32_t num_drops, ServerRoundStats* stats = nullptr) {
    ServerRoundStats local = Incoming(batch);
    Unwrapped unwrapped = Unwrap(round, batch, wire::kDialRequestSize);
    local.requests_dropped = unwrapped.dropped;
    local.dh_ops += batch.size();

    crypto::ChaChaRng rng = RoundRng(kForwardDialing, round);
    std::vector<uint64_t> counts = PlanDialingNoise(config_.dialing_noise, num_drops, rng);
    std::vector<util::Bytes> payloads;
    for (uint32_t d = 0; d < num_drops; ++d) {
      for (uint64_t j = 0; j < counts[d]; ++j) {
        wire::DialRequest fake;
        fake.dead_drop_index = d;
        rng.Fill(fake.invitation);
        payloads.push_back(fake.Serialize());
      }
    }
    std::vector<util::Bytes> out =
        MixWithNoise(round, std::move(unwrapped.inners), payloads, rng, &local, nullptr);
    Outgoing(out, &local, stats);
    return out;
  }

  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round, std::vector<util::Bytes> batch,
                                                  uint32_t num_drops,
                                                  ServerRoundStats* stats = nullptr) {
    if (num_drops == 0) {
      throw std::invalid_argument("ReferenceMixServer: num_drops must be positive");
    }
    ServerRoundStats local = Incoming(batch);
    Unwrapped unwrapped = Unwrap(round, batch, wire::kDialRequestSize);
    local.dh_ops += batch.size();

    deaddrop::InvitationTable table(num_drops);
    for (const util::Bytes& inner : unwrapped.inners) {
      std::optional<wire::DialRequest> parsed = wire::DialRequest::Parse(inner);
      if (!parsed) {
        unwrapped.dropped++;
        continue;
      }
      table.Add(parsed->dead_drop_index % num_drops, parsed->invitation);
    }
    local.requests_dropped = unwrapped.dropped;

    // The last server's own noise goes straight into the table.
    crypto::ChaChaRng rng = RoundRng(kLastDialing, round);
    std::vector<uint64_t> counts = PlanDialingNoise(config_.dialing_noise, num_drops, rng);
    table.AddNoise(counts, rng);
    for (uint64_t count : counts) {
      local.noise_requests_added += count;
    }
    if (stats) {
      *stats = local;
    }
    return table;
  }

 private:
  // Pass labels of the RNG derivation, one per pass kind.
  static constexpr uint8_t kForwardConversation = 1;
  static constexpr uint8_t kBackwardConversation = 2;
  static constexpr uint8_t kLastConversation = 3;
  static constexpr uint8_t kForwardDialing = 4;
  static constexpr uint8_t kLastDialing = 5;

  struct Unwrapped {
    std::vector<util::Bytes> inners;    // valid layers, input order
    std::vector<uint32_t> orig_index;   // input position of each
    std::vector<crypto::AeadKey> keys;  // response key of each
    uint64_t dropped = 0;
  };

  // A conversation round awaiting its return pass.
  struct Pending {
    size_t input_size = 0;
    std::vector<uint32_t> orig_index;
    std::vector<crypto::AeadKey> keys;
    Permutation perm = Permutation::Identity(0);
    size_t response_size_in = 0;
  };

  crypto::ChaChaRng RoundRng(uint8_t pass, uint64_t round) const {
    util::Bytes info = {'v', 'z', '-', 'r', 'n', 'g', '/', pass};
    for (int i = 0; i < 8; ++i) {
      info.push_back(static_cast<uint8_t>(round >> (8 * i)));
    }
    util::Bytes okm = crypto::Hkdf(/*salt=*/{}, rng_seed_, info, crypto::kChaCha20KeySize);
    crypto::ChaCha20Key key;
    std::copy(okm.begin(), okm.end(), key.begin());
    return crypto::ChaChaRng(key);
  }

  // The dead-drop exchange (Algorithm 2 step 3b): accesses grouped by ID,
  // paired in input order within a drop, an odd access out getting its own
  // envelope back. Returns the envelope each request receives.
  static std::vector<wire::Envelope> SwapEnvelopes(
      const std::vector<wire::ExchangeRequest>& requests, deaddrop::AccessHistogram& histogram,
      uint64_t& messages_exchanged) {
    std::map<wire::DeadDropId, std::vector<size_t>> drops;
    for (size_t i = 0; i < requests.size(); ++i) {
      drops[requests[i].dead_drop].push_back(i);
    }
    std::vector<wire::Envelope> envelopes(requests.size());
    for (const auto& [id, accesses] : drops) {
      if (accesses.size() == 1) {
        histogram.singles++;
      } else if (accesses.size() == 2) {
        histogram.pairs++;
      } else {
        histogram.crowded++;
      }
      size_t k = 0;
      for (; k + 1 < accesses.size(); k += 2) {
        envelopes[accesses[k]] = requests[accesses[k + 1]].envelope;
        envelopes[accesses[k + 1]] = requests[accesses[k]].envelope;
        messages_exchanged += 2;
      }
      if (k < accesses.size()) {
        envelopes[accesses[k]] = requests[accesses[k]].envelope;
      }
    }
    return envelopes;
  }

  static wire::ExchangeRequest FakeExchange(util::Rng& rng) {
    wire::ExchangeRequest request;
    rng.Fill(request.dead_drop);
    rng.Fill(request.envelope);
    return request;
  }

  static ServerRoundStats Incoming(const std::vector<util::Bytes>& items) {
    ServerRoundStats stats;
    stats.requests_in = items.size();
    for (const util::Bytes& item : items) {
      stats.bytes_in += item.size();
    }
    return stats;
  }

  static void Outgoing(const std::vector<util::Bytes>& items, ServerRoundStats* local,
                       ServerRoundStats* stats) {
    for (const util::Bytes& item : items) {
      local->bytes_out += item.size();
    }
    if (stats) {
      *stats = *local;
    }
  }

  static void FillEmpty(std::vector<util::Bytes>& slots, size_t size, util::Rng& rng) {
    for (util::Bytes& slot : slots) {
      if (slot.empty()) {
        slot = rng.RandomBytes(size);
      }
    }
  }

  // Peels every onion whose size is the one this position expects for a
  // payload of `payload_size` bytes.
  Unwrapped Unwrap(uint64_t round, const std::vector<util::Bytes>& batch,
                   size_t payload_size) const {
    const size_t request_size =
        crypto::OnionRequestSize(payload_size, config_.chain_length - config_.position);
    Unwrapped result;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].size() != request_size) {
        result.dropped++;
        continue;
      }
      std::optional<crypto::UnwrappedLayer> layer =
          crypto::OnionUnwrapLayer(key_pair_.secret_key, round, batch[i]);
      if (!layer) {
        result.dropped++;
        continue;
      }
      result.inners.push_back(std::move(layer->inner));
      result.orig_index.push_back(static_cast<uint32_t>(i));
      result.keys.push_back(layer->response_key);
    }
    return result;
  }

  // Wraps each cover payload for the chain suffix (one seed per onion, drawn
  // from `rng` in order), appends the cover onions after the valid inners,
  // and shuffles the lot with the next draws from `rng`.
  std::vector<util::Bytes> MixWithNoise(uint64_t round, std::vector<util::Bytes> inners,
                                        const std::vector<util::Bytes>& payloads,
                                        crypto::ChaChaRng& rng, ServerRoundStats* local,
                                        Permutation* perm_out) const {
    std::span<const crypto::X25519PublicKey> suffix =
        std::span<const crypto::X25519PublicKey>(chain_public_keys_).subspan(config_.position + 1);
    std::vector<crypto::ChaCha20Key> seeds(payloads.size());
    for (crypto::ChaCha20Key& seed : seeds) {
      rng.Fill(seed);
    }
    for (size_t i = 0; i < payloads.size(); ++i) {
      crypto::ChaChaRng onion_rng(seeds[i]);
      inners.push_back(crypto::OnionWrap(suffix, round, payloads[i], onion_rng).data);
    }
    local->noise_requests_added = payloads.size();
    local->dh_ops += payloads.size() * suffix.size();

    Permutation perm =
        mix_ ? Permutation::Random(inners.size(), rng) : Permutation::Identity(inners.size());
    std::vector<util::Bytes> out = perm.Apply(std::move(inners));
    if (perm_out != nullptr) {
      *perm_out = std::move(perm);
    }
    return out;
  }

  MixServerConfig config_;
  crypto::X25519KeyPair key_pair_;
  std::vector<crypto::X25519PublicKey> chain_public_keys_;
  crypto::ChaCha20Key rng_seed_;
  bool mix_;
  std::unordered_map<uint64_t, Pending> pending_;
};

}  // namespace vuvuzela::mixnet

#endif  // VUVUZELA_TESTS_REFERENCE_MIX_SERVER_H_

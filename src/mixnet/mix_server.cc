#include "src/mixnet/mix_server.h"

#include <array>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "src/crypto/hkdf.h"
#include "src/mixnet/shuffler.h"
#include "src/wire/messages.h"

namespace vuvuzela::mixnet {

namespace {

// Domain-separation labels for the per-round RNG derivation; distinct per
// pass kind so no two passes ever share a stream.
constexpr uint8_t kRngForwardConversation = 1;
constexpr uint8_t kRngBackwardConversation = 2;
constexpr uint8_t kRngLastConversation = 3;
constexpr uint8_t kRngForwardDialing = 4;
constexpr uint8_t kRngLastDialing = 5;

// Builds the fixed-size plaintext of one fake exchange request (Algorithm 2
// step 2): a random dead-drop ID and a random envelope. Random bytes are
// indistinguishable from real AEAD ciphertext.
wire::ExchangeRequest FakeExchange(util::Rng& rng) {
  wire::ExchangeRequest req;
  rng.Fill(req.dead_drop);
  rng.Fill(req.envelope);
  return req;
}

template <typename Item>
ServerRoundStats Incoming(std::span<const Item> batch) {
  ServerRoundStats stats;
  stats.requests_in = batch.size();
  for (util::ByteSpan item : batch) {
    stats.bytes_in += item.size();
  }
  return stats;
}

// Where a request's inner layer lies once it is peeled in place: after the
// ephemeral key, over the ciphertext (the tag's 16 bytes are left over).
// `item` must be at least kOnionRequestLayerOverhead bytes.
util::MutableByteSpan Inner(util::MutableByteSpan item) {
  return item.subspan(crypto::kX25519KeySize, item.size() - crypto::kOnionRequestLayerOverhead);
}

// Onions per block: the work-stealing unit of ParallelForBlocks and the reuse
// scope for per-block scratch. Blocks are a scheduling unit, never a semantic
// one, so the value never changes a byte.
constexpr size_t kBlock = 64;

// Cover onions per block of the noise wrap: a few lane ladders' worth, and
// enough blocks to keep every worker busy at bench-scale noise.
constexpr size_t kWrapBlock = 16;

// Seals responses[j] under keys[j] into out[slots[j]], block by block on the
// pool, and returns which slots were sealed. A response that is not
// out.item_size() - kOnionResponseLayerOverhead bytes is left unsealed, so
// the caller fills its slot like a dropped one: passing a distinct size
// through would let it be followed across this server's shuffle.
std::vector<uint8_t> SealBlocks(uint64_t round, std::span<const util::ByteSpan> responses,
                                std::span<const crypto::AeadKey> keys,
                                std::span<const uint32_t> slots, util::Batch& out) {
  const size_t response_size = out.item_size() - crypto::kOnionResponseLayerOverhead;
  std::vector<uint8_t> sealed(out.size(), 0);  // uint8_t: distinct slots written concurrently
  util::GlobalPool().ParallelForBlocks(responses.size(), kBlock, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      if (responses[j].size() != response_size) {
        continue;
      }
      crypto::OnionSealResponseInto(keys[j], round, responses[j], out[slots[j]]);
      sealed[slots[j]] = 1;
    }
  });
  return sealed;
}

// Gives every slot left unsealed (a request dropped on the forward pass or a
// missized response) random bytes, indistinguishable from a sealed response.
// Drawn in slot order from the pass's RNG.
void FillEmptySlots(util::Batch& out, const std::vector<uint8_t>& sealed,
                    crypto::ChaChaRng& rng) {
  for (size_t i = 0; i < out.size(); ++i) {
    if (!sealed[i]) {
      rng.Fill(out[i]);
    }
  }
}

// The chain after `config.position`, once the chain is checked.
std::span<const crypto::X25519PublicKey> CheckedSuffix(
    const MixServerConfig& config, const std::vector<crypto::X25519PublicKey>& chain) {
  if (config.chain_length == 0 || config.position >= config.chain_length) {
    throw std::invalid_argument("MixServer: bad chain position");
  }
  if (chain.size() != config.chain_length) {
    throw std::invalid_argument("MixServer: chain key count mismatch");
  }
  return std::span<const crypto::X25519PublicKey>(chain).subspan(config.position + 1);
}

}  // namespace

MixServer::MixServer(const MixServerConfig& config, crypto::X25519KeyPair key_pair,
                     std::vector<crypto::X25519PublicKey> chain_public_keys,
                     const crypto::ChaCha20Key& rng_seed)
    : config_(config),
      key_pair_(key_pair),
      chain_public_keys_(std::move(chain_public_keys)),
      rng_seed_(rng_seed),
      cover_wrapper_(CheckedSuffix(config_, chain_public_keys_)) {}

void MixServer::RotateKey(const crypto::X25519KeyPair& key_pair) {
  key_pair_ = key_pair;
  chain_public_keys_[config_.position] = key_pair.public_key;
  secret_cache_.Invalidate();
}

void MixServer::PrimeClientSecrets(std::span<const crypto::X25519PublicKey> client_pks) {
  util::GlobalPool().ParallelForBlocks(client_pks.size(), kBlock, [&](size_t begin, size_t end) {
    crypto::AeadKey keys[kBlock]{};
    secret_cache_.GetMany(key_pair_.secret_key, client_pks.subspan(begin, end - begin),
                          crypto::OnionContext(), {keys, end - begin});
  });
}

crypto::ChaChaRng MixServer::RoundRng(uint8_t pass, uint64_t round) const {
  uint8_t label[8] = {'v', 'z', '-', 'r', 'n', 'g', '/', pass};
  util::Bytes info(label, label + sizeof(label));
  for (int i = 0; i < 8; ++i) {
    info.push_back(static_cast<uint8_t>(round >> (8 * i)));
  }
  util::Bytes okm = crypto::Hkdf(/*salt=*/{}, rng_seed_, info, crypto::kChaCha20KeySize);
  crypto::ChaCha20Key key;
  std::copy(okm.begin(), okm.end(), key.begin());
  return crypto::ChaChaRng(key);
}

std::span<const crypto::X25519PublicKey> MixServer::ChainSuffix() const {
  return std::span<const crypto::X25519PublicKey>(chain_public_keys_)
      .subspan(config_.position + 1);
}

size_t MixServer::ResponseSizeFromNextHop() const {
  // Servers position+1 .. chain_length-1 each seal once on the return path.
  size_t seals = config_.chain_length - 1 - config_.position;
  return wire::kEnvelopeSize + seals * crypto::kOnionResponseLayerOverhead;
}

void MixServer::WrapNoise(uint64_t round, const util::Batch& payloads, crypto::ChaChaRng& rng,
                          util::Batch& out) {
  const auto start = std::chrono::steady_clock::now();
  // Each onion gets an independent DRBG seed drawn from the pass's RNG
  // (ChaChaRng is not thread-safe), so the fan-out never changes a byte.
  std::vector<crypto::ChaCha20Key> seeds(payloads.size());
  for (auto& seed : seeds) {
    rng.Fill(seed);
  }
  const size_t payload_size = payloads.item_size();
  const size_t onion_size = out.item_size();
  util::GlobalPool().ParallelForBlocks(payloads.size(), kWrapBlock, [&](size_t begin, size_t end) {
    cover_wrapper_.WrapInto(
        round, std::span<const crypto::ChaCha20Key>(seeds).subspan(begin, end - begin),
        payloads.bytes().subspan(begin * payload_size, (end - begin) * payload_size),
        util::MutableByteSpan(out[begin].data(), (end - begin) * onion_size));
  });
  noise_wrap_nanos_ += std::chrono::nanoseconds(std::chrono::steady_clock::now() - start).count();
}

MixServer::Peeled MixServer::Peel(uint64_t round, std::span<const util::MutableByteSpan> batch,
                                  size_t inner_size) {
  const size_t n = batch.size();
  const size_t request_size = inner_size + crypto::kOnionRequestLayerOverhead;
  Peeled peeled;
  peeled.ok.assign(n, 0);
  peeled.keys.resize(n);

  // Each worker owns a contiguous block of onions. It looks the block's
  // ephemeral keys up in the cross-round cache in one call, so the block's
  // misses share the batch DH kernel, then opens each inner layer over its
  // own ciphertext, and caches only the keys whose onion opened: a forged
  // onion's key must not evict a client's. Advancing the cache's generation
  // first bounds it to the keys of this pass and the one before.
  secret_cache_.Advance();
  static_assert(kBlock <= crypto::SecretCache::kBlock);
  util::GlobalPool().ParallelForBlocks(n, kBlock, [&](size_t begin, size_t end) {
    crypto::X25519PublicKey pks[kBlock]{};
    crypto::AeadKey keys[kBlock]{};
    size_t index[kBlock]{};
    uint8_t opened[kBlock]{};
    crypto::SecretCache::Misses misses;
    size_t m = 0;
    for (size_t i = begin; i < end; ++i) {
      if (batch[i].size() == request_size) {
        std::memcpy(pks[m].data(), batch[i].data(), crypto::kX25519KeySize);
        index[m++] = i;
      }
    }
    secret_cache_.Lookup(key_pair_.secret_key, {pks, m}, crypto::OnionContext(), {keys, m},
                         misses);
    for (size_t j = 0; j < m; ++j) {
      const size_t i = index[j];
      if (crypto::OnionOpenLayerInto(keys[j], round, batch[i], Inner(batch[i]))) {
        peeled.ok[i] = 1;
        peeled.keys[i] = keys[j];
        opened[j] = 1;
      }
    }
    secret_cache_.Commit(misses, {opened, m});
  });
  for (uint8_t ok : peeled.ok) {
    peeled.dropped += ok ? 0 : 1;
  }
  return peeled;
}

util::InPlaceBatch MixServer::PeelAndMix(uint64_t round,
                                         std::span<const util::MutableByteSpan> batch,
                                         size_t payload_size, const util::Batch& noise_payloads,
                                         crypto::ChaChaRng& rng, ServerRoundStats& stats,
                                         RoundState& state) {
  const size_t n = batch.size();
  const size_t noise = noise_payloads.size();
  const size_t inner_size = crypto::OnionRequestSize(payload_size, ChainSuffix().size());
  Peeled peeled = Peel(round, batch, inner_size);
  util::InPlaceBatch out;
  out.owned = util::Batch(noise, inner_size);
  WrapNoise(round, noise_payloads, rng, out.owned);

  // Valid inners keep their input order and the cover onions follow them.
  const size_t kept = n - peeled.dropped;
  out.items.reserve(kept + noise);
  state.orig_index.reserve(kept);
  state.response_keys.reserve(kept);
  for (size_t i = 0; i < n; ++i) {
    if (peeled.ok[i]) {
      out.items.push_back(Inner(batch[i]));
      state.orig_index.push_back(static_cast<uint32_t>(i));
      state.response_keys.push_back(peeled.keys[i]);
    }
  }
  for (size_t k = 0; k < noise; ++k) {
    out.items.push_back(out.owned[k]);
  }

  // The shuffle permutes the views; no onion moves.
  Permutation perm = Permutation::Random(out.size(), rng);
  out.items = perm.Apply(std::move(out.items));
  state.perm = perm.indices();

  stats.requests_dropped = peeled.dropped;
  stats.noise_requests_added = noise;
  stats.dh_ops += n + noise * ChainSuffix().size();
  stats.bytes_out = out.size() * inner_size;
  return out;
}

util::InPlaceBatch MixServer::ForwardConversation(uint64_t round,
                                                  std::span<const util::MutableByteSpan> batch,
                                                  ServerRoundStats* stats) {
  if (is_last()) {
    throw std::logic_error("ForwardConversation called on the last server");
  }
  ServerRoundStats local = Incoming(batch);

  // Cover traffic (Algorithm 2 step 2): ⌈n1⌉ singles + ⌈n2/2⌉ pairs, each
  // onion-wrapped for the rest of the chain so downstream servers cannot tell
  // them from client requests. All randomness comes from the per-round RNG,
  // so a retried or replayed round reproduces the identical pass.
  crypto::ChaChaRng rng = RoundRng(kRngForwardConversation, round);
  noise::ConversationNoisePlan plan = PlanConversationNoise(config_.conversation_noise, rng);
  util::Batch noise_payloads(plan.singles + 2 * plan.pairs, wire::kExchangeRequestSize);
  size_t next = 0;
  for (uint64_t i = 0; i < plan.singles; ++i) {
    FakeExchange(rng).SerializeInto(noise_payloads[next++]);
  }
  for (uint64_t i = 0; i < plan.pairs; ++i) {
    wire::ExchangeRequest first = FakeExchange(rng);
    wire::ExchangeRequest second = FakeExchange(rng);
    second.dead_drop = first.dead_drop;  // the pair meets in one dead drop
    first.SerializeInto(noise_payloads[next++]);
    second.SerializeInto(noise_payloads[next++]);
  }

  RoundState state;
  state.input_size = batch.size();
  state.response_size_in = ResponseSizeFromNextHop();
  util::InPlaceBatch out = PeelAndMix(round, batch, wire::kExchangeRequestSize, noise_payloads,
                                      rng, local, state);
  rounds_[round] = std::move(state);
  if (stats) {
    *stats = local;
  }
  return out;
}

util::Batch MixServer::BackwardConversation(uint64_t round,
                                            std::span<const util::ByteSpan> responses,
                                            ServerRoundStats* stats) {
  auto it = rounds_.find(round);
  if (it == rounds_.end()) {
    throw std::logic_error("BackwardConversation: unknown round");
  }
  RoundState state = std::move(it->second);
  rounds_.erase(it);

  if (responses.size() != state.perm.size()) {
    throw std::invalid_argument("BackwardConversation: response count mismatch");
  }
  ServerRoundStats local = Incoming(responses);

  // Unshuffle views, not bytes: valid slot j's response sits at input
  // position k with perm[k] == j. Positions >= num_valid are our own noise
  // responses and are never read.
  size_t num_valid = state.orig_index.size();
  std::vector<util::ByteSpan> unshuffled(num_valid);
  for (size_t k = 0; k < state.perm.size(); ++k) {
    if (state.perm[k] < num_valid) {
      unshuffled[state.perm[k]] = responses[k];
    }
  }

  // Seal each response with the key retained on the forward pass and place
  // it at the position the previous hop expects. Requests this server
  // dropped on the forward pass still owe the previous hop a response slot.
  util::Batch out(state.input_size, state.response_size_in + crypto::kOnionResponseLayerOverhead);
  std::vector<uint8_t> sealed =
      SealBlocks(round, unshuffled, state.response_keys, state.orig_index, out);
  crypto::ChaChaRng rng = RoundRng(kRngBackwardConversation, round);
  FillEmptySlots(out, sealed, rng);

  local.bytes_out = out.bytes().size();
  if (stats) {
    *stats = local;
  }
  return out;
}

MixServer::LastServerResult MixServer::ToLastServerResult(const LastHopOutput& output) {
  return LastServerResult{output.responses.ToVectors(), output.histogram,
                          output.messages_exchanged};
}

MixServer::LastHopOutput MixServer::ProcessConversationLastHop(
    uint64_t round, std::span<const util::MutableByteSpan> batch, ServerRoundStats* stats) {
  if (!is_last()) {
    throw std::logic_error("ProcessConversationLastHop called on a non-last server");
  }
  static_assert(wire::kEnvelopeSize + crypto::kOnionResponseLayerOverhead ==
                    wire::kExchangeRequestSize,
                "a response is sealed over its peeled request");
  ServerRoundStats local = Incoming(batch);
  local.dh_ops += batch.size();

  // The valid requests, peeled in place, with their input positions; their
  // response keys move to the front of peeled.keys.
  Peeled peeled = Peel(round, batch, wire::kExchangeRequestSize);
  local.requests_dropped = peeled.dropped;
  std::vector<util::ByteSpan> requests;
  std::vector<uint32_t> orig_index;
  requests.reserve(batch.size() - peeled.dropped);
  orig_index.reserve(batch.size() - peeled.dropped);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (peeled.ok[i]) {
      peeled.keys[requests.size()] = peeled.keys[i];
      requests.push_back(Inner(batch[i]));
      orig_index.push_back(static_cast<uint32_t>(i));
    }
  }

  deaddrop::ExchangeOutcome outcome = Backend().ExchangeConversation(round, requests);
  const std::vector<uint32_t>& partner = outcome.partner;
  if (partner.size() != requests.size()) {
    throw std::runtime_error("ProcessConversationLastHop: exchange pairing size mismatch");
  }
  // Sealing in place overwrites each request's envelope, so every envelope
  // must be read by exactly one other request (or by itself): the pairing
  // must be an involution.
  for (size_t j = 0; j < partner.size(); ++j) {
    if (partner[j] >= partner.size()) {
      throw std::runtime_error("ProcessConversationLastHop: exchange partner out of range");
    }
    if (partner[partner[j]] != j) {
      throw std::runtime_error("ProcessConversationLastHop: exchange pairing is not symmetric");
    }
  }

  // Request j's response carries its partner's envelope and is sealed over
  // request j. A pair is sealed by its lower index: save one envelope, seal
  // the other over it, then seal the saved one over the partner, so each
  // pair touches only its own two regions.
  util::GlobalPool().ParallelForBlocks(requests.size(), kBlock, [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      const size_t p = partner[j];
      if (p < j) {
        continue;
      }
      util::MutableByteSpan region = Inner(batch[orig_index[j]]);
      std::array<uint8_t, wire::kEnvelopeSize> saved;
      std::memcpy(saved.data(), region.data() + wire::kDeadDropIdSize, saved.size());
      if (p != j) {
        util::MutableByteSpan partner_region = Inner(batch[orig_index[p]]);
        crypto::OnionSealResponseInto(peeled.keys[j], round,
                                      partner_region.subspan(wire::kDeadDropIdSize), region);
        region = partner_region;
      }
      crypto::OnionSealResponseInto(peeled.keys[p], round, saved, region);
    }
  });

  // Every other slot gets random bytes, drawn in slot order: a request that
  // failed authentication over its own region, a missized one in a slot of
  // the owned batch (its region is not a response's size).
  const size_t response_size = wire::kEnvelopeSize + crypto::kOnionResponseLayerOverhead;
  const size_t request_size = wire::kExchangeRequestSize + crypto::kOnionRequestLayerOverhead;
  size_t missized = 0;
  for (util::MutableByteSpan item : batch) {
    missized += item.size() == request_size ? 0 : 1;
  }
  LastHopOutput result;
  result.histogram = outcome.histogram;
  result.messages_exchanged = outcome.messages_exchanged;
  result.responses.owned = util::Batch(missized, response_size);
  result.responses.items.reserve(batch.size());
  crypto::ChaChaRng rng = RoundRng(kRngLastConversation, round);
  size_t next_owned = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    util::MutableByteSpan slot = batch[i].size() == request_size
                                     ? Inner(batch[i])
                                     : result.responses.owned[next_owned++];
    if (!peeled.ok[i]) {
      rng.Fill(slot);
    }
    result.responses.items.push_back(slot);
  }

  local.bytes_out = batch.size() * response_size;
  if (stats) {
    *stats = local;
  }
  return result;
}

util::InPlaceBatch MixServer::ForwardDialing(uint64_t round,
                                             std::span<const util::MutableByteSpan> batch,
                                             uint32_t num_drops, ServerRoundStats* stats) {
  if (is_last()) {
    throw std::logic_error("ForwardDialing called on the last server");
  }
  ServerRoundStats local = Incoming(batch);

  // Per-drop noise invitations (§5.3), wrapped for the chain suffix.
  crypto::ChaChaRng rng = RoundRng(kRngForwardDialing, round);
  std::vector<uint64_t> counts = PlanDialingNoise(config_.dialing_noise, num_drops, rng);
  uint64_t noise = 0;
  for (uint64_t count : counts) {
    noise += count;
  }
  util::Batch noise_payloads(noise, wire::kDialRequestSize);
  size_t next = 0;
  for (uint32_t d = 0; d < num_drops; ++d) {
    for (uint64_t j = 0; j < counts[d]; ++j) {
      wire::DialRequest fake;
      fake.dead_drop_index = d;
      rng.Fill(fake.invitation);
      fake.SerializeInto(noise_payloads[next++]);
    }
  }
  // Dialing has no return pass, so the round state is not kept.
  RoundState state;
  util::InPlaceBatch out =
      PeelAndMix(round, batch, wire::kDialRequestSize, noise_payloads, rng, local, state);
  if (stats) {
    *stats = local;
  }
  return out;
}

void MixServer::ExpireRounds(uint64_t newest_round, uint64_t keep) {
  for (auto it = rounds_.begin(); it != rounds_.end();) {
    if (it->first + keep < newest_round) {
      it = rounds_.erase(it);
    } else {
      ++it;
    }
  }
}

deaddrop::InvitationTable MixServer::ProcessDialingLastHop(
    uint64_t round, std::span<const util::MutableByteSpan> batch, uint32_t num_drops,
    ServerRoundStats* stats) {
  if (!is_last()) {
    throw std::logic_error("ProcessDialingLastHop called on a non-last server");
  }
  if (num_drops == 0) {
    throw std::invalid_argument("ProcessDialingLastHop: num_drops must be positive");
  }
  ServerRoundStats local = Incoming(batch);
  local.dh_ops += batch.size();

  Peeled peeled = Peel(round, batch, wire::kDialRequestSize);
  std::vector<wire::DialRequest> requests;
  requests.reserve(batch.size() - peeled.dropped);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!peeled.ok[i]) {
      continue;
    }
    auto parsed = wire::DialRequest::Parse(Inner(batch[i]));
    if (!parsed) {
      peeled.dropped++;
      continue;
    }
    parsed->dead_drop_index %= num_drops;
    requests.push_back(*parsed);
  }
  local.requests_dropped = peeled.dropped;

  // The last server adds its own noise directly — no wrapping needed (§5.3:
  // "every server (including the last one) must add ... noise invitations").
  // The noise bytes are drawn here, per drop in order, so every exchange
  // backend deposits the identical invitations (same RNG consumption as the
  // pre-backend AddNoise path).
  crypto::ChaChaRng rng = RoundRng(kRngLastDialing, round);
  std::vector<uint64_t> counts = PlanDialingNoise(config_.dialing_noise, num_drops, rng);
  std::vector<deaddrop::NoiseInvitation> noise;
  for (uint32_t d = 0; d < num_drops; ++d) {
    for (uint64_t j = 0; j < counts[d]; ++j) {
      deaddrop::NoiseInvitation fake;
      fake.drop = d;
      rng.Fill(fake.invitation);
      noise.push_back(fake);
    }
  }
  local.noise_requests_added = noise.size();

  deaddrop::InvitationTable table =
      Backend().BuildInvitationTable(round, num_drops, requests, noise);

  if (stats) {
    *stats = local;
  }
  return table;
}

}  // namespace vuvuzela::mixnet

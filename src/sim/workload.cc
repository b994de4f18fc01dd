#include "src/sim/workload.h"

#include "src/crypto/onion.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/messages.h"

namespace vuvuzela::sim {

namespace {

// Runs fn(i, rng) for i in [0, n) over the global pool with a per-iteration
// deterministic RNG.
void ForEachUser(uint64_t n, uint64_t seed, const std::function<void(size_t, util::Rng&)>& fn) {
  util::GlobalPool().ParallelFor(n, [&](size_t i) {
    // splitmix-style per-user stream: independent and reproducible.
    util::Xoshiro256Rng rng(seed * 0x9e3779b97f4a7c15ULL + i);
    fn(i, rng);
  });
}

// Wraps one user's onion: static layer keys from the ring when configured,
// fresh ephemerals otherwise.
util::Bytes WrapUserOnion(const WorkloadConfig& config,
                          std::span<const crypto::X25519PublicKey> chain, uint64_t round,
                          size_t user, util::ByteSpan payload, util::Rng& rng) {
  if (config.key_ring != nullptr && config.key_ring->size() >= config.num_users) {
    // Same static key pair at every layer; safe because each user sends one
    // onion per round (ClientKeyRing's nonce contract).
    std::vector<crypto::X25519KeyPair> layer_keys(chain.size(), config.key_ring->key(user));
    return crypto::OnionWrapWithKeys(chain, layer_keys, round, payload).data;
  }
  return crypto::OnionWrap(chain, round, payload, rng).data;
}

}  // namespace

ClientKeyRing::ClientKeyRing(uint64_t num_users, uint64_t seed) {
  keys_.resize(num_users);
  util::GlobalPool().ParallelFor(num_users, [&](size_t i) {
    util::Xoshiro256Rng rng(seed * 0xbf58476d1ce4e5b9ULL + i);
    keys_[i] = crypto::X25519KeyPair::Generate(rng);
  });
  public_keys_.reserve(num_users);
  for (const auto& kp : keys_) {
    public_keys_.push_back(kp.public_key);
  }
}

std::vector<util::Bytes> GenerateConversationWorkload(
    const WorkloadConfig& config, std::span<const crypto::X25519PublicKey> chain,
    uint64_t round) {
  uint64_t paired_users = static_cast<uint64_t>(
      static_cast<double>(config.num_users) * config.pairing_fraction);
  paired_users &= ~1ULL;  // pairs need two users

  std::vector<util::Bytes> onions(config.num_users);
  ForEachUser(config.num_users, config.seed ^ round,
              [&](size_t i, util::Rng& rng) {
                wire::ExchangeRequest request;
                if (i < paired_users) {
                  // Users 2k and 2k+1 converse: both derive the pair's drop.
                  uint64_t pair = i / 2;
                  util::Xoshiro256Rng pair_rng((config.seed ^ round) * 0xd1342543de82ef95ULL +
                                               pair);
                  pair_rng.Fill(request.dead_drop);
                } else {
                  rng.Fill(request.dead_drop);  // idle: random drop
                }
                rng.Fill(request.envelope);  // sealed contents: random-equivalent
                onions[i] = WrapUserOnion(config, chain, round, i, request.Serialize(), rng);
              });
  return onions;
}

std::vector<util::Bytes> GenerateDialingWorkload(const WorkloadConfig& config,
                                                 std::span<const crypto::X25519PublicKey> chain,
                                                 uint64_t round,
                                                 const dialing::RoundConfig& dial_config,
                                                 double dial_fraction) {
  uint64_t dialers = static_cast<uint64_t>(
      static_cast<double>(config.num_users) * dial_fraction);

  std::vector<util::Bytes> onions(config.num_users);
  ForEachUser(config.num_users, config.seed ^ round ^ 0xdddd,
              [&](size_t i, util::Rng& rng) {
                wire::DialRequest request;
                if (i < dialers) {
                  // A real invitation to a random recipient's drop. The
                  // invitation bytes are random-equivalent (sealed boxes are
                  // indistinguishable from random), so skip the seal cost.
                  request.dead_drop_index =
                      static_cast<uint32_t>(rng.UniformUint64(dial_config.num_real_drops));
                } else {
                  request.dead_drop_index = dial_config.noop_index();
                }
                rng.Fill(request.invitation);
                onions[i] = WrapUserOnion(config, chain, round, i, request.Serialize(), rng);
              });
  return onions;
}

}  // namespace vuvuzela::sim

// vzbench's simulated client population (§8.1: clients must not be the
// bottleneck, so every onion is built before the timed phase starts).
//
// All client-side randomness — identity keys, pairings, envelopes, dialers
// and their recipients — derives from the workload seed through independent
// per-(round, user, purpose) streams, so any onion or expected response can
// be rebuilt on demand without storing it. The daemons see only the wrapped
// onions.
//
// Static-key clients keep one X25519 identity for every layer of every round
// (sim::ClientKeyRing's shape), so each hop's SecretCache hits after the
// first round. Their per-(user, hop) AEAD keys are derived once; a round's
// onion is then three ChaCha20-Poly1305 seals with the round number as nonce
// — byte-identical to crypto::OnionWrapWithKeys without its three DHs, which
// SelfCheck asserts before any round runs. Fresh-key clients draw new
// ephemerals every round (crypto::OnionWrapPrecomp), so every hop pays a DH
// per client onion.

#ifndef VUVUZELA_BENCH_VZBENCH_LOAD_H_
#define VUVUZELA_BENCH_VZBENCH_LOAD_H_

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "src/crypto/aead.h"
#include "src/crypto/onion.h"
#include "src/crypto/x25519_precomp.h"
#include "src/deaddrop/invitation_table.h"
#include "src/sim/workload.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/messages.h"

namespace vzbench {

using namespace vuvuzela;

inline constexpr size_t kChainLength = 3;
using LayerKeys = std::array<crypto::AeadKey, kChainLength>;

// crypto/onion.cc seals request layers under this nonce domain; SelfCheck
// fails if the two ever disagree.
inline constexpr uint32_t kRequestNonceDomain = 1;

// Stream labels keep the per-purpose randomness independent.
enum class Stream : uint64_t { kPairDrop = 1, kEnvelope, kSample, kDial, kFreshWrap };

inline util::Xoshiro256Rng StreamRng(uint64_t seed, Stream stream, uint64_t round,
                                     uint64_t index) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL;
  x ^= static_cast<uint64_t>(stream) * 0xbf58476d1ce4e5b9ULL;
  x ^= round * 0x94d049bb133111ebULL;
  x ^= index * 0xd6e8feb86659fd93ULL;
  return util::Xoshiro256Rng(x);
}

class Clients {
 public:
  Clients(uint64_t users, uint64_t seed, std::vector<crypto::X25519PublicKey> chain,
          bool static_keys)
      : users_(users),
        seed_(seed),
        chain_(std::move(chain)),
        static_keys_(static_keys),
        ring_(users, seed) {
    own_drop_.resize(users);
    if (static_keys_) {
      hop_keys_.resize(users);
      util::GlobalPool().ParallelFor(users, [&](size_t u) {
        const crypto::X25519SecretKey& sk = ring_.key(u).secret_key;
        for (size_t hop = 0; hop < kChainLength; ++hop) {
          hop_keys_[u][hop] =
              crypto::DeriveBoxKey(crypto::X25519(sk, chain_[hop]), crypto::OnionContext());
        }
      });
    }
    for (const auto& pk : chain_) {
      auto table = crypto::X25519Precomp::Create(pk);
      if (table) {
        tables_.push_back(std::move(*table));
      }
    }
  }

  uint64_t size() const { return users_; }
  const crypto::X25519PublicKey& identity(uint64_t user) const {
    return ring_.key(user).public_key;
  }

  // The invitation drop each user polls (H(pk) mod m, §5.1).
  void SetDialDrops(uint32_t real_drops) {
    util::GlobalPool().ParallelFor(users_, [&](size_t u) {
      own_drop_[u] = deaddrop::InvitationDropForKey(identity(u), real_drops);
    });
  }
  uint32_t own_drop(uint64_t user) const { return own_drop_[user]; }

  // Users 2k and 2k+1 converse through one dead drop per round.
  wire::Envelope Envelope(uint64_t round, uint64_t user) const {
    wire::Envelope env;
    StreamRng(seed_, Stream::kEnvelope, round, user).Fill(env);
    return env;
  }
  util::Bytes ConversationPayload(uint64_t round, uint64_t user) const {
    wire::ExchangeRequest request;
    StreamRng(seed_, Stream::kPairDrop, round, user / 2).Fill(request.dead_drop);
    request.envelope = Envelope(round, user);
    return request.Serialize();
  }

  // Wraps `payload` for `round`; `keys_out` (optional) receives the layer
  // keys the client needs to open the response.
  util::Bytes Wrap(uint64_t round, uint64_t user, util::ByteSpan payload,
                   LayerKeys* keys_out = nullptr) const {
    if (static_keys_) {
      if (keys_out != nullptr) {
        *keys_out = hop_keys_[user];
      }
      return Reseal(hop_keys_[user], identity(user), round, payload);
    }
    util::Xoshiro256Rng rng = StreamRng(seed_, Stream::kFreshWrap, round, user);
    crypto::WrappedOnion onion = crypto::OnionWrapPrecomp(tables_, round, payload, rng);
    if (keys_out != nullptr) {
      std::copy(onion.layer_keys.begin(), onion.layer_keys.end(), keys_out->begin());
    }
    return std::move(onion.data);
  }

  // Static clients: the cached-key re-seal must equal OnionWrapWithKeys
  // byte for byte. Fresh clients: the comb-table wrap must equal the ladder
  // OnionWrap from the same rng state.
  bool SelfCheck(std::string* error) const {
    if (tables_.size() != kChainLength) {
      *error = "a chain key has no comb table";
      return false;
    }
    for (uint64_t user : {uint64_t{0}, uint64_t{1}, users_ - 1}) {
      for (uint64_t round : {uint64_t{1}, uint64_t{7}, (uint64_t{1} << 63) + 3}) {
        util::Bytes payload = ConversationPayload(round, user);
        LayerKeys keys;
        util::Bytes got = Wrap(round, user, payload, &keys);
        crypto::WrappedOnion want;
        if (static_keys_) {
          std::vector<crypto::X25519KeyPair> layer_keys(kChainLength, ring_.key(user));
          want = crypto::OnionWrapWithKeys(chain_, layer_keys, round, payload);
        } else {
          util::Xoshiro256Rng rng = StreamRng(seed_, Stream::kFreshWrap, round, user);
          want = crypto::OnionWrap(chain_, round, payload, rng);
        }
        if (got != want.data || !std::equal(keys.begin(), keys.end(), want.layer_keys.begin())) {
          *error = "client onion differs from the reference wrap (user " + std::to_string(user) +
                   ", round " + std::to_string(round) + ")";
          return false;
        }
      }
    }
    return true;
  }

 private:
  static util::Bytes Reseal(const LayerKeys& keys, const crypto::X25519PublicKey& pk,
                            uint64_t round, util::ByteSpan payload) {
    const crypto::AeadNonce nonce = crypto::NonceFromUint64(round, kRequestNonceDomain);
    util::Bytes current(payload.begin(), payload.end());
    for (size_t idx = kChainLength; idx-- > 0;) {
      util::Bytes layer(crypto::kOnionRequestLayerOverhead + current.size());
      std::memcpy(layer.data(), pk.data(), pk.size());
      crypto::AeadSealInto(keys[idx], nonce, /*aad=*/{}, current,
                           util::MutableByteSpan(layer).subspan(pk.size()));
      current = std::move(layer);
    }
    return current;
  }

  uint64_t users_;
  uint64_t seed_;
  std::vector<crypto::X25519PublicKey> chain_;
  bool static_keys_;
  sim::ClientKeyRing ring_;
  std::vector<LayerKeys> hop_keys_;  // static clients only
  std::vector<crypto::X25519Precomp> tables_;
  std::vector<uint32_t> own_drop_;
};

}  // namespace vzbench

#endif  // VUVUZELA_BENCH_VZBENCH_LOAD_H_

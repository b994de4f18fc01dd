// The Vuvuzela server chain (§3): key ceremony and hop construction.
//
// DrawChainKeys is the one key ceremony: every server's long-term key pair
// and noise seed, drawn from an Rng in one fixed order. BuildMixServers turns
// that material into the servers; Chain::Create runs both for an in-process
// chain, and transport::DeriveChainKeys runs the draw over a seeded RNG for
// every process of a deployment. A chain runs no rounds: every round, in
// process or across hop daemons, is driven by engine::RoundScheduler, whose
// stages reach these servers through transport::LocalTransports
// (transport::MakeLocalTransports(chain.servers())). The round result types
// below are what the scheduler's futures carry.
//
// A ChainObserver, handed to the scheduler, receives each server's
// input/output batches and the last server's dead-drop view, which is how
// tests and benches model a subset of compromised servers.

#ifndef VUVUZELA_SRC_MIXNET_CHAIN_H_
#define VUVUZELA_SRC_MIXNET_CHAIN_H_

#include <memory>
#include <vector>

#include "src/mixnet/mix_server.h"
#include "src/noise/noise_gen.h"

namespace vuvuzela::mixnet {

class ChainObserver {
 public:
  virtual ~ChainObserver() = default;

  // Called after server `position` finishes its forward pass.
  virtual void OnForwardPass(size_t position, uint64_t round,
                             const std::vector<util::Bytes>& input,
                             const std::vector<util::Bytes>& output) {
    (void)position;
    (void)round;
    (void)input;
    (void)output;
  }

  // Called with the last server's observable variables for the round.
  virtual void OnDeadDrops(uint64_t round, const deaddrop::AccessHistogram& histogram) {
    (void)round;
    (void)histogram;
  }
};

struct ChainConfig {
  size_t num_servers = 3;
  noise::NoiseConfig conversation_noise;
  noise::NoiseConfig dialing_noise;
};

struct RoundStats {
  std::vector<ServerRoundStats> forward;   // one per server
  std::vector<ServerRoundStats> backward;  // one per non-last server (conversation only)
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;

  double total_seconds() const { return forward_seconds + backward_seconds; }
};

// The configuration of the server at `position` in a chain built from
// `config`. BuildMixServer and vuvuzela-hopd assemble their servers through
// it.
MixServerConfig ChainServerConfig(const ChainConfig& config, size_t position);

struct ChainKeyMaterial {
  std::vector<crypto::X25519KeyPair> key_pairs;
  std::vector<crypto::X25519PublicKey> public_keys;
  // Per-server noise/shuffle RNG seed.
  std::vector<crypto::ChaCha20Key> rng_seeds;
};

// The key ceremony: all key pairs first, then one RNG seed per server, from
// `rng`. The order fixes the bytes of every seeded chain. Public keys come
// from the ladder, not X25519KeyPair::Generate's comb: a handful of keys do
// not pay for the ~30 KB base-point table in every hop process.
ChainKeyMaterial DrawChainKeys(size_t num_servers, util::Rng& rng);

// Builds the MixServer for `position` of a chain with the given key material
// and shared noise configuration.
std::unique_ptr<MixServer> BuildMixServer(const ChainConfig& config, const ChainKeyMaterial& keys,
                                          size_t position);

// Builds every server of the chain in-process.
std::vector<std::unique_ptr<MixServer>> BuildMixServers(const ChainConfig& config,
                                                        const ChainKeyMaterial& keys);

class Chain {
 public:
  // Builds a chain with fresh long-term server keys drawn from `rng`.
  static Chain Create(const ChainConfig& config, util::Rng& rng);

  size_t size() const { return servers_.size(); }
  const std::vector<crypto::X25519PublicKey>& public_keys() const { return public_keys_; }
  MixServer& server(size_t i) { return *servers_[i]; }
  const std::vector<std::unique_ptr<MixServer>>& servers() const { return servers_; }

  // Warms every server's shared-secret cache for a static client population
  // (sim::ClientKeyRing::public_keys()) so the first round pays no DH storm.
  void PrimeSecretCaches(std::span<const crypto::X25519PublicKey> client_pks) {
    for (auto& server : servers_) {
      server->PrimeClientSecrets(client_pks);
    }
  }

  struct ConversationResult {
    // responses[i] answers onions[i]; onion-sealed once per server.
    std::vector<util::Bytes> responses;
    deaddrop::AccessHistogram histogram;
    uint64_t messages_exchanged = 0;
    RoundStats stats;
  };

  struct DialingResult {
    deaddrop::InvitationTable table;
    RoundStats stats;
  };

 private:
  Chain() = default;

  std::vector<std::unique_ptr<MixServer>> servers_;
  std::vector<crypto::X25519PublicKey> public_keys_;
};

}  // namespace vuvuzela::mixnet

#endif  // VUVUZELA_SRC_MIXNET_CHAIN_H_

// Scalable workload generation for benches (§8.1's simulated clients).
//
// The paper simulates up to 2M clients on five VMs; a full VuvuzelaClient per
// simulated user would measure client bookkeeping, not server throughput. The
// workload generator produces exactly the onion batches such users would
// send — paired users share a dead drop, idle users pick random drops —
// with parallel onion wrapping, which is the only part whose cost matters.

#ifndef VUVUZELA_SRC_SIM_WORKLOAD_H_
#define VUVUZELA_SRC_SIM_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "src/crypto/x25519.h"
#include "src/dialing/protocol.h"
#include "src/util/bytes.h"

namespace vuvuzela::sim {

// Static per-user onion keys (the client key ceremony, held fixed between
// rotations). One X25519 key pair per user, reused for every layer of every
// round's onion, so each hop sees the same client public key round after
// round and its shared-secret cache hits from round two on — the workload
// half of the batched hot path.
//
// Nonce safety: the derived AEAD key repeats across rounds while the nonce is
// the round number, so a user may wrap at most ONE onion per round (exactly
// Vuvuzela's one-request-per-round shape; see crypto::OnionWrapWithKeys).
//
// Privacy note, documented not hidden: fresh per-round ephemerals make every
// round's onions unlinkable at every hop; a static key makes deeper hops see
// a stable pseudonym in the layer header. The first hop already knows the
// client's network identity, so the paper's threat model is unchanged there,
// but rotating client keys (and re-priming) is the conservative deployment
// choice. Benches opt in because the linkage is irrelevant to throughput.
class ClientKeyRing {
 public:
  // Deterministic from `seed` (per-user independent streams), generated in
  // parallel over the global pool.
  ClientKeyRing(uint64_t num_users, uint64_t seed);

  size_t size() const { return keys_.size(); }
  const crypto::X25519KeyPair& key(size_t user) const { return keys_[user]; }
  // All users' public keys, index-aligned — the list to hand to
  // MixServer::PrimeClientSecrets.
  const std::vector<crypto::X25519PublicKey>& public_keys() const { return public_keys_; }

 private:
  std::vector<crypto::X25519KeyPair> keys_;
  std::vector<crypto::X25519PublicKey> public_keys_;
};

struct WorkloadConfig {
  uint64_t num_users = 0;
  // Fraction of users in active pairwise conversations (each pair shares a
  // drop). §8.1 runs with every user sending each round; performance is the
  // same for idle users, which we verify in the ablation bench.
  double pairing_fraction = 1.0;
  uint64_t seed = 1;
  // Non-owning; when set (and sized >= num_users), onions are wrapped with
  // each user's static key for every layer instead of fresh ephemerals, so
  // server-side secret caches hit. Must outlive the generation call.
  const ClientKeyRing* key_ring = nullptr;
};

// Builds one conversation round's client onions.
std::vector<util::Bytes> GenerateConversationWorkload(
    const WorkloadConfig& config, std::span<const crypto::X25519PublicKey> chain, uint64_t round);

// Builds one dialing round's client onions; `dial_fraction` of users send a
// real invitation (to a random other user's drop), the rest no-ops (§8.1
// uses 5%).
std::vector<util::Bytes> GenerateDialingWorkload(const WorkloadConfig& config,
                                                 std::span<const crypto::X25519PublicKey> chain,
                                                 uint64_t round,
                                                 const dialing::RoundConfig& dial_config,
                                                 double dial_fraction);

}  // namespace vuvuzela::sim

#endif  // VUVUZELA_SRC_SIM_WORKLOAD_H_

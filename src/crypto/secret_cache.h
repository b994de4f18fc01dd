// Cross-round cache of derived per-client AEAD keys (the "cached client
// secrets" half of the batch hot path).
//
// Vuvuzela's key ceremony is static between rotations: a client that keeps
// its onion key pair fixed presents the same ephemeral public key to a hop
// every round, and X25519(server_sk, client_pk) -> HKDF is a pure function of
// the two keys. Recomputing it per round is the single largest per-onion cost
// (one ~55us scalar multiplication); this cache pays it once per (client,
// server-key epoch) and answers subsequent rounds from a hash map. The round
// number only enters the AEAD *nonce*, never the key derivation, so a cache
// hit is byte-identical to a fresh derivation — which is what lets the mix
// pass stay bit-for-bit equal to the uncached test oracle.
//
// Generations: the cache holds two, a current and a previous one. The mix
// pass calls Advance() once per batched unwrap: the current generation
// becomes the previous one and the old previous generation is dropped. A hit
// in the previous generation moves the entry back into the current one. So a
// client that presents its key in every pass (every Vuvuzela client does:
// cover traffic is mandatory) stays resident indefinitely, while one-shot
// keys — the fresh ephemerals of upstream hops' cover onions and of
// fresh-key clients — leave after two passes. Memory follows the size of
// one pass, not the number of rounds served. `max_entries` is only a
// backstop against a flood of new keys within one pass.
//
// Invalidation: every entry is implicitly bound to the server secret key it
// was derived under. Callers MUST call Invalidate() when the server key
// rotates; a stale entry would silently decrypt nothing (the AEAD tag check
// fails and the onion is dropped as malformed), turning a key rotation into
// a full-batch outage. MixServer::RotateKey does this for you.
//
// Contexts: entries are keyed by client public key only, so one cache must
// serve exactly one (server secret key, HKDF context) pair. Use a separate
// cache per context if you ever need two.
//
// Threading/ownership: internally sharded (16 shards, one mutex each);
// Get/Advance/Invalidate/GetStats are safe from any number of threads
// concurrently, including the mix pass's ParallelFor workers. Misses compute
// the DH outside the shard lock, so a burst of new clients serializes only on
// map insertion. The cache owns all entries; returned AeadKeys are copies.

#ifndef VUVUZELA_SRC_CRYPTO_SECRET_CACHE_H_
#define VUVUZELA_SRC_CRYPTO_SECRET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "src/crypto/box.h"
#include "src/crypto/x25519.h"
#include "src/util/bytes.h"

namespace vuvuzela::crypto {

class SecretCache {
 public:
  // `max_entries` bounds total cached keys across both generations; once it
  // is reached, an insert evicts a resident entry of its shard, previous
  // generation first (eviction only costs a future recompute, never
  // correctness). Concurrent inserts can overshoot it by a few entries.
  explicit SecretCache(size_t max_entries = 1u << 18);

  // The AEAD key DeriveBoxKey(X25519(server_sk, client_pk), context),
  // computed on first sight of `client_pk` this epoch and cached after.
  AeadKey Get(const X25519SecretKey& server_sk, const X25519PublicKey& client_pk,
              util::ByteSpan context);

  // Starts a new pass: drops every key not presented during the last two
  // passes. Call once per pass, before its first Get.
  void Advance();

  // Drops every cached secret and bumps the epoch. Call on server key
  // rotation, before the first pass under the new key.
  void Invalidate();

  // Monotonic count of Invalidate() calls — the "hop secret epoch" entries
  // are implicitly keyed on.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;  // both generations
  };
  Stats GetStats() const;

 private:
  struct PkHash {
    // Client public keys are uniformly random curve points; their first
    // eight bytes are already a good hash.
    size_t operator()(const X25519PublicKey& pk) const {
      return static_cast<size_t>(util::LoadLe64(pk.data()));
    }
  };
  using Map = std::unordered_map<X25519PublicKey, AeadKey, PkHash>;
  struct Shard {
    std::mutex mu;
    Map current;
    Map previous;
  };
  static constexpr size_t kShards = 16;

  Shard& ShardFor(const X25519PublicKey& pk) { return shards_[pk[31] % kShards]; }

  Shard shards_[kShards];
  const size_t max_entries_;
  std::atomic<size_t> entries_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_SECRET_CACHE_H_

// Cross-round cache of derived per-client AEAD keys (the "cached client
// secrets" half of the batch hot path).
//
// Vuvuzela's key ceremony is static between rotations: a client that keeps
// its onion key pair fixed presents the same ephemeral public key to a hop
// every round, and X25519(server_sk, client_pk) -> HKDF is a pure function of
// the two keys. Recomputing it per round is the single largest per-onion cost
// (one scalar multiplication: 50-90us on the portable ladder, 9-11us per
// point on the 8-lane IFMA kernel, see X25519Many); this cache pays it once
// per (client, server-key epoch) and answers subsequent rounds from a hash
// map. The round number only enters the AEAD *nonce*, never the key
// derivation, so a cache hit is byte-identical to a fresh derivation — which
// is what lets the mix pass stay bit-for-bit equal to the uncached test
// oracle.
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
// Batches: Lookup answers a block of up to kBlock lookups at once (the mix
// pass hands it each 64-onion block's ephemeral keys). Hits are answered one
// by one as Get answers them; the block's misses are derived together,
// through X25519Many, so on an IFMA CPU eight fresh keys share one ladder.
// Lookup caches nothing: Commit then caches the misses the caller vouches
// for. The mix pass commits only the keys whose onion's AEAD tag verified,
// so a flood of forged fresh-key onions costs their DH but cannot evict the
// resident keys of static clients. Get and GetMany commit every key.
//
// Hashing: the shard and the bucket of a key come from SipHash-2-4 over all
// 32 bytes under a key drawn from the OS at construction. Client keys are
// attacker-chosen, and a lookup hashes its key before any onion tag is
// checked, so a hash of fixed key bytes would let hostile clients pile one
// pass's lookups into a single bucket under a single shard lock.
//
// Threading/ownership: internally sharded (16 shards, one mutex each);
// every method is safe from any number of threads concurrently, including
// the mix pass's ParallelForBlocks workers.
// Misses compute the DH outside the shard locks, so a burst of new clients
// serializes only on map insertion. The cache owns all entries; returned
// AeadKeys are copies.

#ifndef VUVUZELA_SRC_CRYPTO_SECRET_CACHE_H_
#define VUVUZELA_SRC_CRYPTO_SECRET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
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

  // keys[i] = Get(server_sk, client_pks[i], context) for every i, with the
  // same hits, misses and generation moves as those calls made in order (a
  // key repeated within the call misses once). The misses of each run of up
  // to kBlock keys are derived together, outside the shard locks. `keys`
  // must be exactly as long as `client_pks`.
  void GetMany(const X25519SecretKey& server_sk, std::span<const X25519PublicKey> client_pks,
               util::ByteSpan context, std::span<AeadKey> keys);

  // The misses of one Lookup, derived but not cached: the distinct keys the
  // cache did not hold, their hashes and AEAD keys, and for each looked-up
  // key the miss it took (kHit if the cache answered it). Lives on the
  // caller's stack.
  static constexpr size_t kBlock = 64;
  static constexpr uint8_t kHit = 0xff;
  static_assert(kBlock < kHit, "miss indices fit below kHit");
  struct Misses {
    size_t count = 0;
    X25519PublicKey pks[kBlock]{};
    size_t hashes[kBlock]{};
    AeadKey keys[kBlock]{};
    uint8_t of[kBlock]{};
  };

  // GetMany over at most kBlock keys, minus the inserts: hits are answered
  // and counted, and move generations, as Get's are; misses are counted and
  // derived into `misses`, and keys[i] holds every key's AEAD key either
  // way. Throws if `keys` and `client_pks` differ in length or exceed kBlock.
  void Lookup(const X25519SecretKey& server_sk, std::span<const X25519PublicKey> client_pks,
              util::ByteSpan context, std::span<AeadKey> keys, Misses& misses);

  // Caches the miss of every looked-up key i of the Lookup that filled
  // `misses` for which keep[i] != 0 (at most one entry per distinct key).
  // `keep` is as long as that Lookup's block.
  void Commit(const Misses& misses, std::span<const uint8_t> keep);

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
    uint64_t miss_dh_nanos = 0;  // summed wall time of the misses' X25519Many calls
  };
  Stats GetStats() const;

  // How evenly the cached keys lie: the fullest shard's entry count and the
  // longest bucket chain, over both generations.
  struct Spread {
    size_t max_shard_entries = 0;
    size_t max_bucket_entries = 0;
  };
  Spread GetSpread() const;

 private:
  // SipHash-2-4 of the key's 32 bytes under `key`.
  struct PkHash {
    uint64_t key[2];
    size_t operator()(const X25519PublicKey& pk) const;
  };
  using Map = std::unordered_map<X25519PublicKey, AeadKey, PkHash>;
  struct Shard {
    mutable std::mutex mu;
    Map current;
    Map previous;
  };
  static constexpr size_t kShards = 16;

  // The top bits pick the shard; the map reduces the same hash modulo its
  // bucket count.
  Shard& ShardFor(size_t hash) { return shards_[hash >> (8 * sizeof(size_t) - 4)]; }
  static_assert(kShards == 16, "ShardFor takes the hash's top four bits");

  const PkHash hash_;
  Shard shards_[kShards];
  const size_t max_entries_;
  std::atomic<size_t> entries_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> miss_dh_nanos_{0};
};

}  // namespace vuvuzela::crypto

#endif  // VUVUZELA_SRC_CRYPTO_SECRET_CACHE_H_

#include "src/crypto/secret_cache.h"

namespace vuvuzela::crypto {

SecretCache::SecretCache(size_t max_entries) : max_entries_(max_entries > 0 ? max_entries : 1) {}

AeadKey SecretCache::Get(const X25519SecretKey& server_sk, const X25519PublicKey& client_pk,
                         util::ByteSpan context) {
  Shard& shard = ShardFor(client_pk);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.current.find(client_pk);
    if (it != shard.current.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    auto prev = shard.previous.find(client_pk);
    if (prev != shard.previous.end()) {
      // Presented again: the node moves into the current generation without
      // reallocating.
      hits_.fetch_add(1, std::memory_order_relaxed);
      return shard.current.insert(shard.previous.extract(prev)).position->second;
    }
  }

  // Miss: do the expensive DH + HKDF outside the lock. Two threads racing on
  // the same new client derive the same key twice and one insert wins —
  // wasted work, never a wrong answer.
  misses_.fetch_add(1, std::memory_order_relaxed);
  X25519SharedSecret shared = X25519(server_sk, client_pk);
  AeadKey key = DeriveBoxKey(shared, context);

  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.current.contains(client_pk)) {
    return key;
  }
  if (entries_.load(std::memory_order_relaxed) >= max_entries_) {
    Map& victims = shard.previous.empty() ? shard.current : shard.previous;
    if (!victims.empty()) {
      victims.erase(victims.begin());
      entries_.fetch_sub(1, std::memory_order_relaxed);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  shard.current.emplace(client_pk, key);
  entries_.fetch_add(1, std::memory_order_relaxed);
  return key;
}

void SecretCache::Advance() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    entries_.fetch_sub(shard.previous.size(), std::memory_order_relaxed);
    shard.previous.clear();
    // Swapping keeps both bucket arrays, so a steady population never
    // rehashes.
    shard.previous.swap(shard.current);
  }
}

void SecretCache::Invalidate() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    entries_.fetch_sub(shard.current.size() + shard.previous.size(), std::memory_order_relaxed);
    shard.current.clear();
    shard.previous.clear();
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

SecretCache::Stats SecretCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace vuvuzela::crypto

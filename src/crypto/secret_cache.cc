#include "src/crypto/secret_cache.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>

#include "src/util/random.h"

namespace vuvuzela::crypto {

namespace {

inline uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

inline void SipRound(uint64_t& v0, uint64_t& v1, uint64_t& v2, uint64_t& v3) {
  v0 += v1;
  v1 = Rotl(v1, 13);
  v1 ^= v0;
  v0 = Rotl(v0, 32);
  v2 += v3;
  v3 = Rotl(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = Rotl(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = Rotl(v1, 17);
  v1 ^= v2;
  v2 = Rotl(v2, 32);
}

}  // namespace

size_t SecretCache::PkHash::operator()(const X25519PublicKey& pk) const {
  uint64_t v0 = 0x736f6d6570736575ULL ^ key[0];
  uint64_t v1 = 0x646f72616e646f6dULL ^ key[1];
  uint64_t v2 = 0x6c7967656e657261ULL ^ key[0];
  uint64_t v3 = 0x7465646279746573ULL ^ key[1];
  // Four message words, then the final word carrying the length (32) in its
  // top byte and no tail bytes.
  for (size_t i = 0; i <= pk.size(); i += 8) {
    const uint64_t m = i < pk.size() ? util::LoadLe64(pk.data() + i) : uint64_t{32} << 56;
    v3 ^= m;
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    v0 ^= m;
  }
  v2 ^= 0xff;
  for (int r = 0; r < 4; ++r) {
    SipRound(v0, v1, v2, v3);
  }
  return static_cast<size_t>(v0 ^ v1 ^ v2 ^ v3);
}

SecretCache::SecretCache(size_t max_entries)
    : hash_{{util::GlobalRng().NextUint64(), util::GlobalRng().NextUint64()}},
      max_entries_(max_entries > 0 ? max_entries : 1) {
  for (Shard& shard : shards_) {
    shard.current = Map(0, hash_);
    shard.previous = Map(0, hash_);
  }
}

AeadKey SecretCache::Get(const X25519SecretKey& server_sk, const X25519PublicKey& client_pk,
                         util::ByteSpan context) {
  AeadKey key{};
  GetMany(server_sk, {&client_pk, 1}, context, {&key, 1});
  return key;
}

void SecretCache::GetMany(const X25519SecretKey& server_sk,
                          std::span<const X25519PublicKey> client_pks, util::ByteSpan context,
                          std::span<AeadKey> keys) {
  if (keys.size() != client_pks.size()) {
    throw std::invalid_argument("SecretCache::GetMany: key and output counts differ");
  }
  uint8_t keep[kBlock];
  std::fill(std::begin(keep), std::end(keep), 1);
  for (size_t begin = 0; begin < client_pks.size(); begin += kBlock) {
    const size_t n = std::min(kBlock, client_pks.size() - begin);
    Misses misses;
    Lookup(server_sk, client_pks.subspan(begin, n), context, keys.subspan(begin, n), misses);
    Commit(misses, {keep, n});
  }
}

void SecretCache::Lookup(const X25519SecretKey& server_sk,
                         std::span<const X25519PublicKey> client_pks, util::ByteSpan context,
                         std::span<AeadKey> keys, Misses& misses) {
  if (keys.size() != client_pks.size() || client_pks.size() > kBlock) {
    throw std::invalid_argument("SecretCache::Lookup: mismatched or oversized block");
  }
  misses.count = 0;
  uint64_t hits = 0;
  for (size_t i = 0; i < client_pks.size(); ++i) {
    const X25519PublicKey& pk = client_pks[i];
    const size_t hash = hash_(pk);
    Shard& shard = ShardFor(hash);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.current.find(pk);
      if (it != shard.current.end()) {
        keys[i] = it->second;
        misses.of[i] = kHit;
        ++hits;
        continue;
      }
      auto prev = shard.previous.find(pk);
      if (prev != shard.previous.end()) {
        // Presented again: the node moves into the current generation
        // without reallocating.
        keys[i] = shard.current.insert(shard.previous.extract(prev)).position->second;
        misses.of[i] = kHit;
        ++hits;
        continue;
      }
    }
    // A key already missed in this block is a hit, as it would be for a
    // second Get once the first had inserted it.
    size_t j = 0;
    while (j < misses.count && !(misses.hashes[j] == hash && misses.pks[j] == pk)) {
      ++j;
    }
    if (j < misses.count) {
      ++hits;
    } else {
      misses.pks[j] = pk;
      misses.hashes[j] = hash;
      ++misses.count;
    }
    misses.of[i] = static_cast<uint8_t>(j);
  }
  hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses.count == 0) {
    return;
  }

  // The expensive DH + HKDF, outside every lock. Two threads racing on the
  // same new client derive the same key twice and one insert wins — wasted
  // work, never a wrong answer.
  misses_.fetch_add(misses.count, std::memory_order_relaxed);
  X25519SharedSecret shared[kBlock]{};
  const auto dh_start = std::chrono::steady_clock::now();
  X25519Many(server_sk, {misses.pks, misses.count}, {shared, misses.count});
  miss_dh_nanos_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - dh_start)
                               .count(),
                           std::memory_order_relaxed);
  for (size_t j = 0; j < misses.count; ++j) {
    misses.keys[j] = DeriveBoxKey(shared[j], context);
  }
  for (size_t i = 0; i < client_pks.size(); ++i) {
    if (misses.of[i] != kHit) {
      keys[i] = misses.keys[misses.of[i]];
    }
  }
}

void SecretCache::Commit(const Misses& misses, std::span<const uint8_t> keep) {
  if (keep.size() > kBlock) {
    throw std::invalid_argument("SecretCache::Commit: oversized block");
  }
  bool kept[kBlock]{};
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] != 0 && misses.of[i] != kHit) {
      kept[misses.of[i]] = true;
    }
  }
  for (size_t j = 0; j < misses.count; ++j) {
    if (!kept[j]) {
      continue;
    }
    Shard& shard = ShardFor(misses.hashes[j]);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.current.contains(misses.pks[j])) {
      continue;
    }
    if (entries_.load(std::memory_order_relaxed) >= max_entries_) {
      Map& victims = shard.previous.empty() ? shard.current : shard.previous;
      if (!victims.empty()) {
        victims.erase(victims.begin());
        entries_.fetch_sub(1, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    shard.current.emplace(misses.pks[j], misses.keys[j]);
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
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
  stats.miss_dh_nanos = miss_dh_nanos_.load(std::memory_order_relaxed);
  return stats;
}

SecretCache::Spread SecretCache::GetSpread() const {
  Spread spread;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    spread.max_shard_entries =
        std::max(spread.max_shard_entries, shard.current.size() + shard.previous.size());
    for (const Map* map : {&shard.current, &shard.previous}) {
      for (size_t b = 0; b < map->bucket_count(); ++b) {
        spread.max_bucket_entries = std::max(spread.max_bucket_entries, map->bucket_size(b));
      }
    }
  }
  return spread;
}

}  // namespace vuvuzela::crypto

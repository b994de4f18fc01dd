// Heap allocations per mix pass must not grow with the batch.
//
// Every item of a batch has one size at one hop, so a pass needs one buffer
// per batch, not one heap block per onion. This binary replaces the global
// operator new with a counting one and runs each pass kind — forward,
// backward, conversation last hop, forward dialing — at 256 and at 2,048
// onions with the same noise. The two counts may differ only by a small
// slack: per-pass bookkeeping is fine, per-onion allocation is not (a
// per-onion block shows up as about 1,800 extra allocations).
//
// The secret caches are primed and warmed by earlier passes over the same
// clients, so every unwrap is a cache hit (a miss derives and inserts a key,
// which is per-client work the cache exists to do once). The last hop runs
// behind an exchange backend that answers each request with its own
// envelope, so the count covers the pass, not a dead-drop table.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/crypto/onion.h"
#include "src/deaddrop/exchange_backend.h"
#include "src/mixnet/mix_server.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/constants.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  size_t alignment = static_cast<size_t>(align);
  size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, std::align_val_t align) { return CountedAlignedAlloc(size, align); }
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }

namespace vuvuzela {
namespace {

using mixnet::MixServer;
using mixnet::ServerRoundStats;

constexpr size_t kServers = 3;
constexpr size_t kSmall = 256;
constexpr size_t kLarge = 2048;
constexpr uint32_t kDrops = 4;
// Passes before the measured one: they settle the secret cache's two hash
// maps at this batch's size, so the measured pass rehashes nothing.
constexpr uint64_t kWarmupPasses = 2;

// Answers every exchange request with its own envelope.
class EchoBackend : public deaddrop::ExchangeBackend {
 public:
  deaddrop::ExchangeOutcome ExchangeConversation(
      uint64_t /*round*/, std::span<const wire::ExchangeRequest> requests) override {
    deaddrop::ExchangeOutcome outcome;
    outcome.results.reserve(requests.size());
    for (const wire::ExchangeRequest& request : requests) {
      outcome.results.push_back(request.envelope);
    }
    return outcome;
  }
  deaddrop::InvitationTable BuildInvitationTable(
      uint64_t /*round*/, uint32_t num_drops, std::span<const wire::DialRequest> /*requests*/,
      std::span<const deaddrop::NoiseInvitation> /*noise*/) override {
    return deaddrop::InvitationTable(num_drops);
  }
};

struct PassAllocations {
  uint64_t forward = 0;
  uint64_t backward = 0;
  uint64_t last = 0;
  uint64_t forward_dialing = 0;
};

template <typename Pass>
uint64_t CountAllocations(Pass&& pass) {
  uint64_t before = g_allocations.load();
  pass();
  return g_allocations.load() - before;
}

// A three-server chain and `n` static-key clients, built from fixed seeds so
// both sizes see the same servers, the same noise and the same first clients.
PassAllocations Measure(size_t n) {
  util::Xoshiro256Rng rng(99);
  std::vector<crypto::X25519KeyPair> server_keys;
  std::vector<crypto::X25519PublicKey> chain;
  for (size_t i = 0; i < kServers; ++i) {
    server_keys.push_back(crypto::X25519KeyPair::Generate(rng));
    chain.push_back(server_keys.back().public_key);
  }
  std::vector<std::unique_ptr<MixServer>> servers;
  for (size_t i = 0; i < kServers; ++i) {
    mixnet::MixServerConfig config;
    config.position = i;
    config.chain_length = kServers;
    config.conversation_noise = {.params = {40, 1}, .deterministic = true};
    config.dialing_noise = {.params = {10, 1}, .deterministic = true};
    crypto::ChaCha20Key seed;
    rng.Fill(seed);
    servers.push_back(std::make_unique<MixServer>(config, server_keys[i], chain, seed));
  }
  EchoBackend echo;
  servers.back()->SetExchangeBackend(&echo);

  std::vector<crypto::X25519KeyPair> clients;
  std::vector<crypto::X25519PublicKey> client_pks;
  for (size_t i = 0; i < n; ++i) {
    clients.push_back(crypto::X25519KeyPair::Generate(rng));
    client_pks.push_back(clients.back().public_key);
  }
  servers.front()->PrimeClientSecrets(client_pks);
  servers.back()->PrimeClientSecrets(client_pks);

  // One onion per client for `round`, wrapped with the client's static key
  // for the servers in `pks`.
  auto wrap = [&](uint64_t round, std::span<const crypto::X25519PublicKey> pks,
                  size_t payload_size) {
    std::vector<util::Bytes> onions(n);
    util::GlobalPool().ParallelFor(n, [&](size_t i) {
      util::Xoshiro256Rng payload_rng(round * 100003 + i);
      std::vector<crypto::X25519KeyPair> layer_keys(pks.size(), clients[i]);
      onions[i] = crypto::OnionWrapWithKeys(pks, layer_keys, round,
                                            payload_rng.RandomBytes(payload_size))
                      .data;
    });
    return onions;
  };
  std::span<const crypto::X25519PublicKey> last_only =
      std::span<const crypto::X25519PublicKey>(chain).last(1);

  PassAllocations counts;
  for (uint64_t round = 1; round <= kWarmupPasses + 1; ++round) {
    const bool measured = round == kWarmupPasses + 1;

    std::vector<util::Bytes> onions = wrap(round, chain, wire::kExchangeRequestSize);
    std::vector<util::ByteSpan> views = util::ViewsOf(onions);
    util::Batch forwarded;
    uint64_t forward = CountAllocations(
        [&] { forwarded = servers.front()->ForwardConversation(round, views); });

    util::Xoshiro256Rng response_rng(round);
    util::Batch responses(forwarded.size(),
                          crypto::OnionResponseSize(wire::kEnvelopeSize, kServers - 1));
    for (size_t i = 0; i < responses.size(); ++i) {
      response_rng.Fill(responses[i]);
    }
    std::vector<util::ByteSpan> response_views = responses.Views();
    util::Batch returned;
    uint64_t backward = CountAllocations(
        [&] { returned = servers.front()->BackwardConversation(round, response_views); });
    EXPECT_EQ(returned.size(), n);

    std::vector<util::Bytes> last_onions = wrap(round, last_only, wire::kExchangeRequestSize);
    std::vector<util::ByteSpan> last_views = util::ViewsOf(last_onions);
    ServerRoundStats last_stats;
    MixServer::LastHopOutput output;
    uint64_t last = CountAllocations([&] {
      output = servers.back()->ProcessConversationLastHop(round, last_views, &last_stats);
    });
    EXPECT_EQ(last_stats.requests_dropped, 0u);
    EXPECT_EQ(output.responses.size(), n);

    const uint64_t dial_round = (uint64_t{1} << 63) + round;
    std::vector<util::Bytes> dial_onions = wrap(dial_round, chain, wire::kDialRequestSize);
    std::vector<util::ByteSpan> dial_views = util::ViewsOf(dial_onions);
    ServerRoundStats dial_stats;
    util::Batch dialed;
    uint64_t forward_dialing = CountAllocations([&] {
      dialed = servers.front()->ForwardDialing(dial_round, dial_views, kDrops, &dial_stats);
    });
    EXPECT_EQ(dial_stats.requests_dropped, 0u);

    if (measured) {
      counts = PassAllocations{forward, backward, last, forward_dialing};
    }
  }
  // Every unwrap of the measured passes hit the primed cache.
  EXPECT_EQ(servers.front()->secret_cache().GetStats().misses, n);
  EXPECT_EQ(servers.back()->secret_cache().GetStats().misses, n);
  return counts;
}

TEST(AllocCount, PassAllocationsDoNotGrowWithBatchSize) {
  const PassAllocations small = Measure(kSmall);
  const PassAllocations large = Measure(kLarge);
  // The pool submits one helper task per worker, up to one per block of 64
  // onions, and each submit allocates: scheduling, not per-onion work, but it
  // differs between the two sizes by up to two pool-wide fan-outs per pass.
  const uint64_t slack = 32 + 2 * util::GlobalPool().num_threads();
  auto expect_flat = [&](const char* pass, uint64_t at_small, uint64_t at_large) {
    std::printf("%-16s %6llu allocations at %zu onions, %6llu at %zu\n", pass,
                static_cast<unsigned long long>(at_small), kSmall,
                static_cast<unsigned long long>(at_large), kLarge);
    EXPECT_LE(at_large, at_small + slack)
        << pass << ": " << at_small << " allocations at " << kSmall << " onions, " << at_large
        << " at " << kLarge;
  };
  expect_flat("forward", small.forward, large.forward);
  expect_flat("backward", small.backward, large.backward);
  expect_flat("last hop", small.last, large.last);
  expect_flat("forward dialing", small.forward_dialing, large.forward_dialing);
  // The counter really counts: a pass allocates its output at least.
  EXPECT_GT(small.forward, 0u);
}

}  // namespace
}  // namespace vuvuzela

// Heap allocations per mix pass must not grow with the batch, and the
// peeling passes must not copy it.
//
// Every item of a batch has one size at one hop, so a pass needs at most one
// buffer per batch, not one heap block per onion. This binary replaces the
// global operator new with one that counts calls and bytes, and runs each
// pass kind — forward, backward, conversation last hop, forward dialing — at
// 256 and at 2,048 onions with the same noise. The two call counts may differ
// only by a small slack: per-pass bookkeeping is fine, per-onion allocation
// is not (a per-onion block shows up as about 1,800 extra allocations).
//
// The peeling passes — both forward passes and the conversation last hop —
// open each onion inside the caller's buffer, and the last hop seals each
// response over its own request there. So at 2,048 onions such a pass may
// allocate its cover onions (none at the last hop), a few dozen bytes per
// onion for keys, views and indices, and a fixed 64 KiB — not one
// onion-sized batch: no peeled copy of the requests and no response batch.
// The last hop runs twice per round: with the in-process exchange, and
// through an ExchangeRouter to two exchange partitions served from this
// process. The partitions' serve threads count apart (in a deployment they
// are processes of their own): together they may hold the requests they
// received plus a few dozen bytes per request.
//
// The secret caches are primed and warmed by earlier passes over the same
// clients, so every unwrap is a cache hit (a miss derives and inserts a key,
// which is per-client work the cache exists to do once).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "src/crypto/onion.h"
#include "src/deaddrop/exchange_backend.h"
#include "src/mixnet/mix_server.h"
#include "src/transport/exchange_daemon.h"
#include "src/transport/exchange_router.h"
#include "src/transport/reconnecting_transport.h"
#include "src/util/batch.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/constants.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};
// Bytes allocated on exchange-partition serve threads (t_partition_thread).
std::atomic<uint64_t> g_partition_bytes{0};
thread_local bool t_partition_thread = false;

void Count(size_t size) {
  if (t_partition_thread) {
    g_partition_bytes.fetch_add(size, std::memory_order_relaxed);
    return;
  }
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* CountedAlloc(size_t size) {
  Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(size_t size, std::align_val_t align) {
  Count(size);
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

// Calls and bytes allocated by one pass on the counted threads, and bytes
// allocated meanwhile on the partitions' serve threads.
struct Allocations {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t partition_bytes = 0;
};

struct PassAllocations {
  Allocations forward;
  Allocations backward;
  Allocations last;
  Allocations last_partitioned;
  Allocations forward_dialing;
  // Bytes of the cover onions each forward pass made: the one batch a
  // peeling pass owns.
  uint64_t forward_cover_bytes = 0;
  uint64_t forward_dialing_cover_bytes = 0;
};

template <typename Pass>
Allocations CountAllocations(Pass&& pass) {
  Allocations before{g_allocations.load(), g_bytes.load(), g_partition_bytes.load()};
  pass();
  return Allocations{g_allocations.load() - before.calls, g_bytes.load() - before.bytes,
                     g_partition_bytes.load() - before.partition_bytes};
}

// Two exchange partitions, each serving from a thread whose allocations
// count apart.
class Partitions {
 public:
  Partitions() {
    for (uint32_t shard = 0; shard < 2; ++shard) {
      transport::ExchangedConfig config;
      config.shard_index = shard;
      config.num_shards = 2;
      daemons_.push_back(transport::ExchangedDaemon::Create(config));
      EXPECT_NE(daemons_.back(), nullptr);
    }
    for (auto& daemon : daemons_) {
      threads_.emplace_back([d = daemon.get()] {
        t_partition_thread = true;
        d->Serve();
      });
    }
  }
  ~Partitions() {
    for (auto& daemon : daemons_) {
      daemon->Stop();
    }
    for (auto& thread : threads_) {
      thread.join();
    }
  }
  transport::ShardFleetConfig fleet() const {
    transport::ShardFleetConfig config;
    for (const auto& daemon : daemons_) {
      config.shards.push_back({"127.0.0.1", daemon->port()});
    }
    return config;
  }

 private:
  std::vector<std::unique_ptr<transport::ExchangedDaemon>> daemons_;
  std::vector<std::thread> threads_;
};

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
  Partitions partitions;
  std::unique_ptr<transport::ExchangeRouter> router =
      transport::ExchangeRouter::Connect(partitions.fleet());
  EXPECT_NE(router, nullptr);

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

    // Each peeling pass works inside its input, so each gets a fresh batch,
    // and its output views stay valid while that batch lives.
    std::vector<util::Bytes> onions = wrap(round, chain, wire::kExchangeRequestSize);
    std::vector<util::MutableByteSpan> views = util::MutableViewsOf(onions);
    ServerRoundStats forward_stats;
    util::InPlaceBatch forwarded;
    Allocations forward = CountAllocations([&] {
      forwarded = servers.front()->ForwardConversation(round, views, &forward_stats);
    });

    util::Xoshiro256Rng response_rng(round);
    util::Batch responses(forwarded.size(),
                          crypto::OnionResponseSize(wire::kEnvelopeSize, kServers - 1));
    for (size_t i = 0; i < responses.size(); ++i) {
      response_rng.Fill(responses[i]);
    }
    std::vector<util::ByteSpan> response_views = responses.Views();
    util::Batch returned;
    Allocations backward = CountAllocations(
        [&] { returned = servers.front()->BackwardConversation(round, response_views); });
    EXPECT_EQ(returned.size(), n);

    std::vector<util::Bytes> last_onions = wrap(round, last_only, wire::kExchangeRequestSize);
    std::vector<util::Bytes> routed_onions = last_onions;
    std::vector<util::MutableByteSpan> last_views = util::MutableViewsOf(last_onions);
    std::vector<util::MutableByteSpan> routed_views = util::MutableViewsOf(routed_onions);
    ServerRoundStats last_stats;
    MixServer::LastHopOutput output;
    Allocations last = CountAllocations([&] {
      output = servers.back()->ProcessConversationLastHop(round, last_views, &last_stats);
    });
    EXPECT_EQ(last_stats.requests_dropped, 0u);
    EXPECT_EQ(output.responses.size(), n);

    servers.back()->SetExchangeBackend(router.get());
    MixServer::LastHopOutput partitioned;
    Allocations last_partitioned = CountAllocations([&] {
      partitioned = servers.back()->ProcessConversationLastHop(round, routed_views, &last_stats);
    });
    servers.back()->SetExchangeBackend(nullptr);
    EXPECT_EQ(partitioned.responses.ToVectors(), output.responses.ToVectors());

    const uint64_t dial_round = (uint64_t{1} << 63) + round;
    std::vector<util::Bytes> dial_onions = wrap(dial_round, chain, wire::kDialRequestSize);
    std::vector<util::MutableByteSpan> dial_views = util::MutableViewsOf(dial_onions);
    ServerRoundStats dial_stats;
    util::InPlaceBatch dialed;
    Allocations forward_dialing = CountAllocations([&] {
      dialed = servers.front()->ForwardDialing(dial_round, dial_views, kDrops, &dial_stats);
    });
    EXPECT_EQ(dial_stats.requests_dropped, 0u);

    if (measured) {
      counts = PassAllocations{
          forward,
          backward,
          last,
          last_partitioned,
          forward_dialing,
          forward_stats.noise_requests_added *
              crypto::OnionRequestSize(wire::kExchangeRequestSize, kServers - 1),
          dial_stats.noise_requests_added *
              crypto::OnionRequestSize(wire::kDialRequestSize, kServers - 1)};
    }
  }
  // Every unwrap of the measured passes hit the primed cache.
  EXPECT_EQ(servers.front()->secret_cache().GetStats().misses, n);
  EXPECT_EQ(servers.back()->secret_cache().GetStats().misses, n);
  return counts;
}

// The 2,048-onion measurement, taken once and shared by the tests below.
const PassAllocations& Large() {
  static const PassAllocations large = Measure(kLarge);
  return large;
}

// Keys, views and indices: a few dozen bytes an onion, on every path.
constexpr uint64_t kPerOnion = 192;
// Per-pass bookkeeping that does not scale with the batch (the cover
// payloads before they are wrapped among it).
constexpr uint64_t kFixed = 64 << 10;
// What a peeling pass may allocate beside the cover onions it owns.
constexpr uint64_t kBookkeeping = kPerOnion * kLarge + kFixed;

double PerOnion(uint64_t bytes) { return static_cast<double>(bytes) / kLarge; }

// `onion_size` is the size of the onions the pass peels out (and of the
// responses the last hop seals): a peeled copy, or an output batch, would be
// kLarge of them. Beside the cover onions the pass stays within the
// bookkeeping bound and below one such batch.
void ExpectInPlace(const char* pass, const Allocations& at_large, uint64_t cover_bytes,
                   size_t onion_size) {
  const uint64_t bound = cover_bytes + kBookkeeping;
  std::printf("%-18s %.0f bytes an onion (bound %.0f, of which cover onions %.0f)\n", pass,
              PerOnion(at_large.bytes), PerOnion(bound), PerOnion(cover_bytes));
  EXPECT_LE(at_large.bytes, bound) << pass;
  EXPECT_LT(at_large.bytes, cover_bytes + kLarge * onion_size) << pass;
}

TEST(AllocCount, PassAllocationsDoNotGrowWithBatchSize) {
  const PassAllocations small = Measure(kSmall);
  const PassAllocations& large = Large();
  // The pool submits one helper task per worker, up to one per block of 64
  // onions, and each submit allocates: scheduling, not per-onion work, but it
  // differs between the two sizes by up to two pool-wide fan-outs per pass.
  const uint64_t slack = 32 + 2 * util::GlobalPool().num_threads();
  auto expect_flat = [&](const char* pass, const Allocations& at_small,
                         const Allocations& at_large) {
    std::printf("%-18s %6llu allocations at %zu onions, %6llu at %zu (%llu bytes)\n", pass,
                static_cast<unsigned long long>(at_small.calls), kSmall,
                static_cast<unsigned long long>(at_large.calls), kLarge,
                static_cast<unsigned long long>(at_large.bytes));
    EXPECT_LE(at_large.calls, at_small.calls + slack)
        << pass << ": " << at_small.calls << " allocations at " << kSmall << " onions, "
        << at_large.calls << " at " << kLarge;
  };
  expect_flat("forward", small.forward, large.forward);
  expect_flat("backward", small.backward, large.backward);
  expect_flat("last hop", small.last, large.last);
  expect_flat("last hop, routed", small.last_partitioned, large.last_partitioned);
  expect_flat("forward dialing", small.forward_dialing, large.forward_dialing);
  // The counter really counts: a pass allocates its output at least.
  EXPECT_GT(small.forward.calls, 0u);
}

TEST(AllocCount, ForwardPassesAllocateNoBatchCopies) {
  const PassAllocations& large = Large();
  ExpectInPlace("forward", large.forward, large.forward_cover_bytes,
                crypto::OnionRequestSize(wire::kExchangeRequestSize, kServers - 1));
  ExpectInPlace("forward dialing", large.forward_dialing, large.forward_dialing_cover_bytes,
                crypto::OnionRequestSize(wire::kDialRequestSize, kServers - 1));
  // The forward passes did make cover onions.
  EXPECT_GT(large.forward_cover_bytes, 0u);
  EXPECT_GT(large.forward_dialing_cover_bytes, 0u);
}

TEST(AllocCount, LastHopAllocatesNoBatchCopies) {
  const PassAllocations& large = Large();
  ExpectInPlace("last hop", large.last, 0, wire::kExchangeRequestSize);
  ExpectInPlace("last hop, routed", large.last_partitioned, 0, wire::kExchangeRequestSize);
  // The partitions receive the requests (each with a 4-byte length prefix)
  // and may add a few dozen bytes a request for views and indices.
  const uint64_t partition_bound =
      kLarge * (wire::kExchangeRequestSize + 4) + kPerOnion * kLarge + kFixed;
  std::printf("partitions         %.0f bytes a request (bound %.0f)\n",
              PerOnion(large.last_partitioned.partition_bytes), PerOnion(partition_bound));
  EXPECT_LE(large.last_partitioned.partition_bytes, partition_bound);
  // The routed pass did reach the partitions.
  EXPECT_GT(large.last_partitioned.partition_bytes, kLarge * wire::kExchangeRequestSize);
}

// The hop link sends a forward batch straight from the caller's items and
// re-sends the same views after a failure, so a call with re-sends left
// copies nothing: its allocations stay within the per-onion bookkeeping
// bound, below one batch. The peer answers from a thread that counts apart.
TEST(AllocCount, HopLinkSendsTheCallersBatchWithoutCopying) {
  constexpr size_t kItemSize = 1024;
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::thread peer([&] {
    t_partition_thread = true;
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.has_value());
    auto first = conn->RecvFrame();
    ASSERT_TRUE(first.has_value());
    auto request = transport::ReadBatchMessage(*conn, std::move(*first));
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->items.size(), kLarge);
    wire::Writer header(64);
    transport::WriteStats(header, ServerRoundStats{});
    transport::SendBatchMessage(*conn, request->op, request->round, header.Take(), {});
    conn->RecvFrame();  // until the link's kShutdown
  });

  transport::TcpTransportConfig config;
  config.port = listener->port();
  // Three sends per call: two re-sends left, as coordd and vzbench run.
  transport::ReconnectingTransport hop(config, transport::ReconnectPolicy{});
  ASSERT_TRUE(hop.Connect());
  std::vector<util::Bytes> batch(kLarge, util::Bytes(kItemSize, 0x5a));
  Allocations call = CountAllocations([&] {
    EXPECT_TRUE(hop.ForwardConversation(1, std::move(batch), nullptr).empty());
  });
  std::printf("hop link call      %.0f bytes an onion (bound %.0f)\n", PerOnion(call.bytes),
              PerOnion(kBookkeeping));
  EXPECT_LE(call.bytes, kBookkeeping);
  EXPECT_LT(call.bytes, kLarge * kItemSize);
  EXPECT_LT(call.calls, kLarge);

  hop.SendShutdown();
  peer.join();
}

}  // namespace
}  // namespace vuvuzela

// Conformance suite for the mix pass.
//
// MixServer has one implementation of every pass: block processing on the
// thread pool, a cross-round secret cache and a batched cover-onion wrap.
// tests/reference_mix_server.h is a serial, uncached, ladder-only oracle of
// the same passes. The determinism contract makes comparing the two provable:
// every pass is a pure function of (seed, round, input batch), so two servers
// built from the same key material must emit identical bytes whatever
// implementation strategy they use. These tests drive full conversation and
// dialing rounds through a production chain and an oracle chain at batch
// sizes straddling every block boundary and compare every stage's output
// bit-for-bit, stats included, and at cover counts that leave padded
// ladders and short runs in the wrap.
//
// The same oracle checks the one round driver: rounds pipelined through
// engine::RoundScheduler must equal the oracle chain driven pass by pass.
//
// Also pinned here: the secret cache must not survive a key rotation, the
// comb-table DH must agree with the Montgomery ladder (RFC 7748 vectors,
// random pairs, twist fallback), crypto::CoverOnionWrapper on every comb
// kernel must equal the one-onion wraps under the same seeds, and the wire
// decode must yield views into its adopted chunks that survive a move of the
// message.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <string>

#include "src/coord/coordinator.h"
#include "src/crypto/aead.h"
#include "src/crypto/box.h"
#include "src/crypto/drbg.h"
#include "src/crypto/onion.h"
#include "src/crypto/secret_cache.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_internal.h"
#include "src/crypto/x25519_precomp.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/mix_server.h"
#include "src/transport/hop_chain.h"
#include "src/transport/hop_wire.h"
#include "src/util/random.h"
#include "src/wire/constants.h"
#include "tests/reference_mix_server.h"

namespace vuvuzela {
namespace {

using mixnet::MixServer;
using mixnet::MixServerConfig;
using mixnet::ReferenceMixServer;
using mixnet::ServerRoundStats;

constexpr size_t kServers = 3;

template <typename Server>
struct TestChain {
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<crypto::X25519PublicKey> public_keys;
};

// Key material and noise seeds are drawn from `seed` in a fixed order, so a
// MixServer chain and a ReferenceMixServer chain built from the same seed
// hold the same keys and configuration.
template <typename Server = MixServer>
TestChain<Server> MakeChain(uint64_t seed, double mu) {
  util::Xoshiro256Rng rng(seed);
  std::vector<crypto::X25519KeyPair> key_pairs;
  std::vector<crypto::ChaCha20Key> rng_seeds;
  TestChain<Server> chain;
  for (size_t i = 0; i < kServers; ++i) {
    key_pairs.push_back(crypto::X25519KeyPair::Generate(rng));
    chain.public_keys.push_back(key_pairs.back().public_key);
    crypto::ChaCha20Key noise_seed;
    rng.Fill(noise_seed);
    rng_seeds.push_back(noise_seed);
  }
  for (size_t i = 0; i < kServers; ++i) {
    MixServerConfig config;
    config.position = i;
    config.chain_length = kServers;
    config.conversation_noise = {.params = {mu, mu / 4.0 + 1.0}, .deterministic = true};
    config.dialing_noise = {.params = {mu, mu / 4.0 + 1.0}, .deterministic = true};
    chain.servers.push_back(
        std::make_unique<Server>(config, key_pairs[i], chain.public_keys, rng_seeds[i]));
  }
  return chain;
}

std::vector<util::Bytes> MakeConversationBatch(const std::vector<crypto::X25519PublicKey>& pks,
                                               uint64_t round, size_t n, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<util::Bytes> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
    batch.push_back(crypto::OnionWrap(pks, round, payload, rng).data);
  }
  return batch;
}

std::vector<util::Bytes> MakeDialingBatch(const std::vector<crypto::X25519PublicKey>& pks,
                                          uint64_t round, size_t n, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<util::Bytes> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    util::Bytes payload = rng.RandomBytes(wire::kDialRequestSize);
    batch.push_back(crypto::OnionWrap(pks, round, payload, rng).data);
  }
  return batch;
}

// MixServer's peeling passes work inside their input and return views of it
// (the backward pass reads views and writes a flat batch); the oracle takes
// and returns byte vectors. These overloads give both the oracle's shape, so
// one test body drives either: MixServer's overloads peel a copy of the batch
// and copy their output out.
std::vector<util::Bytes> ForwardPass(MixServer& server, uint64_t round,
                                     std::vector<util::Bytes> batch,
                                     ServerRoundStats* stats = nullptr) {
  return server.ForwardConversation(round, util::MutableViewsOf(batch), stats).ToVectors();
}
std::vector<util::Bytes> ForwardPass(ReferenceMixServer& server, uint64_t round,
                                     const std::vector<util::Bytes>& batch,
                                     ServerRoundStats* stats = nullptr) {
  return server.ForwardConversation(round, batch, stats);
}
std::vector<util::Bytes> BackwardPass(MixServer& server, uint64_t round,
                                      const std::vector<util::Bytes>& responses,
                                      ServerRoundStats* stats = nullptr) {
  return server.BackwardConversation(round, util::ViewsOf(responses), stats).ToVectors();
}
std::vector<util::Bytes> BackwardPass(ReferenceMixServer& server, uint64_t round,
                                      const std::vector<util::Bytes>& responses,
                                      ServerRoundStats* stats = nullptr) {
  return server.BackwardConversation(round, responses, stats);
}
MixServer::LastServerResult LastPass(MixServer& server, uint64_t round,
                                     std::vector<util::Bytes> batch, ServerRoundStats* stats) {
  return MixServer::ToLastServerResult(
      server.ProcessConversationLastHop(round, util::MutableViewsOf(batch), stats));
}
MixServer::LastServerResult LastPass(ReferenceMixServer& server, uint64_t round,
                                     const std::vector<util::Bytes>& batch,
                                     ServerRoundStats* stats) {
  return server.ProcessConversationLastHop(round, batch, stats);
}
std::vector<util::Bytes> ForwardDialingPass(MixServer& server, uint64_t round,
                                            std::vector<util::Bytes> batch, uint32_t num_drops,
                                            ServerRoundStats* stats) {
  return server.ForwardDialing(round, util::MutableViewsOf(batch), num_drops, stats)
      .ToVectors();
}
std::vector<util::Bytes> ForwardDialingPass(ReferenceMixServer& server, uint64_t round,
                                            const std::vector<util::Bytes>& batch,
                                            uint32_t num_drops, ServerRoundStats* stats) {
  return server.ForwardDialing(round, batch, num_drops, stats);
}

// Every stage output of one conversation round, for bit-level comparison.
struct ConversationTranscript {
  std::vector<std::vector<util::Bytes>> forward;  // after each server's pass
  std::vector<util::Bytes> last_responses;
  uint64_t messages_exchanged = 0;
  std::vector<std::vector<util::Bytes>> backward;  // after each return pass
  std::vector<ServerRoundStats> stats;
};

template <typename Server>
ConversationTranscript RunConversation(TestChain<Server>& chain, uint64_t round,
                                       std::vector<util::Bytes> batch) {
  ConversationTranscript t;
  t.stats.resize(2 * kServers - 1);
  std::vector<util::Bytes> current = std::move(batch);
  for (size_t i = 0; i + 1 < kServers; ++i) {
    current = ForwardPass(*chain.servers[i], round, current, &t.stats[i]);
    t.forward.push_back(current);
  }
  auto last = LastPass(*chain.servers.back(), round, current, &t.stats[kServers - 1]);
  t.last_responses = last.responses;
  t.messages_exchanged = last.messages_exchanged;
  current = std::move(last.responses);
  for (size_t i = kServers - 1; i-- > 0;) {
    current = BackwardPass(*chain.servers[i], round, current, &t.stats[2 * kServers - 2 - i]);
    t.backward.push_back(current);
  }
  return t;
}

// dh_ops counts logical key derivations (serialized into reply headers), so
// production must report the oracle's number even when the cache answered
// most of them.
void ExpectSameStats(const ServerRoundStats& a, const ServerRoundStats& b, size_t stage) {
  EXPECT_EQ(a.requests_in, b.requests_in) << "stats " << stage;
  EXPECT_EQ(a.requests_dropped, b.requests_dropped) << "stats " << stage;
  EXPECT_EQ(a.noise_requests_added, b.noise_requests_added) << "stats " << stage;
  EXPECT_EQ(a.bytes_in, b.bytes_in) << "stats " << stage;
  EXPECT_EQ(a.bytes_out, b.bytes_out) << "stats " << stage;
  EXPECT_EQ(a.dh_ops, b.dh_ops) << "stats " << stage;
}

void ExpectIdentical(const ConversationTranscript& a, const ConversationTranscript& b) {
  ASSERT_EQ(a.forward.size(), b.forward.size());
  for (size_t i = 0; i < a.forward.size(); ++i) {
    EXPECT_EQ(a.forward[i], b.forward[i]) << "forward stage " << i;
  }
  EXPECT_EQ(a.last_responses, b.last_responses);
  EXPECT_EQ(a.messages_exchanged, b.messages_exchanged);
  ASSERT_EQ(a.backward.size(), b.backward.size());
  for (size_t i = 0; i < a.backward.size(); ++i) {
    EXPECT_EQ(a.backward[i], b.backward[i]) << "backward stage " << i;
  }
  for (size_t i = 0; i < a.stats.size(); ++i) {
    ExpectSameStats(a.stats[i], b.stats[i], i);
  }
}

// The block boundaries of MixServer's 64-onion blocks, plus a multi-block
// batch.
class BatchConformance : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchConformance,
                         ::testing::Values(1u, 63u, 64u, 65u, 160u));

// Two conversation rounds of `n` onions through a production chain and an
// oracle chain built from `seed` at noise `mu`, compared stage by stage.
void ExpectConversationMatchesOracle(size_t n, uint64_t seed, double mu) {
  TestChain<MixServer> production = MakeChain(seed, mu);
  TestChain<ReferenceMixServer> oracle = MakeChain<ReferenceMixServer>(seed, mu);
  ASSERT_EQ(production.public_keys, oracle.public_keys);

  for (uint64_t round = 1; round <= 2; ++round) {
    auto batch = MakeConversationBatch(production.public_keys, round, n, 1000 + round);
    auto a = RunConversation(production, round, batch);
    auto b = RunConversation(oracle, round, std::move(batch));
    ExpectIdentical(a, b);
  }
  // Each onion uses a fresh ephemeral, so the cache misses; either way the
  // bytes matched above. Sanity: production actually exercised the cache.
  EXPECT_GT(production.servers[0]->secret_cache().GetStats().misses, 0u);
}

// One dialing round of `n` onions over `drops` invitation drops, compared
// the same way: both forward passes, then the last hop's table.
void ExpectDialingMatchesOracle(size_t n, uint32_t drops, uint64_t seed, double mu) {
  TestChain<MixServer> production = MakeChain(seed, mu);
  TestChain<ReferenceMixServer> oracle = MakeChain<ReferenceMixServer>(seed, mu);

  auto batch = MakeDialingBatch(production.public_keys, 1, n, 2000);
  std::vector<util::Bytes> a = batch;
  std::vector<util::Bytes> b = batch;
  ServerRoundStats sa, sb;
  for (size_t i = 0; i + 1 < kServers; ++i) {
    a = ForwardDialingPass(*production.servers[i], 1, a, drops, &sa);
    b = ForwardDialingPass(*oracle.servers[i], 1, b, drops, &sb);
    ASSERT_EQ(a, b) << "dialing forward stage " << i;
    ExpectSameStats(sa, sb, i);
  }
  auto table_a =
      production.servers.back()->ProcessDialingLastHop(1, util::MutableViewsOf(a), drops, &sa);
  auto table_b = oracle.servers.back()->ProcessDialingLastHop(1, std::move(b), drops, &sb);
  ASSERT_EQ(table_a.num_drops(), table_b.num_drops());
  for (uint32_t d = 0; d < table_a.num_drops(); ++d) {
    EXPECT_EQ(table_a.Drop(d), table_b.Drop(d)) << "drop " << d;
  }
  ExpectSameStats(sa, sb, kServers - 1);
}

TEST_P(BatchConformance, ConversationRoundByteIdentical) {
  ExpectConversationMatchesOracle(GetParam(), /*seed=*/7, /*mu=*/12);
}

TEST_P(BatchConformance, DialingRoundByteIdentical) {
  ExpectDialingMatchesOracle(GetParam(), /*drops=*/5, /*seed=*/9, /*mu=*/12);
}

// Cover counts that are not multiples of a ladder's 8 lanes or of a 64-onion
// block, so the wrap's padded ladders and short runs meet the oracle. The
// parameter is µ (deterministic noise): each forward dialing pass over one
// drop wraps exactly µ cover onions (1, 7, 9, 65), each forward conversation
// pass 2µ + 1 (3, 15, 19, 131).
class CoverCountConformance : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(CoverCounts, CoverCountConformance,
                         ::testing::Values(1u, 7u, 9u, 65u));

TEST_P(CoverCountConformance, ConversationRoundByteIdentical) {
  ExpectConversationMatchesOracle(/*n=*/20, /*seed=*/17, static_cast<double>(GetParam()));
}

TEST_P(CoverCountConformance, DialingRoundByteIdentical) {
  ExpectDialingMatchesOracle(/*n=*/20, /*drops=*/1, /*seed=*/19,
                             static_cast<double>(GetParam()));
}

// --- The round driver -------------------------------------------------------

// Holds every round at the first hop until opened, so the rounds submitted
// before Open() are provably in flight together.
class FirstHopGate : public mixnet::ChainObserver {
 public:
  void OnForwardPass(size_t position, uint64_t, const std::vector<util::Bytes>&,
                     const std::vector<util::Bytes>&) override {
    if (position == 0) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    }
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// RoundScheduler is the one round driver. Conversation rounds and a dialing
// round cross it at K = 3 over LocalTransports, three of them in flight at
// once, and each must equal what the oracle chain gives when RunConversation
// drives it one pass at a time: responses, exchange count and every hop's
// stats, and for the dialing round the invitation table.
TEST(SchedulerConformance, PipelinedRoundsMatchInOrderOracle) {
  constexpr size_t kOnions = 70;  // crosses a 64-onion block boundary
  constexpr uint64_t kRounds = 4;
  constexpr uint32_t kDrops = 5;
  constexpr uint64_t kDialRound = coord::kDialingRoundBase;
  TestChain<MixServer> production = MakeChain(/*seed=*/13, /*mu=*/12);
  TestChain<ReferenceMixServer> oracle = MakeChain<ReferenceMixServer>(/*seed=*/13, /*mu=*/12);

  std::vector<std::vector<util::Bytes>> batches;
  for (uint64_t round = 1; round <= kRounds; ++round) {
    batches.push_back(
        MakeConversationBatch(production.public_keys, round, kOnions, 3000 + round));
  }
  std::vector<util::Bytes> dial_batch =
      MakeDialingBatch(production.public_keys, kDialRound, kOnions, 4000);

  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  std::future<mixnet::Chain::DialingResult> dial_future;
  {
    FirstHopGate gate;
    engine::RoundScheduler scheduler(transport::MakeLocalTransports(production.servers),
                                     {.max_in_flight = 3}, &gate);
    futures.push_back(scheduler.SubmitConversation(1, batches[0]));
    dial_future = scheduler.SubmitDialing(kDialRound, dial_batch, kDrops);
    futures.push_back(scheduler.SubmitConversation(2, batches[1]));
    EXPECT_EQ(scheduler.in_flight(), 3u);
    gate.Open();
    for (uint64_t round = 3; round <= kRounds; ++round) {
      futures.push_back(scheduler.SubmitConversation(round, batches[round - 1]));
    }
    scheduler.Drain();
  }

  for (uint64_t round = 1; round <= kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    mixnet::Chain::ConversationResult result = futures[round - 1].get();
    ConversationTranscript expected = RunConversation(oracle, round, batches[round - 1]);
    EXPECT_EQ(result.responses, expected.backward.back());
    EXPECT_EQ(result.messages_exchanged, expected.messages_exchanged);
    ASSERT_EQ(result.stats.forward.size(), kServers);
    ASSERT_EQ(result.stats.backward.size(), kServers - 1);
    for (size_t i = 0; i < kServers; ++i) {
      ExpectSameStats(result.stats.forward[i], expected.stats[i], i);
    }
    for (size_t i = 0; i + 1 < kServers; ++i) {
      ExpectSameStats(result.stats.backward[i], expected.stats[2 * kServers - 2 - i],
                      2 * kServers - 2 - i);
    }
  }

  deaddrop::InvitationTable table = dial_future.get().table;
  std::vector<util::Bytes> current = std::move(dial_batch);
  for (size_t i = 0; i + 1 < kServers; ++i) {
    current = ForwardDialingPass(*oracle.servers[i], kDialRound, current, kDrops, nullptr);
  }
  deaddrop::InvitationTable expected_table =
      oracle.servers.back()->ProcessDialingLastHop(kDialRound, std::move(current), kDrops, nullptr);
  ASSERT_EQ(table.num_drops(), expected_table.num_drops());
  for (uint32_t d = 0; d < table.num_drops(); ++d) {
    EXPECT_EQ(table.Drop(d), expected_table.Drop(d)) << "drop " << d;
  }
}

// A response of the wrong size from the next hop must not leave this hop
// still carrying its distinct size: following that size across the unshuffle
// would undo the honest server's permutation. It is treated like a dropped
// slot, filled with random bytes of the correct size.
TEST(MixServer, BackwardNormalizesMissizedResponses) {
  // No cover traffic, so every forwarded position is a client's slot.
  TestChain<MixServer> production = MakeChain(/*seed=*/41, /*mu=*/0);
  TestChain<ReferenceMixServer> oracle = MakeChain<ReferenceMixServer>(/*seed=*/41, /*mu=*/0);
  constexpr uint64_t kRound = 3;
  auto batch = MakeConversationBatch(production.public_keys, kRound, 20, 4000);
  std::vector<util::Bytes> forwarded = ForwardPass(*production.servers[0], kRound, batch);
  ASSERT_EQ(oracle.servers[0]->ForwardConversation(kRound, batch), forwarded);
  ASSERT_EQ(forwarded.size(), batch.size());

  const size_t response_size_in =
      wire::kEnvelopeSize + (kServers - 1) * crypto::kOnionResponseLayerOverhead;
  util::Xoshiro256Rng rng(5);
  std::vector<util::Bytes> responses;
  for (size_t i = 0; i < forwarded.size(); ++i) {
    responses.push_back(rng.RandomBytes(response_size_in));
  }
  responses[7].pop_back();

  std::vector<util::Bytes> out = BackwardPass(*production.servers[0], kRound, responses);
  ASSERT_EQ(out.size(), batch.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].size(), response_size_in + crypto::kOnionResponseLayerOverhead)
        << "slot " << i;
  }
  EXPECT_EQ(oracle.servers[0]->BackwardConversation(kRound, std::move(responses)), out);
}

// An onion whose layers all authenticate but whose payload has its own size
// (a client wrapping 273 bytes) must be dropped at the first unwrap, not
// carried across this hop's shuffle as the one item of its size. Forward
// conversation and forward dialing both fix their input size.
TEST(MixServer, ForwardDropsMissizedOnions) {
  TestChain<MixServer> production = MakeChain(/*seed=*/43, /*mu=*/4);
  TestChain<ReferenceMixServer> oracle = MakeChain<ReferenceMixServer>(/*seed=*/43, /*mu=*/4);
  constexpr uint64_t kRound = 5;
  constexpr uint32_t kDrops = 3;
  util::Xoshiro256Rng rng(17);
  for (size_t payload_size : {wire::kExchangeRequestSize, wire::kDialRequestSize}) {
    const bool dialing = payload_size == wire::kDialRequestSize;
    std::vector<util::Bytes> batch =
        dialing ? MakeDialingBatch(production.public_keys, kRound, 10, 6000)
                : MakeConversationBatch(production.public_keys, kRound, 10, 6000);
    batch.insert(batch.begin() + 4,
                 crypto::OnionWrap(production.public_keys, kRound,
                                   rng.RandomBytes(payload_size + 1), rng)
                     .data);

    ServerRoundStats stats;
    ServerRoundStats oracle_stats;
    std::vector<util::Bytes> forwarded;
    std::vector<util::Bytes> expected;
    if (dialing) {
      forwarded = ForwardDialingPass(*production.servers[0], kRound, batch, kDrops, &stats);
      expected = ForwardDialingPass(*oracle.servers[0], kRound, batch, kDrops, &oracle_stats);
    } else {
      forwarded = ForwardPass(*production.servers[0], kRound, batch, &stats);
      expected = ForwardPass(*oracle.servers[0], kRound, batch, &oracle_stats);
    }
    EXPECT_EQ(stats.requests_dropped, 1u) << "payload " << payload_size;
    EXPECT_EQ(forwarded.size(), 10u + stats.noise_requests_added);
    for (const util::Bytes& item : forwarded) {
      EXPECT_EQ(item.size(), crypto::OnionRequestSize(payload_size, kServers - 1))
          << "payload " << payload_size;
    }
    EXPECT_EQ(forwarded, expected);
    ExpectSameStats(stats, oracle_stats, 0);
  }
}

// --- Secret cache lifecycle --------------------------------------------------

// A client with a static key hits the cache from round 2 on; the pass output
// stays byte-identical to a cold server's.
TEST(SecretCacheConformance, WarmCacheIdenticalToCold) {
  TestChain<MixServer> warm = MakeChain(/*seed=*/21, /*mu=*/6);
  util::Xoshiro256Rng rng(77);
  std::vector<crypto::X25519KeyPair> client_keys;
  std::vector<crypto::X25519PublicKey> client_pks;
  for (int i = 0; i < 16; ++i) {
    client_keys.push_back(crypto::X25519KeyPair::Generate(rng));
    client_pks.push_back(client_keys.back().public_key);
  }
  warm.servers[0]->PrimeClientSecrets(client_pks);
  ASSERT_EQ(warm.servers[0]->secret_cache().GetStats().entries, 16u);

  for (uint64_t round = 1; round <= 3; ++round) {
    // One onion per client per round (the nonce-safety contract of
    // OnionWrapWithKeys).
    std::vector<util::Bytes> batch;
    util::Xoshiro256Rng payload_rng(round);
    for (const auto& kp : client_keys) {
      std::vector<crypto::X25519KeyPair> layer_keys(kServers, kp);
      batch.push_back(crypto::OnionWrapWithKeys(warm.public_keys, layer_keys, round,
                                                payload_rng.RandomBytes(
                                                    wire::kExchangeRequestSize))
                          .data);
    }
    // A freshly built identical chain (cold cache) must emit the same bytes.
    TestChain<MixServer> cold = MakeChain(/*seed=*/21, /*mu=*/6);
    auto a = RunConversation(warm, round, batch);
    auto b = RunConversation(cold, round, std::move(batch));
    ExpectIdentical(a, b);
  }
  // Primed entries actually answered the rounds: no growth beyond the
  // ceremony, and hits accumulated.
  auto stats = warm.servers[0]->secret_cache().GetStats();
  EXPECT_EQ(stats.entries, 16u);
  EXPECT_GE(stats.hits, 3u * 16u);
}

// Rotation must drop every cached secret: an onion wrapped for the old key
// is rejected afterwards, and an onion wrapped for the new key unwraps —
// which a stale cache entry would break (wrong derived key, AEAD tag fails).
TEST(SecretCacheConformance, RotatedKeyServesNoStaleSecrets) {
  TestChain<MixServer> chain = MakeChain(/*seed=*/31, /*mu=*/0);
  MixServer& hop = *chain.servers[0];
  util::Xoshiro256Rng rng(5);
  auto client = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519KeyPair> layer_keys(kServers, client);

  auto wrap = [&](uint64_t round, const std::vector<crypto::X25519PublicKey>& pks) {
    util::Xoshiro256Rng payload_rng(round);
    return std::vector<util::Bytes>{
        crypto::OnionWrapWithKeys(pks, layer_keys, round,
                                  payload_rng.RandomBytes(wire::kExchangeRequestSize))
            .data};
  };

  ServerRoundStats stats;
  std::vector<util::Bytes> batch1 = wrap(1, chain.public_keys);
  hop.ForwardConversation(1, util::MutableViewsOf(batch1), &stats);
  EXPECT_EQ(stats.requests_dropped, 0u);
  ASSERT_EQ(hop.secret_cache().GetStats().entries, 1u);
  const uint64_t epoch_before = hop.secret_cache().epoch();

  auto new_pair = crypto::X25519KeyPair::Generate(rng);
  hop.RotateKey(new_pair);
  EXPECT_EQ(hop.secret_cache().epoch(), epoch_before + 1);
  EXPECT_EQ(hop.secret_cache().GetStats().entries, 0u);

  // Old-key onion: rejected under the new key.
  std::vector<util::Bytes> batch2 = wrap(2, chain.public_keys);
  hop.ForwardConversation(2, util::MutableViewsOf(batch2), &stats);
  EXPECT_EQ(stats.requests_dropped, 1u);

  // New-key onion from the same client: accepted — a stale cache entry for
  // this client pk (derived under the old server key) would drop it.
  std::vector<crypto::X25519PublicKey> new_chain = chain.public_keys;
  new_chain[0] = new_pair.public_key;
  std::vector<util::Bytes> batch3 = wrap(3, new_chain);
  hop.ForwardConversation(3, util::MutableViewsOf(batch3), &stats);
  EXPECT_EQ(stats.requests_dropped, 0u);
  EXPECT_EQ(hop.secret_cache().GetStats().entries, 1u);
}

// Static clients present their key every pass; cover onions and fresh-key
// clients present a key once. Against a cache far smaller than that churn,
// the two generations must keep every static key resident (one miss each,
// ever), hold no more than two passes' worth of keys, and leave every peeled
// layer byte-identical to an uncached unwrap. A single-generation cache that
// evicts arbitrary entries at its cap fails the first assertion.
TEST(SecretCacheConformance, ChurnLeavesStaticKeysResident) {
  constexpr size_t kCap = 64;
  constexpr size_t kStatic = 16;
  constexpr size_t kFreshPerPass = 14;
  constexpr uint64_t kPasses = 50;
  static_assert(kFreshPerPass * kPasses > 10 * kCap, "churn must exceed 10x the cap");

  util::Xoshiro256Rng rng(91);
  std::vector<crypto::X25519KeyPair> servers;
  std::vector<crypto::X25519PublicKey> server_pks;
  std::vector<std::unique_ptr<crypto::SecretCache>> caches;
  for (size_t i = 0; i < kServers; ++i) {
    servers.push_back(crypto::X25519KeyPair::Generate(rng));
    server_pks.push_back(servers.back().public_key);
    caches.push_back(std::make_unique<crypto::SecretCache>(kCap));
  }
  std::vector<crypto::X25519KeyPair> clients;
  for (size_t i = 0; i < kStatic; ++i) {
    clients.push_back(crypto::X25519KeyPair::Generate(rng));
  }

  for (uint64_t round = 1; round <= kPasses; ++round) {
    util::Xoshiro256Rng payload_rng(round);
    std::vector<util::Bytes> batch;
    for (const auto& kp : clients) {
      std::vector<crypto::X25519KeyPair> layer_keys(kServers, kp);
      batch.push_back(crypto::OnionWrapWithKeys(server_pks, layer_keys, round,
                                                payload_rng.RandomBytes(wire::kExchangeRequestSize))
                          .data);
    }
    for (size_t i = 0; i < kFreshPerPass; ++i) {
      batch.push_back(
          crypto::OnionWrap(server_pks, round, payload_rng.RandomBytes(wire::kExchangeRequestSize),
                            rng)
              .data);
    }
    // Peel the chain hop by hop, one pass (one Advance) per hop per round.
    for (size_t hop = 0; hop < kServers; ++hop) {
      crypto::SecretCache& cache = *caches[hop];
      const uint64_t misses_before = cache.GetStats().misses;
      cache.Advance();
      for (util::Bytes& layer : batch) {
        std::optional<crypto::UnwrappedLayer> cold =
            crypto::OnionUnwrapLayer(servers[hop].secret_key, round, layer);
        ASSERT_TRUE(cold.has_value());
        util::Bytes inner(layer.size() - crypto::kOnionRequestLayerOverhead);
        crypto::X25519PublicKey ephemeral;
        std::memcpy(ephemeral.data(), layer.data(), ephemeral.size());
        const crypto::AeadKey key =
            cache.Get(servers[hop].secret_key, ephemeral, crypto::OnionContext());
        ASSERT_TRUE(crypto::OnionOpenLayerInto(key, round, layer, inner));
        ASSERT_EQ(inner, cold->inner) << "round " << round << " hop " << hop;
        ASSERT_EQ(key, cold->response_key) << "round " << round << " hop " << hop;
        layer = std::move(inner);
      }
      crypto::SecretCache::Stats stats = cache.GetStats();
      // Static keys miss on their first pass only; each fresh key misses once.
      EXPECT_EQ(stats.misses - misses_before, kFreshPerPass + (round == 1 ? kStatic : 0))
          << "round " << round << " hop " << hop;
      // This pass's keys plus the previous pass's fresh ones.
      EXPECT_LE(stats.entries, kStatic + 2 * kFreshPerPass) << "round " << round;
      EXPECT_EQ(stats.evictions, 0u);
    }
  }
  for (const auto& cache : caches) {
    EXPECT_EQ(cache->GetStats().misses, kStatic + kFreshPerPass * kPasses);
  }
}

// A flood of forged fresh-key onions many times a small cache's size costs
// the flood its DH, but the pass caches a key only once its onion opened,
// so every static client's key is still resident after the flood. Were the
// flood's keys cached on lookup, they would evict the statics at the cap.
TEST(SecretCacheConformance, ForgedKeyFloodLeavesStaticKeysResident) {
  constexpr size_t kCap = 32;
  constexpr size_t kStatic = 16;
  constexpr size_t kForgedPerPass = 4 * kCap;
  constexpr size_t kBlock = crypto::SecretCache::kBlock;
  util::Xoshiro256Rng rng(93);
  const crypto::X25519KeyPair server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> statics(kStatic);
  for (auto& pk : statics) {
    rng.Fill(pk);
  }
  crypto::SecretCache cache(kCap);
  // Looks `pks` up block by block as MixServer::Peel does, and commits them
  // if their onions opened.
  auto present = [&](std::span<const crypto::X25519PublicKey> pks, bool opened) {
    for (size_t begin = 0; begin < pks.size(); begin += kBlock) {
      const size_t n = std::min(kBlock, pks.size() - begin);
      crypto::AeadKey keys[kBlock]{};
      crypto::SecretCache::Misses misses;
      cache.Lookup(server.secret_key, pks.subspan(begin, n), crypto::OnionContext(), {keys, n},
                   misses);
      uint8_t keep[kBlock]{};
      std::fill(keep, keep + n, opened ? 1 : 0);
      cache.Commit(misses, {keep, n});
    }
  };
  cache.Advance();
  present(statics, true);
  ASSERT_EQ(cache.GetStats().entries, kStatic);

  for (int pass = 0; pass < 3; ++pass) {
    cache.Advance();
    std::vector<crypto::X25519PublicKey> forged(kForgedPerPass);
    for (auto& pk : forged) {
      rng.Fill(pk);
    }
    const uint64_t misses_before = cache.GetStats().misses;
    present(forged, false);
    present(statics, true);
    crypto::SecretCache::Stats stats = cache.GetStats();
    EXPECT_EQ(stats.misses - misses_before, kForgedPerPass) << "pass " << pass;
    EXPECT_EQ(stats.entries, kStatic) << "pass " << pass;
    EXPECT_EQ(stats.evictions, 0u) << "pass " << pass;
  }
}

// A hop's forward pass leaves forged onions out of its cache: after passes
// that mix primed static clients with right-sized garbage, the cache holds
// the statics and nothing else, and the statics hit on every pass.
TEST(SecretCacheConformance, ForgedOnionsNeverEnterTheHopsCache) {
  constexpr size_t kStatic = 16;
  constexpr size_t kForged = 100;
  TestChain<MixServer> chain = MakeChain(/*seed=*/23, /*mu=*/0);
  MixServer& hop = *chain.servers[0];
  util::Xoshiro256Rng rng(94);
  std::vector<crypto::X25519KeyPair> clients;
  std::vector<crypto::X25519PublicKey> client_pks;
  for (size_t i = 0; i < kStatic; ++i) {
    clients.push_back(crypto::X25519KeyPair::Generate(rng));
    client_pks.push_back(clients.back().public_key);
  }
  hop.PrimeClientSecrets(client_pks);
  const size_t request_size = crypto::OnionRequestSize(wire::kExchangeRequestSize, kServers);

  for (uint64_t round = 1; round <= 3; ++round) {
    std::vector<util::Bytes> batch;
    for (const auto& kp : clients) {
      std::vector<crypto::X25519KeyPair> layer_keys(kServers, kp);
      batch.push_back(crypto::OnionWrapWithKeys(chain.public_keys, layer_keys, round,
                                                rng.RandomBytes(wire::kExchangeRequestSize))
                          .data);
    }
    for (size_t i = 0; i < kForged; ++i) {
      batch.push_back(rng.RandomBytes(request_size));
    }
    const uint64_t misses_before = hop.secret_cache().GetStats().misses;
    ServerRoundStats stats;
    hop.ForwardConversation(round, util::MutableViewsOf(batch), &stats);
    EXPECT_EQ(stats.requests_dropped, kForged) << "round " << round;
    EXPECT_EQ(hop.secret_cache().GetStats().misses - misses_before, kForged) << "round " << round;
    EXPECT_EQ(hop.secret_cache().GetStats().entries, kStatic) << "round " << round;
  }
}

// GetMany answers a run of keys exactly as Get answers them one by one:
// the same keys, hits, misses and entries, across a generation change and
// with keys repeated inside one call.
TEST(SecretCacheConformance, GetManyCountsLikeGetInOrder) {
  util::Xoshiro256Rng rng(61);
  const crypto::X25519KeyPair server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> pool(40);
  for (auto& pk : pool) {
    rng.Fill(pk);
  }
  crypto::SecretCache one_by_one;
  crypto::SecretCache batched;
  for (int pass = 0; pass < 3; ++pass) {
    one_by_one.Advance();
    batched.Advance();
    // 150 keys drawn from the pool: repeats within the call, keys of the
    // previous pass and new ones.
    std::vector<crypto::X25519PublicKey> pks(150);
    for (auto& pk : pks) {
      pk = pool[rng.UniformUint64(10 + 15 * pass)];
    }
    std::vector<crypto::AeadKey> keys(pks.size());
    batched.GetMany(server.secret_key, pks, crypto::OnionContext(), keys);
    for (size_t i = 0; i < pks.size(); ++i) {
      ASSERT_EQ(keys[i], one_by_one.Get(server.secret_key, pks[i], crypto::OnionContext()))
          << "pass " << pass << " key " << i;
    }
    crypto::SecretCache::Stats a = one_by_one.GetStats();
    crypto::SecretCache::Stats b = batched.GetStats();
    EXPECT_EQ(a.hits, b.hits) << "pass " << pass;
    EXPECT_EQ(a.misses, b.misses) << "pass " << pass;
    EXPECT_EQ(a.entries, b.entries) << "pass " << pass;
  }
}

// Client keys are attacker-chosen and reach the cache before their onion's
// tag is checked. 4,096 keys that agree on every byte a fixed-byte hash
// could read (the first eight and the last) must still spread over the
// shards and the buckets; under such a hash they would all share one shard
// mutex and one bucket chain, and each pass would go quadratic.
TEST(SecretCacheConformance, HostileKeysSpreadOverShardsAndBuckets) {
  constexpr size_t kKeys = 4096;
  constexpr size_t kShards = 16;
  util::Xoshiro256Rng rng(62);
  const crypto::X25519KeyPair server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> pks(kKeys);
  for (auto& pk : pks) {
    rng.Fill(pk);
    std::fill(pk.begin(), pk.begin() + 8, 0x5a);
    pk[31] = 0x10;
  }
  crypto::SecretCache cache;
  std::vector<crypto::AeadKey> keys(kKeys);
  cache.GetMany(server.secret_key, pks, crypto::OnionContext(), keys);
  ASSERT_EQ(cache.GetStats().entries, kKeys);

  crypto::SecretCache::Spread spread = cache.GetSpread();
  // 256 keys a shard on average; twice that means some shard went unused.
  EXPECT_LE(spread.max_shard_entries, 2 * kKeys / kShards);
  // Under one key per bucket on average, the longest chain stays short.
  EXPECT_LE(spread.max_bucket_entries, 12u);
}

// --- Batch DH ---------------------------------------------------------------

// The secret of a low-order point is all zero whatever the hop's key, so
// anyone can seal a layer every hop accepts: layer = point || AEAD under
// DeriveBoxKey(0). `inner` is the onion for the rest of the chain.
util::Bytes LowOrderLayer(const crypto::X25519PublicKey& point, uint64_t round,
                          util::ByteSpan inner) {
  const crypto::AeadKey key = crypto::DeriveBoxKey(crypto::X25519SharedSecret{},
                                                   crypto::OnionContext());
  util::Bytes sealed =
      crypto::AeadSeal(key, crypto::NonceFromUint64(round, /*request domain=*/1), {}, inner);
  util::Bytes layer(point.begin(), point.end());
  layer.insert(layer.end(), sealed.begin(), sealed.end());
  util::Bytes opened(inner.size());
  EXPECT_TRUE(crypto::OnionOpenLayerInto(key, round, layer, opened));
  return layer;
}

// One pass whose 64-onion blocks mix every key the batch DH meets: cached
// static keys, fresh ephemerals, low-order points (some repeated in a
// block), random garbage and missized items. A block's misses share 8-lane
// ladders, so a lane that gives zero or garbage must not reach its
// neighbours: every stage must equal the serial, uncached oracle.
TEST(BatchDhConformance, MixedKeysMatchOracle) {
  constexpr uint64_t kRound = 5;
  TestChain<MixServer> production = MakeChain(/*seed=*/41, /*mu=*/6);
  TestChain<ReferenceMixServer> oracle = MakeChain<ReferenceMixServer>(/*seed=*/41, /*mu=*/6);
  const std::vector<crypto::X25519PublicKey>& pks = production.public_keys;
  const std::vector<crypto::X25519PublicKey> suffix(pks.begin() + 1, pks.end());

  util::Xoshiro256Rng rng(43);
  std::vector<crypto::X25519KeyPair> statics;
  std::vector<crypto::X25519PublicKey> static_pks;
  for (int i = 0; i < 40; ++i) {
    statics.push_back(crypto::X25519KeyPair::Generate(rng));
    static_pks.push_back(statics.back().public_key);
  }
  production.servers[0]->PrimeClientSecrets(static_pks);

  crypto::X25519PublicKey order8;
  std::memcpy(order8.data(),
              util::HexDecode("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800")
                  .data(),
              order8.size());
  const std::vector<crypto::X25519PublicKey> low_order = {
      crypto::X25519PublicKey{}, crypto::X25519PublicKey{1}, order8};

  const size_t request_size = crypto::OnionRequestSize(wire::kExchangeRequestSize, kServers);
  std::vector<util::Bytes> batch;
  size_t next_static = 0;
  for (size_t i = 0; i < 200; ++i) {
    util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
    switch (i % 5) {
      case 0:
      case 1:
        if (next_static < statics.size()) {
          std::vector<crypto::X25519KeyPair> layer_keys(kServers, statics[next_static++]);
          batch.push_back(crypto::OnionWrapWithKeys(pks, layer_keys, kRound, payload).data);
          break;
        }
        [[fallthrough]];
      case 2:
        batch.push_back(crypto::OnionWrap(pks, kRound, payload, rng).data);
        break;
      case 3:
        batch.push_back(LowOrderLayer(low_order[(i / 5) % low_order.size()], kRound,
                                      crypto::OnionWrap(suffix, kRound, payload, rng).data));
        break;
      default:
        batch.push_back(rng.RandomBytes(i % 25 == 4 ? request_size - 1 : request_size));
        break;
    }
  }

  auto a = RunConversation(production, kRound, batch);
  auto b = RunConversation(oracle, kRound, std::move(batch));
  ExpectIdentical(a, b);
  // 40 garbage onions, 8 of them missized, are dropped; the low-order ones
  // pass.
  EXPECT_EQ(a.stats[0].requests_dropped, 40u);
  crypto::SecretCache::Stats stats = production.servers[0]->secret_cache().GetStats();
  // The primed statics hit, and so does every repeat of a low-order point
  // but the first in each of the four blocks.
  EXPECT_GE(stats.hits, 40u + 40u - 4u * low_order.size());
  EXPECT_GT(stats.misses, 40u);
}

// --- Precomputed-table DH vs the ladder --------------------------------------

TEST(PrecompConformance, Rfc7748VectorAndBasePoint) {
  // RFC 7748 §5.2 test vector 1.
  const crypto::X25519SecretKey scalar = {
      0xa5, 0x46, 0xe3, 0x6b, 0xf0, 0x52, 0x7c, 0x9d, 0x3b, 0x16, 0x15,
      0x4b, 0x82, 0x46, 0x5e, 0xdd, 0x62, 0x14, 0x4c, 0x0a, 0xc1, 0xfc,
      0x5a, 0x18, 0x50, 0x6a, 0x22, 0x44, 0xba, 0x44, 0x9a, 0xc4};
  const crypto::X25519PublicKey point = {
      0xe6, 0xdb, 0x68, 0x67, 0x58, 0x30, 0x30, 0xdb, 0x35, 0x94, 0xc1,
      0xa4, 0x24, 0xb1, 0x5f, 0x7c, 0x72, 0x66, 0x24, 0xec, 0x26, 0xb3,
      0x35, 0x3b, 0x10, 0xa9, 0x03, 0xa6, 0xd0, 0xab, 0x1c, 0x4c};
  auto table = crypto::X25519Precomp::Create(point);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->Mult(scalar), crypto::X25519(scalar, point));

  util::Xoshiro256Rng rng(1);
  for (int i = 0; i < 32; ++i) {
    crypto::X25519SecretKey sk;
    rng.Fill(sk);
    EXPECT_EQ(crypto::X25519BasePointFast(sk), crypto::X25519BasePoint(sk));
  }
}

TEST(PrecompConformance, RandomCurvePointsMatchLadderAndTwistFallsBack) {
  util::Xoshiro256Rng rng(2);
  size_t curve_points = 0;
  size_t twist_points = 0;
  // Honest public keys (sk·9) always lift; random u-coordinates land on the
  // twist about half the time and must return nullopt (callers fall back to
  // the ladder).
  for (int i = 0; i < 64; ++i) {
    auto kp = crypto::X25519KeyPair::Generate(rng);
    auto table = crypto::X25519Precomp::Create(kp.public_key);
    ASSERT_TRUE(table.has_value()) << "honest key failed to lift";
    for (int j = 0; j < 4; ++j) {
      crypto::X25519SecretKey sk;
      rng.Fill(sk);
      ASSERT_EQ(table->Mult(sk), crypto::X25519(sk, kp.public_key));
    }
  }
  for (int i = 0; i < 64; ++i) {
    crypto::X25519PublicKey u;
    rng.Fill(u);
    auto table = crypto::X25519Precomp::Create(u);
    if (!table.has_value()) {
      ++twist_points;
      continue;
    }
    ++curve_points;
    crypto::X25519SecretKey sk;
    rng.Fill(sk);
    EXPECT_EQ(table->Mult(sk), crypto::X25519(sk, u));
  }
  // Both populations must occur (probability of either being empty over 64
  // uniform points is ~2^-64).
  EXPECT_GT(curve_points, 0u);
  EXPECT_GT(twist_points, 0u);
}

// --- Cover-onion wrap: the lane comb and the ladder ---------------------------

// The comb kernels the wrapper can run: the portable one on every CPU, the
// IFMA one where the CPU has it.
std::vector<crypto::X25519CombKernel> CombKernels() {
  std::vector<crypto::X25519CombKernel> kernels = {crypto::internal::X25519CombLanesPortable};
#ifdef VUVUZELA_X25519_IFMA_KERNEL
  if (crypto::internal::CpuHasAvx512Ifma()) {
    kernels.push_back(crypto::internal::X25519CombLanesIfma);
  }
#endif
  return kernels;
}

// `n` cover onions for `suffix` by CoverOnionWrapper on every comb kernel,
// and by OnionWrapPrecompInto (or, where a suffix key does not lift,
// OnionWrapInto) one at a time under the same seeds: they must be
// byte-identical.
void ExpectCoverWrapMatchesOneByOne(const std::vector<crypto::X25519PublicKey>& suffix, size_t n,
                                    uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<crypto::ChaCha20Key> seeds(n);
  for (auto& s : seeds) {
    rng.Fill(s);
  }
  const size_t payload_size = wire::kExchangeRequestSize;
  const size_t onion_size = crypto::OnionRequestSize(payload_size, suffix.size());
  util::Bytes payloads = rng.RandomBytes(n * payload_size);
  const crypto::CoverOnionWrapper wrapper(suffix);

  std::vector<crypto::X25519Precomp> tables;
  for (const crypto::X25519PublicKey& pk : suffix) {
    if (auto table = crypto::X25519Precomp::Create(pk)) {
      tables.push_back(std::move(*table));
    }
  }
  util::Bytes expected(n * onion_size);
  for (size_t i = 0; i < n; ++i) {
    util::ByteSpan payload = util::ByteSpan(payloads).subspan(i * payload_size, payload_size);
    util::MutableByteSpan one = util::MutableByteSpan(expected).subspan(i * onion_size, onion_size);
    crypto::ChaChaRng one_rng(seeds[i]);
    if (tables.size() == suffix.size()) {
      crypto::OnionWrapPrecompInto(tables, 5, payload, one_rng, one);
    } else {
      crypto::OnionWrapInto(suffix, 5, payload, one_rng, one);
    }
  }
  for (crypto::X25519CombKernel kernel : CombKernels()) {
    util::Bytes batched(n * onion_size);
    wrapper.WrapInto(kernel, /*round=*/5, seeds, payloads, batched);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(util::Bytes(batched.begin() + i * onion_size,
                            batched.begin() + (i + 1) * onion_size),
                util::Bytes(expected.begin() + i * onion_size,
                            expected.begin() + (i + 1) * onion_size))
          << "onion " << i << " of " << n << ", " << suffix.size() << " layers, "
          << (kernel == crypto::internal::X25519CombLanesPortable ? "portable" : "IFMA")
          << " kernel";
    }
  }
  util::Bytes selected(n * onion_size);
  wrapper.WrapInto(/*round=*/5, seeds, payloads, selected);
  EXPECT_EQ(selected, expected) << n << " onions, " << suffix.size() << " layers";
}

std::vector<crypto::X25519PublicKey> HonestSuffix(size_t layers, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<crypto::X25519PublicKey> suffix;
  for (size_t i = 0; i < layers; ++i) {
    suffix.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
  }
  return suffix;
}

// Every kernel at counts that leave padded combs and short runs, for suffix
// lengths 1 and 2 (a hop 1 and a hop 0 of three) and 3.
TEST(CoverWrapConformance, EveryCombKernelMatchesOneByOneWraps) {
  for (size_t layers : {1u, 2u, 3u}) {
    const auto suffix = HonestSuffix(layers, 60 + layers);
    for (size_t n : {0u, 1u, 7u, 9u, 33u, 65u, 129u}) {
      ExpectCoverWrapMatchesOneByOne(suffix, n, 70 + n);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// A suffix key on the twist has no comb table: its layer's DHs take the
// ladder, the other layers the comb, and the bytes are the one-by-one ones.
TEST(CoverWrapConformance, TwistSuffixKeyMatchesLadderWraps) {
  util::Xoshiro256Rng rng(80);
  crypto::X25519PublicKey twist;
  do {
    rng.Fill(twist);
    twist[31] &= 0x7f;
  } while (crypto::X25519Precomp::Create(twist).has_value());
  const std::vector<crypto::X25519PublicKey> suffix = {HonestSuffix(1, 81)[0], twist};
  ExpectCoverWrapMatchesOneByOne(suffix, 9, 82);
}

// A suffix longer than a run of onions, and the last hop's empty suffix,
// take the one path too.
TEST(CoverWrapConformance, LongAndEmptySuffixesMatchOneByOneWraps) {
  ExpectCoverWrapMatchesOneByOne(HonestSuffix(crypto::CoverOnionWrapper::kRun + 1, 91), 3, 92);
  ExpectCoverWrapMatchesOneByOne({}, 5, 93);
}

TEST(CoverWrapConformance, RejectsSizesThatDoNotFit) {
  const crypto::CoverOnionWrapper wrapper(HonestSuffix(2, 92));
  std::vector<crypto::ChaCha20Key> seeds(3);
  util::Bytes payloads(3 * 10);
  util::Bytes out(3 * crypto::OnionRequestSize(10, 2));
  EXPECT_NO_THROW(wrapper.WrapInto(1, seeds, payloads, out));
  util::Bytes short_out(out.size() - 1);
  EXPECT_THROW(wrapper.WrapInto(1, seeds, payloads, short_out), std::invalid_argument);
  util::Bytes ragged(3 * 10 + 1);
  EXPECT_THROW(wrapper.WrapInto(1, seeds, ragged, out), std::invalid_argument);
}

// --- Zero-copy wire decode ---------------------------------------------------

TEST(ZeroCopyWire, DecodeMatchesCopyingDecode) {
  util::Xoshiro256Rng rng(3);
  std::vector<util::Bytes> items;
  for (int i = 0; i < 9; ++i) {
    items.push_back(rng.RandomBytes(100));
  }
  util::Bytes header = rng.RandomBytes(24);
  // Small chunk budget forces continuation frames, so the decode exercises
  // multi-chunk storage.
  auto frames = transport::EncodeBatchChunks(net::FrameType::kHopForwardConversation, 42, header,
                                             util::ViewsOf(items), /*max_chunk_payload=*/256);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 1u);

  // Consume(const Frame&) copies each frame before adopting it; the
  // receive paths move frames in. Both must decode the same message.
  transport::BatchAssembler copy_asm;
  transport::BatchAssembler move_asm;
  for (size_t i = 0; i < frames->size(); ++i) {
    net::Frame frame = (*frames)[i];
    auto expected = i + 1 == frames->size() ? transport::BatchAssembler::Status::kDone
                                            : transport::BatchAssembler::Status::kNeedMore;
    ASSERT_EQ(copy_asm.Consume(frame), expected);
    ASSERT_EQ(move_asm.Consume(std::move(frame)), expected);
  }
  transport::BatchMessage by_copy = copy_asm.Take();
  transport::BatchMessage by_view = move_asm.Take();

  EXPECT_EQ(by_copy.op, by_view.op);
  EXPECT_EQ(by_copy.round, by_view.round);
  EXPECT_EQ(by_copy.header, by_view.header);
  EXPECT_EQ(by_copy.wire_bytes, by_view.wire_bytes);
  EXPECT_EQ(by_copy.CopyItems(), items);
  ASSERT_EQ(by_view.items.size(), items.size());
  ASSERT_EQ(by_view.chunks.size(), frames->size());

  // Every item is a view into an adopted chunk, never a copy of its own.
  auto inside_a_chunk = [](const transport::BatchMessage& message, util::ByteSpan item) {
    for (const util::Bytes& chunk : message.chunks) {
      if (item.data() >= chunk.data() && item.data() + item.size() <= chunk.data() + chunk.size()) {
        return true;
      }
    }
    return false;
  };
  for (util::ByteSpan item : by_view.items) {
    EXPECT_TRUE(inside_a_chunk(by_view, item));
  }

  // Views must survive a move of the whole message (the daemon moves the
  // request around before running the pass).
  transport::BatchMessage moved = std::move(by_view);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(inside_a_chunk(moved, moved.items[i]));
    EXPECT_EQ(util::Bytes(moved.items[i].begin(), moved.items[i].end()), items[i]);
  }
}

}  // namespace
}  // namespace vuvuzela

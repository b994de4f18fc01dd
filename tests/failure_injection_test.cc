// Failure injection: adversarial and broken inputs pushed through the whole
// system. §2.3 allows clients to misbehave arbitrarily — servers must stay
// available and honest clients must stay correct and private.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <optional>
#include <thread>

#include "src/conversation/protocol.h"
#include "src/crypto/onion.h"
#include "src/crypto/sha256.h"
#include "src/dialing/protocol.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/obs/registry.h"
#include "src/sim/client_fleet.h"
#include "src/sim/workload.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::mixnet {
namespace {

using conversation::Session;

// A hop transport that sends each call once (no in-call re-send), connected
// now; nullptr if the hop is unreachable.
std::unique_ptr<transport::ReconnectingTransport> ConnectHop(
    const transport::TcpTransportConfig& config) {
  auto hop = std::make_unique<transport::ReconnectingTransport>(
      config, transport::ReconnectPolicy{.max_call_attempts = 1});
  return hop->Connect() ? std::move(hop) : nullptr;
}

ChainConfig Config(size_t servers, double mu = 2.0) {
  ChainConfig config;
  config.num_servers = servers;
  config.conversation_noise = {.params = {mu, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {mu, 1.0}, .deterministic = true};
  return config;
}

class FailureInjectionTest : public ::testing::Test {
 protected:
  util::Xoshiro256Rng rng_{4242};
  Chain chain_ = Chain::Create(Config(3), rng_);
  engine::RoundScheduler scheduler_{transport::MakeLocalTransports(chain_.servers())};
  crypto::X25519KeyPair alice_ = crypto::X25519KeyPair::Generate(rng_);
  crypto::X25519KeyPair bob_ = crypto::X25519KeyPair::Generate(rng_);

  util::Bytes WrapExchange(uint64_t round, const wire::ExchangeRequest& request) {
    return crypto::OnionWrap(chain_.public_keys(), round, request.Serialize(), rng_).data;
  }
};

TEST_F(FailureInjectionTest, AllGarbageRoundCompletes) {
  std::vector<util::Bytes> onions;
  for (int i = 0; i < 10; ++i) {
    onions.push_back(rng_.RandomBytes(416));
  }
  auto result = scheduler_.SubmitConversation(1, std::move(onions)).get();
  EXPECT_EQ(result.responses.size(), 10u);
  EXPECT_EQ(result.stats.forward[0].requests_dropped, 10u);
}

TEST_F(FailureInjectionTest, ZeroLengthAndOversizedOnions) {
  Session session = Session::Derive(alice_, bob_.public_key);
  auto good = WrapExchange(2, conversation::BuildExchangeRequest(session, 2, {}));
  std::vector<util::Bytes> onions;
  onions.push_back({});                      // empty
  onions.push_back(rng_.RandomBytes(10));    // far too short
  onions.push_back(rng_.RandomBytes(4096));  // far too long
  onions.push_back(good);
  auto result = scheduler_.SubmitConversation(2, std::move(onions)).get();
  ASSERT_EQ(result.responses.size(), 4u);
  // The honest request still echoes back correctly.
  auto keys = crypto::OnionWrap(chain_.public_keys(), 99, util::Bytes(1), rng_);
  (void)keys;
}

TEST_F(FailureInjectionTest, MissizedPayloadDroppedAtFirstHop) {
  // An onion whose every layer authenticates but whose payload is not an
  // ExchangeRequest's size. The size rule drops it at the first hop, so it
  // never crosses a shuffle with a size of its own; its sender still gets a
  // response slot of the right size.
  util::Bytes junk = rng_.RandomBytes(wire::kExchangeRequestSize - 5);
  auto onion = crypto::OnionWrap(chain_.public_keys(), 3, junk, rng_);
  auto result = scheduler_.SubmitConversation(3, {onion.data}).get();
  EXPECT_EQ(result.stats.forward.front().requests_dropped, 1u);
  for (size_t i = 1; i < result.stats.forward.size(); ++i) {
    EXPECT_EQ(result.stats.forward[i].requests_dropped, 0u) << "hop " << i;
  }
  ASSERT_EQ(result.responses.size(), 1u);
  EXPECT_EQ(result.responses[0].size(),
            crypto::OnionResponseSize(wire::kEnvelopeSize, chain_.size()));
}

TEST_F(FailureInjectionTest, ReplayedOnionWithinRoundHitsSameDropTwice) {
  // An adversary replaying Alice's onion in the same round creates a crowded
  // drop; Alice's exchange must still complete with one of the copies and
  // the server must not crash.
  Session alice_session = Session::Derive(alice_, bob_.public_key);
  Session bob_session = Session::Derive(bob_, alice_.public_key);
  auto alice_onion =
      WrapExchange(4, conversation::BuildExchangeRequest(alice_session, 4, {}));
  auto bob_onion = WrapExchange(4, conversation::BuildExchangeRequest(bob_session, 4, {}));

  auto result = scheduler_.SubmitConversation(4, {alice_onion, alice_onion, bob_onion}).get();
  EXPECT_EQ(result.responses.size(), 3u);
  EXPECT_EQ(result.histogram.crowded, 1u);  // 3 accesses on one drop
}

TEST_F(FailureInjectionTest, ReplayAcrossRoundsRejected) {
  // Round binding in the onion nonce: a request recorded in round 5 and
  // replayed in round 6 fails at the first hop.
  Session session = Session::Derive(alice_, bob_.public_key);
  auto onion = WrapExchange(5, conversation::BuildExchangeRequest(session, 5, {}));
  auto result5 = scheduler_.SubmitConversation(5, {onion}).get();
  EXPECT_EQ(result5.stats.forward[0].requests_dropped, 0u);

  auto result6 = scheduler_.SubmitConversation(6, {onion}).get();
  EXPECT_EQ(result6.stats.forward[0].requests_dropped, 1u);
}

TEST_F(FailureInjectionTest, AdversarialDialIndexesCannotFaultServer) {
  dialing::RoundConfig dial_config{.num_real_drops = 2};
  std::vector<util::Bytes> onions;
  for (uint32_t index : {0u, 1u, 2u, 3u, 1000000u, UINT32_MAX}) {
    wire::DialRequest request;
    request.dead_drop_index = index;  // includes far out-of-range values
    rng_.Fill(request.invitation);
    onions.push_back(
        crypto::OnionWrap(chain_.public_keys(), 7, request.Serialize(), rng_).data);
  }
  auto result = scheduler_.SubmitDialing(7, std::move(onions), dial_config.total_drops()).get();
  // All deposits landed (mod total_drops); none crashed the table.
  uint64_t total = 0;
  for (uint64_t size : result.table.DropSizes()) {
    total += size;
  }
  // 6 deposits + deterministic noise 2 per drop per server (3 drops × 3
  // servers... only servers add noise: 2 per drop per non-last × 2 + last).
  EXPECT_GE(total, 6u);
}

TEST_F(FailureInjectionTest, EmptyRoundStillProducesNoise) {
  // Even with zero clients connected, the servers exchange a full noise
  // round — the cover traffic does not depend on load (§6.4).
  auto result = scheduler_.SubmitConversation(8, {}).get();
  EXPECT_EQ(result.responses.size(), 0u);
  // Each non-last server adds 2 singles + 1 pair = 4 requests.
  EXPECT_EQ(result.stats.forward.back().requests_in, 8u);
  EXPECT_GT(result.histogram.singles + result.histogram.pairs, 0u);
}

TEST_F(FailureInjectionTest, MismatchedResponseCountThrows) {
  std::vector<util::Bytes> batch = {
      WrapExchange(9, conversation::BuildFakeExchangeRequest(alice_, 9, rng_))};
  util::InPlaceBatch out = chain_.server(0).ForwardConversation(9, util::MutableViewsOf(batch));
  std::vector<util::Bytes> bad(out.size() + 1, util::Bytes(16));
  EXPECT_THROW(chain_.server(0).BackwardConversation(9, util::ViewsOf(bad)),
               std::invalid_argument);
}

TEST_F(FailureInjectionTest, TamperedResponsesDegradeToGarbage) {
  // A malicious middle server that flips bits in responses cannot forge
  // plaintexts: the client sees undecryptable garbage, never corrupted text.
  Session alice_session = Session::Derive(alice_, bob_.public_key);
  Session bob_session = Session::Derive(bob_, alice_.public_key);
  util::Bytes text = {'s', 'e', 'c', 'r', 'e', 't'};
  auto alice_request = conversation::BuildExchangeRequest(alice_session, 10, text);
  auto alice_wrapped =
      crypto::OnionWrap(chain_.public_keys(), 10, alice_request.Serialize(), rng_);
  auto bob_request = conversation::BuildExchangeRequest(bob_session, 10, {});
  auto bob_wrapped =
      crypto::OnionWrap(chain_.public_keys(), 10, bob_request.Serialize(), rng_);

  auto result = scheduler_.SubmitConversation(10, {alice_wrapped.data, bob_wrapped.data}).get();

  // Untampered: Bob reads Alice's text.
  auto clean = crypto::OnionOpenResponse(bob_wrapped.layer_keys, 10, result.responses[1]);
  ASSERT_TRUE(clean.has_value());
  wire::Envelope envelope;
  ASSERT_EQ(clean->size(), envelope.size());
  std::copy(clean->begin(), clean->end(), envelope.begin());
  auto opened = conversation::OpenExchangeResponse(bob_session, 10, envelope);
  EXPECT_EQ(opened.kind, conversation::ResponseKind::kPartnerMessage);
  EXPECT_EQ(opened.text, text);

  // Tampered anywhere: the response fails authentication outright.
  util::Bytes tampered = result.responses[1];
  tampered[tampered.size() / 2] ^= 0x80;
  EXPECT_FALSE(crypto::OnionOpenResponse(bob_wrapped.layer_keys, 10, tampered).has_value());
}

TEST(FailureInjectionChains, TwoServerChainToleratesHalfGarbage) {
  util::Xoshiro256Rng rng(77);
  Chain chain = Chain::Create(Config(2, 3.0), rng);
  auto user = crypto::X25519KeyPair::Generate(rng);
  std::vector<util::Bytes> onions;
  for (int i = 0; i < 8; ++i) {
    if (i % 2 == 0) {
      auto request = conversation::BuildFakeExchangeRequest(user, 1, rng);
      onions.push_back(
          crypto::OnionWrap(chain.public_keys(), 1, request.Serialize(), rng).data);
    } else {
      onions.push_back(rng.RandomBytes(368));
    }
  }
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(1, std::move(onions)).get();
  EXPECT_EQ(result.responses.size(), 8u);
  EXPECT_EQ(result.stats.forward[0].requests_dropped, 4u);
}

// --- Exchange-partition failures --------------------------------------------
//
// A dead vuvuzela-exchanged shard server must cost exactly the rounds whose
// dead drops route to it: rounds confined to surviving shards keep
// completing, and the failure surfaces through the round future like a dead
// hop (the PR 2 accounting).

class ExchangePartitionFailure : public ::testing::Test {
 protected:
  // A 1-server chain (the last hop alone) with a 2-way partitioned exchange:
  // the first ID byte selects the shard (0x00.. → shard 0, 0x80.. → shard 1).
  void SetUp() override {
    config_.num_servers = 1;
    config_.conversation_noise = {.params = {1.0, 1.0}, .deterministic = true};
    config_.dialing_noise = {.params = {1.0, 1.0}, .deterministic = true};
    keys_ = transport::DeriveChainKeys(9, 1);
    server_ = mixnet::BuildMixServer(config_, keys_, 0);
  }

  util::Bytes Onion(uint64_t round, uint8_t id_first_byte) {
    wire::ExchangeRequest request;
    rng_.Fill(request.dead_drop);
    rng_.Fill(request.envelope);
    request.dead_drop[0] = id_first_byte;
    return crypto::OnionWrap(keys_.public_keys, round, request.Serialize(), rng_).data;
  }

  ChainConfig config_;
  mixnet::ChainKeyMaterial keys_;
  std::unique_ptr<MixServer> server_;
  util::Xoshiro256Rng rng_{515};
};

TEST_F(ExchangePartitionFailure, KilledPartitionAbandonsOnlyRoundsTouchingItsShard) {
  auto group = transport::StartExchangePartitions(2);
  ASSERT_NE(group, nullptr);
  auto router = transport::ExchangeRouter::Connect(group->fleet(/*recv_timeout_ms=*/500));
  ASSERT_NE(router, nullptr);
  server_->SetExchangeBackend(router.get());

  std::vector<std::unique_ptr<transport::HopTransport>> hops;
  hops.push_back(std::make_unique<transport::LocalTransport>(*server_));
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 1});

  // Round 1 spans both shards and completes.
  auto round1 = scheduler.SubmitConversation(1, {Onion(1, 0x00), Onion(1, 0xff)});
  EXPECT_EQ(round1.get().responses.size(), 2u);

  // Kill shard 0's server mid-deployment.
  group->Kill(0);

  // Rounds confined to shard 1 still complete...
  auto round2 = scheduler.SubmitConversation(2, {Onion(2, 0xff), Onion(2, 0xcc)});
  EXPECT_EQ(round2.get().responses.size(), 2u);

  // ...a round routing to the dead shard is abandoned (its future throws)...
  auto round3 = scheduler.SubmitConversation(3, {Onion(3, 0x00), Onion(3, 0xff)});
  EXPECT_THROW(round3.get(), transport::HopError);

  // ...and later shard-1-only rounds are unaffected by the earlier failure.
  auto round4 = scheduler.SubmitConversation(4, {Onion(4, 0x80)});
  EXPECT_EQ(round4.get().responses.size(), 1u);

  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().rounds_failed, 1u);
  EXPECT_EQ(scheduler.stats().conversation_rounds_completed, 3u);
}

TEST_F(ExchangePartitionFailure, BlackHolePartitionTimesOutMidRoundWhileOthersComplete) {
  // Shard 0 is a black hole — it accepts the slice and never answers — which
  // models a shard server dying *mid-round* rather than refusing connections.
  auto black_hole_listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(black_hole_listener.has_value());
  std::thread black_hole([&] {
    while (auto conn = black_hole_listener->Accept()) {
      while (conn->RecvFrame()) {
      }
    }
  });
  transport::ExchangedConfig shard1_config;
  shard1_config.shard_index = 1;
  shard1_config.num_shards = 2;
  auto shard1 = transport::ExchangedDaemon::Create(shard1_config);
  ASSERT_NE(shard1, nullptr);
  std::thread shard1_thread([&] { shard1->Serve(); });

  transport::ShardFleetConfig router_config;
  router_config.shards = {{"127.0.0.1", black_hole_listener->port()},
                              {"127.0.0.1", shard1->port()}};
  router_config.recv_timeout_ms = 300;
  auto router = transport::ExchangeRouter::Connect(router_config);
  ASSERT_NE(router, nullptr);
  server_->SetExchangeBackend(router.get());

  std::vector<std::unique_ptr<transport::HopTransport>> hops;
  hops.push_back(std::make_unique<transport::LocalTransport>(*server_));
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 2});

  // Two rounds in flight: round 1 touches the black hole, round 2 does not.
  auto round1 = scheduler.SubmitConversation(1, {Onion(1, 0x00), Onion(1, 0xff)});
  auto round2 = scheduler.SubmitConversation(2, {Onion(2, 0xff)});
  EXPECT_THROW(round1.get(), transport::HopTimeoutError);
  EXPECT_EQ(round2.get().responses.size(), 1u);

  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().rounds_failed, 1u);
  EXPECT_EQ(scheduler.stats().conversation_rounds_completed, 1u);

  black_hole_listener->Shutdown();
  black_hole.join();
  shard1->Stop();
  shard1_thread.join();
}

// --- Crash recovery ----------------------------------------------------------
//
// The fault-tolerant round lifecycle: a hop (or exchange shard) killed and
// restarted mid-schedule must cost latency, never messages — recovered
// rounds' outputs byte-identical to an uninterrupted run — and a hop that
// never comes back must still degrade to the old bounded-abandonment
// behavior. Idempotent hop replay (the daemons' reply cache) is what makes
// post-reconnect re-sends safe; it gets its own direct test.

class CrashRecovery : public ::testing::Test {
 protected:
  static mixnet::ChainConfig RecoveryChainConfig() {
    mixnet::ChainConfig config;
    config.num_servers = 3;
    config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
    config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
    return config;
  }

  static transport::CoordDaemonConfig CoordConfig(const transport::LoopbackChain& chain,
                                                  uint64_t total_rounds) {
    transport::CoordDaemonConfig config;
    config.hops = chain.endpoints();
    config.scheduler.max_in_flight = 3;
    config.schedule.conversation_rounds_per_dialing_round = 10;
    config.total_rounds = total_rounds;
    config.admission_window_seconds = 1.0;  // closes once every client submitted
    config.hop_timeout_ms = 2000;
    config.connect_timeout_ms = 500;
    config.num_clients = kUsers;
    // Generous budget so a ~200 ms outage can never exhaust it; the
    // never-returns test pins the bounded end of the spectrum.
    config.max_round_attempts = 8;
    config.reconnect.max_call_attempts = 3;
    config.reconnect.backoff_initial_ms = 20;
    config.reconnect.backoff_max_ms = 100;
    return config;
  }

  // What a run leaves behind: the coordinator's accounting and what every
  // client received.
  struct Outcome {
    transport::CoordDaemonResult coord;
    sim::ClientFleetResult fleet;
  };

  // Runs the started coordinator's schedule beside a kUsers-client fleet at
  // its front door. `during` runs on the calling thread while the schedule
  // is in progress (failure injection).
  static Outcome RunWithFleet(transport::CoordinatorDaemon& coordinator,
                              const std::function<void()>& during = {}) {
    sim::ClientFleetConfig fleet_config;
    fleet_config.coordinator.port = coordinator.client_port();
    fleet_config.chain = transport::DeriveChainKeys(kRecoverySeed, 3).public_keys;
    fleet_config.users = kUsers;
    fleet_config.seed = 77;
    auto fleet = std::async(std::launch::async, sim::RunClientFleet, fleet_config);
    Outcome outcome;
    std::thread runner([&] { outcome.coord = coordinator.Run(); });
    if (during) {
      during();
    }
    runner.join();
    std::optional<sim::ClientFleetResult> fleet_result = fleet.get();
    EXPECT_TRUE(fleet_result.has_value());
    if (fleet_result) {
      outcome.fleet = std::move(*fleet_result);
    }
    return outcome;
  }

  // Byte-identity, client by client and round by round: recovery left no
  // fingerprint in what any client received. Admission order is arrival
  // order, so batch slots are not comparable across runs; clients are.
  static void ExpectSameResponses(const Outcome& run, const Outcome& reference) {
    ASSERT_EQ(run.fleet.responses.size(), kUsers);
    ASSERT_EQ(reference.fleet.responses.size(), kUsers);
    for (size_t client = 0; client < kUsers; ++client) {
      const auto& expected = reference.fleet.responses[client];
      const auto& got = run.fleet.responses[client];
      EXPECT_EQ(expected.size(), reference.coord.conversation_rounds_completed)
          << "client " << client;
      ASSERT_EQ(got.size(), expected.size()) << "client " << client;
      for (const auto& [round, response] : expected) {
        auto it = got.find(round);
        ASSERT_NE(it, got.end()) << "missing: client " << client << " round " << round;
        EXPECT_EQ(it->second, response) << "diverged: client " << client << " round " << round;
      }
    }
  }

  // Uninterrupted reference: same seed, same schedule, no failures. An
  // empty result (reported via ADD_FAILURE) means the deployment could not
  // start — callers' equality assertions then fail cleanly.
  static Outcome ReferenceRun(uint64_t total_rounds, size_t exchange_partitions = 0) {
    std::unique_ptr<transport::ExchangePartitionGroup> group;
    transport::ShardFleetConfig exchange;
    if (exchange_partitions > 0) {
      group = transport::StartExchangePartitions(exchange_partitions);
      if (group == nullptr) {
        ADD_FAILURE() << "reference exchange partitions failed to start";
        return {};
      }
      exchange = group->fleet();
    }
    auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed,
                                                 transport::kDefaultChunkPayload, exchange);
    if (chain == nullptr) {
      ADD_FAILURE() << "reference chain failed to start";
      return {};
    }
    transport::CoordinatorDaemon coordinator(CoordConfig(*chain, total_rounds));
    if (!coordinator.Start()) {
      ADD_FAILURE() << "reference coordinator failed to start";
      return {};
    }
    return RunWithFleet(coordinator);
  }

  static constexpr uint64_t kRecoverySeed = 0xfa117;
  static constexpr size_t kUsers = 8;
};

// Idempotent hop replay, directly: the same forward pass sent twice (the
// coordinator cannot know whether a lost connection ate the reply or the
// request) returns byte-identical bytes from the daemon's cache without
// running the mix twice, and the round's backward pass still works after.
TEST_F(CrashRecovery, ReplayedForwardPassIsServedOnceAndByteIdentical) {
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);
  transport::TcpTransportConfig transport_config;
  transport_config.port = chain->port(0);
  auto hop = ConnectHop(transport_config);
  ASSERT_NE(hop, nullptr);

  util::Xoshiro256Rng rng(7);
  auto keys = transport::DeriveChainKeys(kRecoverySeed, 3);
  std::vector<util::Bytes> batch;
  for (int i = 0; i < 4; ++i) {
    wire::ExchangeRequest request;
    rng.Fill(request.dead_drop);
    rng.Fill(request.envelope);
    batch.push_back(crypto::OnionWrap(keys.public_keys, 1, request.Serialize(), rng).data);
  }

  auto first = hop->ForwardConversation(1, batch, nullptr);
  EXPECT_EQ(chain->daemon(0)->replay_hits(), 0u);
  auto replayed = hop->ForwardConversation(1, batch, nullptr);
  EXPECT_EQ(chain->daemon(0)->replay_hits(), 1u);
  EXPECT_EQ(first, replayed);

  // The replay did not consume the round state: the backward pass works, and
  // replaying *it* (state-consuming at the server!) is also idempotent.
  size_t response_size = wire::kEnvelopeSize + crypto::kOnionResponseLayerOverhead;
  std::vector<util::Bytes> responses;
  for (size_t i = 0; i < first.size(); ++i) {
    responses.push_back(rng.RandomBytes(response_size));
  }
  auto back1 = hop->BackwardConversation(1, responses, nullptr);
  auto back2 = hop->BackwardConversation(1, responses, nullptr);
  EXPECT_EQ(chain->daemon(0)->replay_hits(), 2u);
  EXPECT_EQ(back1, back2);
  EXPECT_EQ(back1.size(), batch.size());

  // Different input under a replayed round/op is NOT served from the cache:
  // the daemon reprocesses (and here fails, because the state was consumed).
  std::vector<util::Bytes> tampered = responses;
  tampered[0][0] ^= 1;
  EXPECT_THROW(hop->BackwardConversation(1, tampered, nullptr), transport::HopRemoteError);
}

// The lost-reply case proper: the coordinator's connection dies after the hop
// served a pass, and the same pass arrives again on a new connection. The
// replay slot outlives the connection and answers the re-send. A pass older
// than the last one is no longer held; re-sending it recomputes the pass,
// which is byte-identical anyway because passes are pure functions of
// (seed, round, batch).
TEST_F(CrashRecovery, PassResentOnNewConnectionIsReplayed) {
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);
  transport::TcpTransportConfig transport_config;
  transport_config.port = chain->port(0);
  const transport::HopDaemon& daemon = *chain->daemon(0);

  util::Xoshiro256Rng rng(8);
  auto keys = transport::DeriveChainKeys(kRecoverySeed, 3);
  auto make_batch = [&](uint64_t round) {
    std::vector<util::Bytes> batch;
    for (int i = 0; i < 4; ++i) {
      wire::ExchangeRequest request;
      rng.Fill(request.dead_drop);
      rng.Fill(request.envelope);
      batch.push_back(crypto::OnionWrap(keys.public_keys, round, request.Serialize(), rng).data);
    }
    return batch;
  };
  std::vector<util::Bytes> batch = make_batch(1);

  auto hop = ConnectHop(transport_config);
  ASSERT_NE(hop, nullptr);
  auto forward = hop->ForwardConversation(1, batch, nullptr);
  hop = ConnectHop(transport_config);  // the old connection is gone
  ASSERT_NE(hop, nullptr);
  auto forward_again = hop->ForwardConversation(1, batch, nullptr);
  EXPECT_EQ(daemon.replay_hits(), 1u);
  EXPECT_EQ(forward, forward_again);

  size_t response_size = wire::kEnvelopeSize + crypto::kOnionResponseLayerOverhead;
  std::vector<util::Bytes> responses;
  for (size_t i = 0; i < forward.size(); ++i) {
    responses.push_back(rng.RandomBytes(response_size));
  }
  auto backward = hop->BackwardConversation(1, responses, nullptr);
  hop = ConnectHop(transport_config);
  ASSERT_NE(hop, nullptr);
  auto backward_again = hop->BackwardConversation(1, responses, nullptr);
  EXPECT_EQ(daemon.replay_hits(), 2u);
  EXPECT_EQ(backward, backward_again);
  EXPECT_EQ(daemon.replay_entries(), 1u);

  // Round 2 displaces round 1's reply; round 1's forward pass, sent again,
  // runs again and reproduces its bytes.
  hop->ForwardConversation(2, make_batch(2), nullptr);
  EXPECT_EQ(hop->ForwardConversation(1, batch, nullptr), forward);
  EXPECT_EQ(daemon.replay_hits(), 2u);
}

// The replay slot is released by the first frame of a request for another
// pass, before the rest of that request arrives, so a hop never holds its
// last reply next to the whole next request. The first frame of a re-send of
// the same pass keeps it, and the re-send is answered from it.
TEST_F(CrashRecovery, ReplySlotReleasedOnFirstFrameOfAnotherPass) {
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);
  const transport::HopDaemon& daemon = *chain->daemon(0);
  // The daemon keeps a reply just after sending it, on its own thread: poll
  // for the slot's state.
  auto await_entries = [&](size_t entries) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon.replay_entries() != entries && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(daemon.replay_entries(), entries);
  };
  util::Xoshiro256Rng rng(9);
  auto keys = transport::DeriveChainKeys(kRecoverySeed, 3);
  std::vector<util::Bytes> batch;
  for (int i = 0; i < 4; ++i) {
    wire::ExchangeRequest request;
    rng.Fill(request.dead_drop);
    rng.Fill(request.envelope);
    batch.push_back(crypto::OnionWrap(keys.public_keys, 1, request.Serialize(), rng).data);
  }
  std::vector<util::Bytes> forward;
  {
    transport::TcpTransportConfig transport_config;
    transport_config.port = chain->port(0);
    auto hop = ConnectHop(transport_config);
    ASSERT_NE(hop, nullptr);
    forward = hop->ForwardConversation(1, batch, nullptr);
  }
  await_entries(1);

  auto conn = net::TcpConnection::Connect("127.0.0.1", chain->port(0));
  ASSERT_TRUE(conn.has_value());
  // Sends `frames` with a pause after the first, runs `after_first` in it,
  // and returns the hop's reply.
  auto call = [&](const std::vector<net::Frame>& frames, const std::function<void()>& after_first) {
    EXPECT_GT(frames.size(), 1u);
    EXPECT_TRUE(conn->SendFrame(frames[0]));
    after_first();
    for (size_t i = 1; i < frames.size(); ++i) {
      EXPECT_TRUE(conn->SendFrame(frames[i]));
    }
    auto first = conn->RecvFrame();
    EXPECT_TRUE(first.has_value());
    auto reply = transport::ReadBatchMessage(*conn, std::move(*first));
    EXPECT_TRUE(reply.has_value());
    return std::move(*reply);
  };
  constexpr size_t kChunk = 1024;  // two or three onions a chunk

  // The same pass again: its first frame leaves the slot alone.
  auto resend = transport::EncodeBatchChunks(net::FrameType::kHopForwardConversation, 1,
                                             util::Bytes(16, 0), util::ViewsOf(batch), kChunk);
  ASSERT_TRUE(resend.has_value());
  transport::BatchMessage replayed = call(*resend, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(daemon.replay_entries(), 1u);
  });
  EXPECT_EQ(replayed.CopyItems(), forward);
  EXPECT_EQ(daemon.replay_hits(), 1u);

  // Another pass: the slot is empty before the request is complete.
  std::vector<util::Bytes> responses;
  for (size_t i = 0; i < forward.size(); ++i) {
    responses.push_back(rng.RandomBytes(wire::kEnvelopeSize + crypto::kOnionResponseLayerOverhead));
  }
  auto backward = transport::EncodeBatchChunks(net::FrameType::kHopBackwardConversation, 1, {},
                                               util::ViewsOf(responses), kChunk);
  ASSERT_TRUE(backward.has_value());
  transport::BatchMessage reply = call(*backward, [&] { await_entries(0); });
  EXPECT_EQ(reply.op, net::FrameType::kHopBackwardConversation);
  EXPECT_EQ(reply.items.size(), batch.size());
  await_entries(1);
}

// Every request that fits in one chunk arrives as one frame, so releasing the
// slot on a first frame that has been received whole would still hold the
// last reply next to the whole next request. The slot is released once the
// header of another pass's frame has arrived, before its payload is
// allocated: here the hop sees the header and half the payload, and must
// have let the reply go before the rest is sent.
TEST_F(CrashRecovery, ReplySlotReleasedOnHeaderOfAnotherPass) {
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);
  const transport::HopDaemon& daemon = *chain->daemon(0);
  auto await_entries = [&](size_t entries) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon.replay_entries() != entries && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(daemon.replay_entries(), entries);
  };
  util::Xoshiro256Rng rng(10);
  auto keys = transport::DeriveChainKeys(kRecoverySeed, 3);
  std::vector<util::Bytes> batch;
  for (int i = 0; i < 4; ++i) {
    wire::ExchangeRequest request;
    rng.Fill(request.dead_drop);
    rng.Fill(request.envelope);
    batch.push_back(crypto::OnionWrap(keys.public_keys, 1, request.Serialize(), rng).data);
  }
  std::vector<util::Bytes> forward;
  {
    transport::TcpTransportConfig transport_config;
    transport_config.port = chain->port(0);
    auto hop = ConnectHop(transport_config);
    ASSERT_NE(hop, nullptr);
    forward = hop->ForwardConversation(1, batch, nullptr);
  }
  await_entries(1);

  // The backward pass as one frame, on the wire: [u32 length][header][payload].
  std::vector<util::Bytes> responses;
  for (size_t i = 0; i < forward.size(); ++i) {
    responses.push_back(rng.RandomBytes(wire::kEnvelopeSize + crypto::kOnionResponseLayerOverhead));
  }
  auto frames = transport::EncodeBatchChunks(net::FrameType::kHopBackwardConversation, 1, {},
                                             util::ViewsOf(responses));
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 1u);
  util::Bytes encoded = net::EncodeFrame((*frames)[0]);
  util::Bytes wire_bytes(4);
  util::StoreBe32(wire_bytes.data(), static_cast<uint32_t>(encoded.size()));
  util::Append(wire_bytes, encoded);
  const size_t half = 4 + net::kFrameHeaderBytes + (*frames)[0].payload.size() / 2;

  auto conn = net::TcpConnection::Connect("127.0.0.1", chain->port(0));
  ASSERT_TRUE(conn.has_value());
  const int fd = conn->ReleaseFd();
  net::TcpConnection reader(fd);  // owns the descriptor from here on
  auto send_all = [&](util::ByteSpan bytes) {
    while (!bytes.empty()) {
      ssize_t sent = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ASSERT_GT(sent, 0);
      bytes = bytes.subspan(static_cast<size_t>(sent));
    }
  };
  send_all(util::ByteSpan(wire_bytes).first(half));
  await_entries(0);
  send_all(util::ByteSpan(wire_bytes).subspan(half));

  auto first = reader.RecvFrame();
  ASSERT_TRUE(first.has_value());
  auto reply = transport::ReadBatchMessage(reader, std::move(*first));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->op, net::FrameType::kHopBackwardConversation);
  EXPECT_EQ(reply->items.size(), batch.size());
  await_entries(1);
}

// The last hop peels its request and seals each response inside the chunks
// it received, so its replay slot keeps those chunks. The coordinator's
// connection dies after the reply was sent, and the same pass arrives again
// on a new connection: it is served from the slot, byte-identical to the
// first reply and to an in-process hop's, and the slot holds the request's
// chunks plus the pass's own batch — here the response slot of the one
// missized request — and the reply header, nothing more.
TEST_F(CrashRecovery, LastHopPassPeeledInPlaceIsReplayed) {
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);
  transport::TcpTransportConfig transport_config;
  transport_config.port = chain->port(2);
  const transport::HopDaemon& daemon = *chain->daemon(2);

  util::Xoshiro256Rng rng(10);
  auto keys = transport::DeriveChainKeys(kRecoverySeed, 3);
  std::span<const crypto::X25519PublicKey> last_only =
      std::span<const crypto::X25519PublicKey>(keys.public_keys).last(1);
  std::vector<util::Bytes> batch;
  wire::ExchangeRequest pair_first;
  for (int i = 0; i < 5; ++i) {
    wire::ExchangeRequest request;
    rng.Fill(request.dead_drop);
    rng.Fill(request.envelope);
    if (i == 0) {
      pair_first = request;
    } else if (i == 3) {
      request.dead_drop = pair_first.dead_drop;  // requests 0 and 3 meet
    }
    batch.push_back(crypto::OnionWrap(last_only, 1, request.Serialize(), rng).data);
  }
  batch.push_back(rng.RandomBytes(100));  // missized: dropped, its slot is the hop's own

  auto hop = ConnectHop(transport_config);
  ASSERT_NE(hop, nullptr);
  mixnet::ServerRoundStats stats;
  auto first = hop->ProcessConversationLastHop(1, batch, &stats);
  EXPECT_EQ(stats.requests_dropped, 1u);
  EXPECT_EQ(first.messages_exchanged, 2u);
  hop = ConnectHop(transport_config);  // the old connection is gone
  ASSERT_NE(hop, nullptr);
  auto again = hop->ProcessConversationLastHop(1, batch, nullptr);
  EXPECT_EQ(daemon.replay_hits(), 1u);
  EXPECT_EQ(again.responses, first.responses);
  EXPECT_EQ(again.messages_exchanged, first.messages_exchanged);

  std::unique_ptr<mixnet::MixServer> in_process =
      mixnet::BuildMixServer(RecoveryChainConfig(), keys, 2);
  transport::LocalTransport local(*in_process);
  EXPECT_EQ(local.ProcessConversationLastHop(1, batch, nullptr).responses, first.responses);

  auto request_chunks =
      transport::EncodeBatchChunks(net::FrameType::kHopLastConversation, 1, {},
                                   util::ViewsOf(batch), transport::kDefaultChunkPayload);
  ASSERT_TRUE(request_chunks.has_value());
  size_t chunk_bytes = 0;
  for (const net::Frame& chunk : *request_chunks) {
    chunk_bytes += chunk.payload.size();
  }
  wire::Writer reply_header;
  transport::WriteStats(reply_header, {});
  transport::WriteHistogram(reply_header, {}, 0);
  const size_t owned = wire::kEnvelopeSize + crypto::kOnionResponseLayerOverhead;
  EXPECT_EQ(daemon.replay_entries(), 1u);
  EXPECT_EQ(obs::Registry::Global()
                .GetGauge("vuvuzela_hop_replay_bytes", "Bytes held in the replay slot")
                ->Value(),
            static_cast<int64_t>(reply_header.Take().size() + chunk_bytes + owned));
}

// The replay slot holds one reply per hop however many rounds the hop has
// served: more pipelined rounds than the 64 replies a per-round cache used to
// keep, dialing rounds mixed in, and the last hop (which never receives the
// piggybacked expiry horizon) included.
TEST_F(CrashRecovery, ReplaySlotHoldsOneReplyAcrossPipelinedRounds) {
  constexpr uint64_t kRounds = 72;
  constexpr uint64_t kUsers = 4;
  constexpr uint32_t kDialDrops = 2;
  auto group = transport::StartExchangePartitions(2);
  ASSERT_NE(group, nullptr);
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed,
                                               transport::kDefaultChunkPayload,
                                               group->fleet());
  ASSERT_NE(chain, nullptr);
  auto transports = chain->ConnectTransports();
  ASSERT_EQ(transports.size(), chain->size());
  auto keys = transport::DeriveChainKeys(kRecoverySeed, chain->size());
  engine::RoundScheduler scheduler(std::move(transports), {.max_in_flight = 3});

  auto most_held = [&] {
    size_t held = 0;
    for (size_t hop = 0; hop < chain->size(); ++hop) {
      held = std::max(held, chain->daemon(hop)->replay_entries());
    }
    return held;
  };
  std::vector<std::future<Chain::ConversationResult>> conversations;
  std::vector<std::future<Chain::DialingResult>> dials;
  size_t held = 0;
  for (uint64_t i = 0; i < kRounds; ++i) {
    sim::WorkloadConfig workload{
        .num_users = kUsers, .pairing_fraction = 1.0, .seed = 500 + i};
    if (i % 4 == 3) {
      uint64_t round = coord::kDialingRoundBase + dials.size() + 1;
      dialing::RoundConfig dial_config{.num_real_drops = kDialDrops - 1};
      dials.push_back(scheduler.SubmitDialing(
          round,
          sim::GenerateDialingWorkload(workload, keys.public_keys, round, dial_config, 0.5),
          kDialDrops));
    } else {
      uint64_t round = conversations.size() + 1;
      conversations.push_back(scheduler.SubmitConversation(
          round, sim::GenerateConversationWorkload(workload, keys.public_keys, round)));
    }
    held = std::max(held, most_held());
  }
  scheduler.Drain();
  for (auto& conversation : conversations) {
    EXPECT_EQ(conversation.get().responses.size(), kUsers);
  }
  for (auto& dial : dials) {
    EXPECT_EQ(dial.get().table.num_drops(), kDialDrops);
  }
  // A hop stores each reply just after sending it, so a sample may also
  // catch the empty slot; it may never see more than one reply.
  held = std::max(held, most_held());
  EXPECT_LE(held, 1u);
  for (size_t hop = 0; hop < chain->size(); ++hop) {
    EXPECT_EQ(chain->daemon(hop)->replay_hits(), 0u) << "hop " << hop;
  }
}

// A hop killed and restarted mid-schedule: zero lost onions, zero abandoned
// rounds, and every client's response in every round byte-identical to the
// uninterrupted reference run.
TEST_F(CrashRecovery, HopdKilledAndRestartedMidScheduleIsLossless) {
  constexpr uint64_t kRounds = 60;
  Outcome reference = ReferenceRun(kRounds);
  ASSERT_EQ(reference.coord.rounds_abandoned, 0u);

  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);
  transport::CoordDaemonConfig config = CoordConfig(*chain, kRounds);
  // A short in-call reconnect window (~2 × 50 ms) against a long outage
  // forces failures through the round-level re-submission path instead of
  // being silently bridged inside one RPC.
  config.reconnect.max_call_attempts = 2;
  config.reconnect.backoff_max_ms = 50;
  transport::CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());

  // Kill the middle hop once the schedule is visibly moving, hold it down
  // long enough that in-call reconnects alone cannot bridge the gap (the
  // round-level re-submission path must engage), then restart it.
  Outcome run = RunWithFleet(coordinator, [&] {
    while (coordinator.lifecycle().counters().completed < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    chain->Kill(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    EXPECT_TRUE(chain->Restart(1));
  });
  const transport::CoordDaemonResult& result = run.coord;

  EXPECT_EQ(result.rounds_abandoned, 0u);
  EXPECT_GT(result.rounds_retried, 0u);  // recovery actually engaged
  EXPECT_EQ(result.conversation_rounds_completed, reference.coord.conversation_rounds_completed);
  EXPECT_EQ(result.dialing_rounds_completed, reference.coord.dialing_rounds_completed);
  EXPECT_EQ(result.messages_exchanged, reference.coord.messages_exchanged);
  ExpectSameResponses(run, reference);
}

// Same discipline for an exchange shard server: vuvuzela-exchanged is
// stateless across rounds, so kill + restart costs only the rounds in
// flight on it — which the coordinator re-submits.
TEST_F(CrashRecovery, ExchangedKilledAndRestartedMidScheduleIsLossless) {
  constexpr uint64_t kRounds = 30;
  constexpr size_t kPartitions = 2;
  Outcome reference = ReferenceRun(kRounds, kPartitions);
  ASSERT_EQ(reference.coord.rounds_abandoned, 0u);

  auto group = transport::StartExchangePartitions(kPartitions);
  ASSERT_NE(group, nullptr);
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed,
                                               transport::kDefaultChunkPayload,
                                               group->fleet());
  ASSERT_NE(chain, nullptr);
  transport::CoordinatorDaemon coordinator(CoordConfig(*chain, kRounds));
  ASSERT_TRUE(coordinator.Start());

  Outcome run = RunWithFleet(coordinator, [&] {
    while (coordinator.lifecycle().counters().completed < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    group->Kill(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_TRUE(group->Restart(0));
  });
  const transport::CoordDaemonResult& result = run.coord;

  EXPECT_EQ(result.rounds_abandoned, 0u);
  EXPECT_EQ(result.conversation_rounds_completed, reference.coord.conversation_rounds_completed);
  EXPECT_EQ(result.messages_exchanged, reference.coord.messages_exchanged);
  ExpectSameResponses(run, reference);
}

// The bounded end of the spectrum: a hop that never comes back exhausts the
// per-round retry budget and the deployment degrades to the pre-recovery
// accounting — every round abandoned, the coordinator terminates.
TEST_F(CrashRecovery, HopThatNeverReturnsDegradesToBoundedAbandonment) {
  constexpr uint64_t kRounds = 4;
  auto chain = transport::LoopbackChain::Start(RecoveryChainConfig(), kRecoverySeed);
  ASSERT_NE(chain, nullptr);

  transport::CoordDaemonConfig config = CoordConfig(*chain, kRounds);
  config.hop_timeout_ms = 200;
  config.max_round_attempts = 2;  // one retry each, then abandon
  transport::CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  chain->Kill(1);  // dies before any round and never restarts

  transport::CoordDaemonResult result = RunWithFleet(coordinator).coord;
  EXPECT_EQ(result.rounds_abandoned, kRounds);
  EXPECT_EQ(result.conversation_rounds_completed, 0u);
  EXPECT_EQ(result.rounds_retried, kRounds * 1u);
  EXPECT_EQ(coordinator.lifecycle().counters().abandoned, kRounds);
}

// --- Noise-plan determinism across crash/restart (adversarial privacy
// suite). The ε/δ accounting assumes every server adds its planned cover
// traffic every round — including rounds served by a hop that was killed and
// rebuilt from the key ceremony. The noise-sensitive observables of a
// conversation round are the access histogram (user pairs plus every
// server's singles/pairs plan) and the exchange count; digesting them per
// round gives a noise-plan fingerprint two runs can be compared by.
// Both noise backends are pinned: deterministic plans (⌈µ⌉, §8.1) and
// sampled plans, whose per-round RNG derivation from the ceremony seed must
// make a restarted hop redraw the identical plan.
TEST_F(CrashRecovery, RestartedHopReproducesNoisePlanDigest) {
  constexpr uint64_t kRounds = 6;
  constexpr uint64_t kCrashAfter = 3;
  constexpr uint64_t kUsers = 8;

  for (bool deterministic : {true, false}) {
    SCOPED_TRACE(deterministic ? "deterministic" : "sampled");
    mixnet::ChainConfig chain_config = RecoveryChainConfig();
    chain_config.conversation_noise = {.params = {6.0, 2.0}, .deterministic = deterministic};
    chain_config.dialing_noise = {.params = {6.0, 2.0}, .deterministic = deterministic};

    auto keys = transport::DeriveChainKeys(kRecoverySeed, chain_config.num_servers);
    std::vector<std::vector<util::Bytes>> batches(kRounds + 1);
    for (uint64_t round = 1; round <= kRounds; ++round) {
      sim::WorkloadConfig workload{
          .num_users = kUsers, .pairing_fraction = 1.0, .seed = 300 + round};
      batches[round] = sim::GenerateConversationWorkload(workload, keys.public_keys, round);
    }

    // Runs rounds [from, to] over fresh transports (a restarted hop's old
    // connection is gone, as after a real crash) and appends each round's
    // noise-sensitive observables to the digest.
    auto run_rounds = [&](transport::LoopbackChain& chain, uint64_t from, uint64_t to,
                          crypto::Sha256& digest,
                          std::vector<std::vector<util::Bytes>>& responses) {
      auto transports = chain.ConnectTransports();
      ASSERT_EQ(transports.size(), chain_config.num_servers);
      engine::RoundScheduler scheduler(std::move(transports), {.max_in_flight = 1});
      for (uint64_t round = from; round <= to; ++round) {
        Chain::ConversationResult result =
            scheduler.SubmitConversation(round, batches[round]).get();
        uint64_t observables[4] = {round, result.histogram.singles, result.histogram.pairs,
                                   result.messages_exchanged};
        digest.Update(util::ByteSpan(reinterpret_cast<const uint8_t*>(observables),
                                     sizeof observables));
        responses.push_back(std::move(result.responses));
      }
      scheduler.Drain();
    };

    // Uninterrupted reference.
    auto reference_chain = transport::LoopbackChain::Start(chain_config, kRecoverySeed);
    ASSERT_NE(reference_chain, nullptr);
    crypto::Sha256 reference_digest;
    std::vector<std::vector<util::Bytes>> reference_responses;
    run_rounds(*reference_chain, 1, kRounds, reference_digest, reference_responses);

    // Same deployment, middle hop killed and rebuilt mid-schedule.
    auto chain = transport::LoopbackChain::Start(chain_config, kRecoverySeed);
    ASSERT_NE(chain, nullptr);
    crypto::Sha256 crashed_digest;
    std::vector<std::vector<util::Bytes>> crashed_responses;
    run_rounds(*chain, 1, kCrashAfter, crashed_digest, crashed_responses);
    chain->Kill(1);
    ASSERT_TRUE(chain->Restart(1));
    run_rounds(*chain, kCrashAfter + 1, kRounds, crashed_digest, crashed_responses);

    EXPECT_EQ(reference_digest.Finish(), crashed_digest.Finish());
    EXPECT_EQ(reference_responses, crashed_responses);
  }
}

}  // namespace
}  // namespace vuvuzela::mixnet

// Simulation-harness tests: workload generator properties, cost model
// sanity, and deployment edge cases (offline clients, round-state hygiene).

#include <gtest/gtest.h>

#include <set>

#include "src/conversation/protocol.h"
#include "src/crypto/onion.h"
#include "src/engine/round_scheduler.h"
#include "src/sim/cost_model.h"
#include "src/sim/deployment.h"
#include "src/sim/workload.h"
#include "src/transport/hop_chain.h"

namespace vuvuzela::sim {
namespace {

std::vector<crypto::X25519PublicKey> TestChain(size_t n, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<crypto::X25519PublicKey> chain;
  for (size_t i = 0; i < n; ++i) {
    chain.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
  }
  return chain;
}

TEST(Workload, GeneratesOnePerUser) {
  auto chain = TestChain(3, 1);
  WorkloadConfig config{.num_users = 100, .pairing_fraction = 1.0, .seed = 7};
  auto onions = GenerateConversationWorkload(config, chain, 1);
  EXPECT_EQ(onions.size(), 100u);
  size_t expected = crypto::OnionRequestSize(wire::kExchangeRequestSize, 3);
  for (const auto& onion : onions) {
    EXPECT_EQ(onion.size(), expected);
  }
}

TEST(Workload, DeterministicForSeed) {
  auto chain = TestChain(2, 2);
  WorkloadConfig config{.num_users = 20, .pairing_fraction = 0.5, .seed = 9};
  auto a = GenerateConversationWorkload(config, chain, 1);
  auto b = GenerateConversationWorkload(config, chain, 1);
  EXPECT_EQ(a, b);
  config.seed = 10;
  auto c = GenerateConversationWorkload(config, chain, 1);
  EXPECT_NE(a, c);
}

TEST(Workload, PairedUsersShareDeadDrops) {
  // Run the generated workload through a real chain and check the histogram:
  // with pairing_fraction=1, every two users meet in one drop.
  util::Xoshiro256Rng rng(11);
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = 2;
  chain_config.conversation_noise = {.params = {0.0, 1.0}, .deterministic = true};
  mixnet::Chain chain = mixnet::Chain::Create(chain_config, rng);

  WorkloadConfig config{.num_users = 40, .pairing_fraction = 1.0, .seed = 13};
  auto onions = GenerateConversationWorkload(config, chain.public_keys(), 1);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(1, std::move(onions)).get();
  EXPECT_EQ(result.histogram.pairs, 20u);
  EXPECT_EQ(result.histogram.singles, 0u);
  EXPECT_EQ(result.messages_exchanged, 40u);
}

TEST(Workload, IdleUsersGetUniqueDrops) {
  util::Xoshiro256Rng rng(12);
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = 2;
  chain_config.conversation_noise = {.params = {0.0, 1.0}, .deterministic = true};
  mixnet::Chain chain = mixnet::Chain::Create(chain_config, rng);

  WorkloadConfig config{.num_users = 50, .pairing_fraction = 0.0, .seed = 17};
  auto onions = GenerateConversationWorkload(config, chain.public_keys(), 1);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(1, std::move(onions)).get();
  EXPECT_EQ(result.histogram.singles, 50u);
  EXPECT_EQ(result.histogram.pairs, 0u);
}

TEST(Workload, DialingFractionRespected) {
  util::Xoshiro256Rng rng(14);
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = 2;
  chain_config.dialing_noise = {.params = {0.0, 1.0}, .deterministic = true};
  mixnet::Chain chain = mixnet::Chain::Create(chain_config, rng);

  dialing::RoundConfig dial_config{.num_real_drops = 4};
  WorkloadConfig config{.num_users = 100, .pairing_fraction = 1.0, .seed = 19};
  auto onions = GenerateDialingWorkload(config, chain.public_keys(), 1, dial_config, 0.25);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitDialing(1, std::move(onions), dial_config.total_drops()).get();

  auto sizes = result.table.DropSizes();
  uint64_t real = 0;
  for (uint32_t d = 0; d < dial_config.num_real_drops; ++d) {
    real += sizes[d];
  }
  EXPECT_EQ(real, 25u);  // 25% of 100 users dialed
  EXPECT_EQ(sizes[dial_config.noop_index()], 75u);
}

TEST(CostModel, MeasuredConstantsArePositive) {
  CostModel model = CostModel::Measure(512);
  EXPECT_GT(model.seconds_per_unwrap, 0.0);
  EXPECT_GT(model.seconds_per_noise_layer_wrap, 0.0);
  EXPECT_GT(model.seconds_per_response_seal, 0.0);
  // Loose floor: sanitizer builds on a saturated CI machine still clear it,
  // while a broken measurement (zero/negative rate) cannot.
  EXPECT_GT(model.dh_ops_per_sec, 50.0);
  // Response sealing is symmetric crypto only: far cheaper than a DH unwrap.
  EXPECT_LT(model.seconds_per_response_seal, model.seconds_per_unwrap);
}

TEST(CostModel, LatencyMonotoneInUsersAndNoise) {
  CostModel model = CostModel::Measure(512);
  double l1 = model.ConversationRoundLatency(10, 3, 300000);
  double l2 = model.ConversationRoundLatency(1000000, 3, 300000);
  double l3 = model.ConversationRoundLatency(2000000, 3, 300000);
  EXPECT_LT(l1, l2);
  EXPECT_LT(l2, l3);
  EXPECT_LT(model.ConversationRoundLatency(1000000, 3, 100000), l2);
}

TEST(CostModel, LatencySuperlinearInServers) {
  CostModel model = CostModel::Measure(512);
  double s1 = model.ConversationRoundLatency(1000000, 1, 300000);
  double s3 = model.ConversationRoundLatency(1000000, 3, 300000);
  double s6 = model.ConversationRoundLatency(1000000, 6, 300000);
  // Quadratic-ish: the 6-server/3-server ratio exceeds the linear ratio 2.
  EXPECT_GT(s6 / s3, 2.0);
  EXPECT_GT(s3, s1);
}

TEST(CostModel, LowerBoundBelowFullLatency) {
  CostModel model = CostModel::Measure(512);
  double bound = model.ConversationCryptoLowerBound(2000000, 3, 300000);
  double full = model.ConversationRoundLatency(2000000, 3, 300000);
  EXPECT_LT(bound, full);
  // §8.2: the full protocol is within 2x of the crypto lower bound.
  EXPECT_LT(full / bound, 2.5);
}

TEST(CostModel, PipelinedThroughputExceedsSequential) {
  CostModel model = CostModel::Measure(512);
  double latency = model.ConversationRoundLatency(1000000, 3, 300000);
  double sequential = 1000000.0 / latency;
  double pipelined = model.ConversationPipelinedThroughput(1000000, 3, 300000);
  EXPECT_GT(pipelined, sequential);
}

TEST(Deployment, OfflineClientMissesRoundThenRecovers) {
  DeploymentConfig config;
  config.num_servers = 2;
  config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.seed = 31;
  Deployment dep(config);
  size_t alice = dep.AddClient();
  size_t bob = dep.AddClient();

  dep.client(alice).Dial(dep.client(bob).public_key());
  dep.RunDialingRound();
  dep.client(bob).AcceptCall(dep.client(bob).TakeIncomingCalls()[0].caller);

  util::Bytes payload = {'x'};
  dep.client(alice).SendMessage(dep.client(bob).public_key(), payload);

  // Bob is offline for the round carrying the message.
  dep.SetClientOnline(bob, false);
  dep.RunConversationRound();
  EXPECT_TRUE(dep.client(bob).TakeReceivedMessages().empty());

  // Back online: the retransmission layer redelivers.
  dep.SetClientOnline(bob, true);
  bool delivered = false;
  for (int r = 0; r < 6 && !delivered; ++r) {
    dep.RunConversationRound();
    for (auto& m : dep.client(bob).TakeReceivedMessages()) {
      EXPECT_EQ(m.payload, payload);
      delivered = true;
    }
  }
  EXPECT_TRUE(delivered);
}

TEST(Deployment, OfflineDialerQueuesDial) {
  DeploymentConfig config;
  config.num_servers = 2;
  config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.seed = 37;
  Deployment dep(config);
  size_t alice = dep.AddClient();
  size_t bob = dep.AddClient();

  dep.client(alice).Dial(dep.client(bob).public_key());
  dep.SetClientOnline(alice, false);
  dep.RunDialingRound();
  EXPECT_TRUE(dep.client(bob).TakeIncomingCalls().empty());

  dep.SetClientOnline(alice, true);
  dep.RunDialingRound();
  EXPECT_EQ(dep.client(bob).TakeIncomingCalls().size(), 1u);
}

TEST(Deployment, RoundCountersAdvance) {
  DeploymentConfig config;
  config.num_servers = 1;
  config.conversation_noise = {.params = {1.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {1.0, 1.0}, .deterministic = true};
  Deployment dep(config);
  dep.AddClient();
  dep.RunConversationRound();
  dep.RunConversationRound();
  dep.RunDialingRound();
  EXPECT_EQ(dep.conversation_rounds_run(), 2u);
  EXPECT_EQ(dep.dialing_rounds_run(), 1u);
}

TEST(MixServerHygiene, ExpireRoundsDropsAbandonedState) {
  util::Xoshiro256Rng rng(41);
  mixnet::ChainConfig config;
  config.num_servers = 2;
  config.conversation_noise = {.params = {1.0, 1.0}, .deterministic = true};
  mixnet::Chain chain = mixnet::Chain::Create(config, rng);

  // Forward three rounds without ever running the return pass (a downstream
  // DoS, §2.3).
  for (uint64_t round = 1; round <= 3; ++round) {
    auto user = crypto::X25519KeyPair::Generate(rng);
    auto request = conversation::BuildFakeExchangeRequest(user, round, rng);
    std::vector<util::Bytes> batch = {
        crypto::OnionWrap(chain.public_keys(), round, request.Serialize(), rng).data};
    chain.server(0).ForwardConversation(round, util::MutableViewsOf(batch));
  }
  EXPECT_EQ(chain.server(0).pending_rounds(), 3u);

  chain.server(0).ExpireRounds(/*newest_round=*/3, /*keep=*/1);
  EXPECT_EQ(chain.server(0).pending_rounds(), 2u);  // rounds 2 and 3 kept
  EXPECT_THROW(chain.server(0).BackwardConversation(1, {}),
               std::logic_error);
}

}  // namespace
}  // namespace vuvuzela::sim

// Cross-round pipelining (§8.3: "Clients can pipeline conversation messages,
// sending a new message every round even before receiving responses from
// previous rounds"). Servers hold per-round state; these tests interleave
// several in-flight rounds and verify complete isolation.

#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <mutex>

#include "src/conversation/protocol.h"
#include "src/crypto/onion.h"
#include "src/dialing/protocol.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::mixnet {
namespace {

using conversation::Session;

struct PreparedRound {
  uint64_t round;
  crypto::WrappedOnion alice_onion;
  crypto::WrappedOnion bob_onion;
  util::Bytes alice_text;
};

class PipeliningTest : public ::testing::Test {
 protected:
  PipeliningTest() {
    ChainConfig config;
    config.num_servers = 3;
    config.conversation_noise = {.params = {3.0, 1.0}, .deterministic = true};
    chain_ = std::make_unique<Chain>(Chain::Create(config, rng_));
    alice_ = crypto::X25519KeyPair::Generate(rng_);
    bob_ = crypto::X25519KeyPair::Generate(rng_);
    alice_session_ = Session::Derive(alice_, bob_.public_key);
    bob_session_ = Session::Derive(bob_, alice_.public_key);
  }

  PreparedRound Prepare(uint64_t round) {
    PreparedRound prep;
    prep.round = round;
    prep.alice_text = {static_cast<uint8_t>('a' + round % 26)};
    auto alice_request =
        conversation::BuildExchangeRequest(alice_session_, round, prep.alice_text);
    auto bob_request = conversation::BuildExchangeRequest(bob_session_, round, {});
    prep.alice_onion =
        crypto::OnionWrap(chain_->public_keys(), round, alice_request.Serialize(), rng_);
    prep.bob_onion =
        crypto::OnionWrap(chain_->public_keys(), round, bob_request.Serialize(), rng_);
    return prep;
  }

  // Verifies Bob received Alice's text for this round's responses.
  void CheckDelivery(const PreparedRound& prep, const std::vector<util::Bytes>& responses) {
    auto inner =
        crypto::OnionOpenResponse(prep.bob_onion.layer_keys, prep.round, responses[1]);
    ASSERT_TRUE(inner.has_value()) << "round " << prep.round;
    wire::Envelope envelope;
    ASSERT_EQ(inner->size(), envelope.size());
    std::copy(inner->begin(), inner->end(), envelope.begin());
    auto opened = conversation::OpenExchangeResponse(bob_session_, prep.round, envelope);
    EXPECT_EQ(opened.kind, conversation::ResponseKind::kPartnerMessage);
    EXPECT_EQ(opened.text, prep.alice_text);
  }

  util::Xoshiro256Rng rng_{31415};
  std::unique_ptr<Chain> chain_;
  crypto::X25519KeyPair alice_, bob_;
  Session alice_session_, bob_session_;
};

TEST_F(PipeliningTest, ThreeRoundsInFlightAtServerLevel) {
  // Drive the servers by hand: forward rounds 1..3 through the whole chain
  // before running any return pass, then return them out of order.
  std::vector<PreparedRound> preps;
  std::vector<std::vector<util::Bytes>> last_hop_responses(4);
  for (uint64_t round = 1; round <= 3; ++round) {
    preps.push_back(Prepare(round));
    std::vector<util::Bytes> onions = {preps.back().alice_onion.data,
                                       preps.back().bob_onion.data};
    // Each pass peels the one before it in place: its views point into
    // `onions` and the earlier passes' cover onions.
    util::InPlaceBatch first =
        chain_->server(0).ForwardConversation(round, util::MutableViewsOf(onions));
    util::InPlaceBatch second = chain_->server(1).ForwardConversation(round, first.items);
    auto result = chain_->server(2).ProcessConversationLastHop(round, second.items);
    last_hop_responses[round] = result.responses.ToVectors();
  }
  EXPECT_EQ(chain_->server(0).pending_rounds(), 3u);

  // Return passes in order 2, 1, 3 — per-round state must not interfere.
  for (uint64_t round : {2u, 1u, 3u}) {
    util::Batch responses = chain_->server(1).BackwardConversation(
        round, util::ViewsOf(last_hop_responses[round]));
    responses = chain_->server(0).BackwardConversation(round, responses.Views());
    CheckDelivery(preps[round - 1], responses.ToVectors());
  }
  EXPECT_EQ(chain_->server(0).pending_rounds(), 0u);
}

TEST_F(PipeliningTest, ManySequentialRoundsNoStateLeak) {
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain_->servers()),
                                   {.max_in_flight = 1});
  for (uint64_t round = 1; round <= 12; ++round) {
    PreparedRound prep = Prepare(round);
    auto result =
        scheduler.SubmitConversation(round, {prep.alice_onion.data, prep.bob_onion.data}).get();
    CheckDelivery(prep, result.responses);
  }
  EXPECT_EQ(chain_->server(0).pending_rounds(), 0u);
  EXPECT_EQ(chain_->server(1).pending_rounds(), 0u);
}

TEST_F(PipeliningTest, DialingInterleavedWithConversations) {
  // A dialing round between two in-flight conversation rounds must not
  // disturb either (disjoint round-number spaces).
  PreparedRound conv = Prepare(5);
  std::vector<util::Bytes> onions = {conv.alice_onion.data, conv.bob_onion.data};
  util::InPlaceBatch batch = chain_->server(0).ForwardConversation(5, util::MutableViewsOf(onions));

  // Dialing round through the same servers while round 5 is in flight.
  dialing::RoundConfig dial_config{.num_real_drops = 1};
  wire::DialRequest dial =
      dialing::BuildDialRequest(dial_config, alice_.public_key, bob_.public_key, rng_);
  uint64_t dial_round = 1ULL << 63;
  std::vector<util::Bytes> dial_onions = {
      crypto::OnionWrap(chain_->public_keys(), dial_round, dial.Serialize(), rng_).data};
  util::InPlaceBatch dial_first = chain_->server(0).ForwardDialing(
      dial_round, util::MutableViewsOf(dial_onions), dial_config.total_drops());
  util::InPlaceBatch dial_second = chain_->server(1).ForwardDialing(
      dial_round, dial_first.items, dial_config.total_drops());
  auto table = chain_->server(2).ProcessDialingLastHop(dial_round, dial_second.items,
                                                       dial_config.total_drops());
  auto callers = dialing::ScanInvitations(bob_, table.Drop(0));
  ASSERT_EQ(callers.size(), 1u);

  // Now finish conversation round 5.
  util::InPlaceBatch second = chain_->server(1).ForwardConversation(5, batch.items);
  auto result = chain_->server(2).ProcessConversationLastHop(5, second.items);
  std::vector<util::Bytes> last_responses = result.responses.ToVectors();
  util::Batch responses =
      chain_->server(1).BackwardConversation(5, util::ViewsOf(last_responses));
  responses = chain_->server(0).BackwardConversation(5, responses.Views());
  CheckDelivery(conv, responses.ToVectors());
}

// Blocks every round at server 0's forward pass until released, forcing a
// deterministic number of rounds to pile up inside the scheduler.
class GateObserver : public ChainObserver {
 public:
  void OnForwardPass(size_t position, uint64_t, const std::vector<util::Bytes>&,
                     const std::vector<util::Bytes>&) override {
    if (position != 0) {
      return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return permits_ > 0; });
    --permits_;
  }

  void Release(size_t count) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      permits_ += count;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t permits_ = 0;
};

TEST_F(PipeliningTest, SchedulerKeepsKRoundsInFlight) {
  GateObserver gate;
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain_->servers()),
                                   {.max_in_flight = 3}, &gate);

  std::vector<PreparedRound> preps;
  std::vector<std::future<Chain::ConversationResult>> futures;
  for (uint64_t round = 1; round <= 3; ++round) {
    preps.push_back(Prepare(round));
    futures.push_back(scheduler.SubmitConversation(
        round, {preps.back().alice_onion.data, preps.back().bob_onion.data}));
  }
  // All three rounds were admitted without blocking; none can pass server 0
  // until the gate opens, so the pipeline is provably holding K rounds.
  EXPECT_EQ(scheduler.in_flight(), 3u);

  gate.Release(100);
  scheduler.Drain();

  EXPECT_EQ(scheduler.stats().max_observed_in_flight, 3u);
  for (size_t i = 0; i < futures.size(); ++i) {
    Chain::ConversationResult result = futures[i].get();
    CheckDelivery(preps[i], result.responses);
  }
  EXPECT_EQ(chain_->server(0).pending_rounds(), 0u);
  EXPECT_EQ(chain_->server(1).pending_rounds(), 0u);
}

TEST_F(PipeliningTest, SchedulerPreservesPerRoundIsolationAcrossManyRounds) {
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain_->servers()),
                                   {.max_in_flight = 4});
  std::vector<PreparedRound> preps;
  std::vector<std::future<Chain::ConversationResult>> futures;
  for (uint64_t round = 1; round <= 16; ++round) {
    preps.push_back(Prepare(round));
    futures.push_back(scheduler.SubmitConversation(
        round, {preps.back().alice_onion.data, preps.back().bob_onion.data}));
  }
  scheduler.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    Chain::ConversationResult result = futures[i].get();
    CheckDelivery(preps[i], result.responses);
    EXPECT_GE(result.messages_exchanged, 2u) << "round " << preps[i].round;
  }
  auto stats = scheduler.stats();
  EXPECT_EQ(stats.conversation_rounds_completed, 16u);
  EXPECT_EQ(stats.rounds_failed, 0u);
  EXPECT_EQ(chain_->server(0).pending_rounds(), 0u);
  EXPECT_EQ(chain_->server(1).pending_rounds(), 0u);
}

TEST_F(PipeliningTest, SchedulerInterleavesDialingWithConversations) {
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain_->servers()),
                                   {.max_in_flight = 3});

  PreparedRound conv = Prepare(7);
  auto conv_future = scheduler.SubmitConversation(
      7, {conv.alice_onion.data, conv.bob_onion.data});

  dialing::RoundConfig dial_config{.num_real_drops = 1};
  wire::DialRequest dial =
      dialing::BuildDialRequest(dial_config, alice_.public_key, bob_.public_key, rng_);
  uint64_t dial_round = coord::kDialingRoundBase;
  auto dial_onion = crypto::OnionWrap(chain_->public_keys(), dial_round, dial.Serialize(), rng_);
  auto dial_future =
      scheduler.SubmitDialing(dial_round, {dial_onion.data}, dial_config.total_drops());

  Chain::DialingResult dial_result = dial_future.get();
  auto callers = dialing::ScanInvitations(bob_, dial_result.table.Drop(0));
  ASSERT_EQ(callers.size(), 1u);

  CheckDelivery(conv, conv_future.get().responses);
  EXPECT_EQ(scheduler.stats().dialing_rounds_completed, 1u);
}

}  // namespace
}  // namespace vuvuzela::mixnet

// The explicit per-round state machine (engine::RoundLifecycle): transition
// validation, retry accounting, and the scheduler driving the pipeline
// phases in order.

#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>
#include <vector>

#include "src/conversation/protocol.h"
#include "src/engine/round_lifecycle.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::engine {
namespace {

TEST(RoundLifecycle, ConversationRoundWalksThePipelinePhases) {
  std::vector<RoundPhase> seen;
  RoundLifecycle lifecycle([&](const RoundStatus& status) { seen.push_back(status.phase); });

  lifecycle.Announce(1, wire::RoundType::kConversation);
  lifecycle.BeginAttempt(1, wire::RoundType::kConversation);
  lifecycle.EnterForward(1, 0);
  lifecycle.EnterForward(1, 1);
  lifecycle.EnterExchange(1);
  lifecycle.EnterBackward(1, 1);
  lifecycle.EnterBackward(1, 0);
  lifecycle.Complete(1);

  std::vector<RoundPhase> expected = {
      RoundPhase::kAnnounced, RoundPhase::kSubmitting, RoundPhase::kForward,
      RoundPhase::kForward,   RoundPhase::kExchange,   RoundPhase::kBackward,
      RoundPhase::kBackward,  RoundPhase::kComplete,
  };
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(lifecycle.counters().announced, 1u);
  EXPECT_EQ(lifecycle.counters().completed, 1u);
  EXPECT_EQ(lifecycle.live_rounds(), 0u);  // terminal rounds are dropped
  EXPECT_FALSE(lifecycle.Status(1).has_value());
}

TEST(RoundLifecycle, DialingRoundCompletesOffTheExchange) {
  RoundLifecycle lifecycle;
  lifecycle.BeginAttempt(coord::kDialingRoundBase, wire::RoundType::kDialing);
  lifecycle.EnterForward(coord::kDialingRoundBase, 0);
  lifecycle.EnterExchange(coord::kDialingRoundBase);
  lifecycle.Complete(coord::kDialingRoundBase);
  EXPECT_EQ(lifecycle.counters().completed, 1u);
}

TEST(RoundLifecycle, SingleHopChainEntersExchangeStraightFromSubmission) {
  RoundLifecycle lifecycle;
  lifecycle.BeginAttempt(5, wire::RoundType::kConversation);
  lifecycle.EnterExchange(5);
  lifecycle.Complete(5);
  EXPECT_EQ(lifecycle.counters().completed, 1u);
}

TEST(RoundLifecycle, InvalidTransitionsThrow) {
  RoundLifecycle lifecycle;
  lifecycle.Announce(1, wire::RoundType::kConversation);
  // Straight to a pipeline phase without submission.
  EXPECT_THROW(lifecycle.EnterForward(1, 0), std::logic_error);
  EXPECT_THROW(lifecycle.Complete(1), std::logic_error);
  // Duplicate announcement of a live round.
  EXPECT_THROW(lifecycle.Announce(1, wire::RoundType::kConversation), std::logic_error);
  // Unknown rounds are rejected loudly.
  EXPECT_THROW(lifecycle.EnterExchange(99), std::logic_error);
  // Backward must descend, forward must advance.
  lifecycle.BeginAttempt(1, wire::RoundType::kConversation);
  lifecycle.EnterForward(1, 0);
  EXPECT_THROW(lifecycle.EnterForward(1, 0), std::logic_error);
  lifecycle.EnterExchange(1);
  lifecycle.EnterBackward(1, 1);
  EXPECT_THROW(lifecycle.EnterBackward(1, 1), std::logic_error);
  // Terminal states accept nothing further.
  lifecycle.Abandon(1, "test");
  EXPECT_THROW(lifecycle.Complete(1), std::logic_error);
  EXPECT_EQ(lifecycle.counters().abandoned, 1u);
}

TEST(RoundLifecycle, RetryingResumesWithIncrementedAttempt) {
  RoundLifecycle lifecycle;
  lifecycle.Announce(7, wire::RoundType::kConversation);
  lifecycle.BeginAttempt(7, wire::RoundType::kConversation);
  lifecycle.EnterForward(7, 0);
  lifecycle.Retrying(7, "hop died");

  auto status = lifecycle.Status(7);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->phase, RoundPhase::kRetrying);
  EXPECT_EQ(status->attempt, 1u);
  EXPECT_EQ(status->last_error, "hop died");

  // Re-submission: same round, attempt ticks, retry counter ticks.
  lifecycle.BeginAttempt(7, wire::RoundType::kConversation);
  status = lifecycle.Status(7);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->phase, RoundPhase::kSubmitting);
  EXPECT_EQ(status->attempt, 2u);
  EXPECT_EQ(lifecycle.counters().retries, 1u);

  // Exhausted budget: Abandoned is terminal.
  lifecycle.EnterForward(7, 0);
  lifecycle.Abandon(7, "hop never came back");
  EXPECT_EQ(lifecycle.counters().abandoned, 1u);
  EXPECT_EQ(lifecycle.live_rounds(), 0u);
  // A live round cannot be re-submitted without a failure in between.
  lifecycle.BeginAttempt(8, wire::RoundType::kConversation);
  EXPECT_THROW(lifecycle.BeginAttempt(8, wire::RoundType::kConversation), std::logic_error);
}

// The scheduler drives the shared lifecycle through the real pipeline: every
// round must walk Submitting → Forward(0..n-2) → Exchange → Backward(n-2..0)
// → Complete, per-round, whatever the cross-round interleaving.
TEST(RoundLifecycle, SchedulerDrivesPhasesInOrder) {
  util::Xoshiro256Rng rng(99);
  mixnet::ChainConfig config;
  config.num_servers = 3;
  config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  mixnet::Chain chain = mixnet::Chain::Create(config, rng);

  std::mutex mutex;
  std::map<uint64_t, std::vector<RoundStatus>> transitions;
  RoundLifecycle lifecycle([&](const RoundStatus& status) {
    std::lock_guard<std::mutex> lock(mutex);
    transitions[status.round].push_back(status);
  });

  auto user = crypto::X25519KeyPair::Generate(rng);
  {
    SchedulerConfig scheduler_config;
    scheduler_config.max_in_flight = 3;
    scheduler_config.lifecycle = &lifecycle;
    RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()),
                             scheduler_config);
    for (uint64_t round = 1; round <= 5; ++round) {
      auto request = conversation::BuildFakeExchangeRequest(user, round, rng);
      scheduler.SubmitConversation(
          round, {crypto::OnionWrap(chain.public_keys(), round, request.Serialize(), rng).data});
    }
    scheduler.Drain();
  }

  EXPECT_EQ(lifecycle.counters().completed, 5u);
  EXPECT_EQ(lifecycle.counters().abandoned, 0u);
  for (uint64_t round = 1; round <= 5; ++round) {
    const auto& seen = transitions[round];
    std::vector<RoundPhase> phases;
    for (const auto& status : seen) {
      phases.push_back(status.phase);
    }
    std::vector<RoundPhase> expected = {
        RoundPhase::kSubmitting, RoundPhase::kForward,  RoundPhase::kForward,
        RoundPhase::kExchange,   RoundPhase::kBackward, RoundPhase::kBackward,
        RoundPhase::kComplete,
    };
    EXPECT_EQ(phases, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace vuvuzela::engine

// The explicit per-round state machine (engine::RoundLifecycle): transition
// validation, retry accounting, and the scheduler driving the pipeline
// phases, observer calls and stage spans in order.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/coord/distributor.h"
#include "src/engine/round_lifecycle.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/obs/trace.h"
#include "src/sim/workload.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::engine {

namespace {

TEST(RoundLifecycle, ConversationRoundWalksThePipelinePhases) {
  std::vector<RoundPhase> seen;
  RoundLifecycle lifecycle([&](const RoundStatus& status) { seen.push_back(status.phase); });

  lifecycle.Announce(1, wire::RoundType::kConversation);
  lifecycle.BeginAttempt(1, wire::RoundType::kConversation);
  lifecycle.Enter(1, RoundPhase::kForward, 0);
  lifecycle.Enter(1, RoundPhase::kForward, 1);
  lifecycle.Enter(1, RoundPhase::kExchange);
  lifecycle.Enter(1, RoundPhase::kBackward, 1);
  lifecycle.Enter(1, RoundPhase::kBackward, 0);
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
  lifecycle.Enter(coord::kDialingRoundBase, RoundPhase::kForward, 0);
  lifecycle.Enter(coord::kDialingRoundBase, RoundPhase::kExchange);
  lifecycle.Complete(coord::kDialingRoundBase);
  EXPECT_EQ(lifecycle.counters().completed, 1u);
}

TEST(RoundLifecycle, SingleHopChainEntersExchangeStraightFromSubmission) {
  RoundLifecycle lifecycle;
  lifecycle.BeginAttempt(5, wire::RoundType::kConversation);
  lifecycle.Enter(5, RoundPhase::kExchange);
  lifecycle.Complete(5);
  EXPECT_EQ(lifecycle.counters().completed, 1u);
}

TEST(RoundLifecycle, InvalidTransitionsThrow) {
  RoundLifecycle lifecycle;
  lifecycle.Announce(1, wire::RoundType::kConversation);
  // Straight to a pipeline phase without submission.
  EXPECT_THROW(lifecycle.Enter(1, RoundPhase::kForward, 0), std::logic_error);
  EXPECT_THROW(lifecycle.Complete(1), std::logic_error);
  // Duplicate announcement of a live round.
  EXPECT_THROW(lifecycle.Announce(1, wire::RoundType::kConversation), std::logic_error);
  // Unknown rounds are rejected loudly.
  EXPECT_THROW(lifecycle.Enter(99, RoundPhase::kExchange), std::logic_error);
  // Backward must descend, forward must advance.
  lifecycle.BeginAttempt(1, wire::RoundType::kConversation);
  lifecycle.Enter(1, RoundPhase::kForward, 0);
  EXPECT_THROW(lifecycle.Enter(1, RoundPhase::kForward, 0), std::logic_error);
  lifecycle.Enter(1, RoundPhase::kExchange);
  lifecycle.Enter(1, RoundPhase::kBackward, 1);
  EXPECT_THROW(lifecycle.Enter(1, RoundPhase::kBackward, 1), std::logic_error);
  // Terminal states accept nothing further.
  lifecycle.Abandon(1, "test");
  EXPECT_THROW(lifecycle.Complete(1), std::logic_error);
  EXPECT_EQ(lifecycle.counters().abandoned, 1u);
}

TEST(RoundLifecycle, RetryingResumesWithIncrementedAttempt) {
  RoundLifecycle lifecycle;
  lifecycle.Announce(7, wire::RoundType::kConversation);
  lifecycle.BeginAttempt(7, wire::RoundType::kConversation);
  lifecycle.Enter(7, RoundPhase::kForward, 0);
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
  lifecycle.Enter(7, RoundPhase::kForward, 0);
  lifecycle.Abandon(7, "hop never came back");
  EXPECT_EQ(lifecycle.counters().abandoned, 1u);
  EXPECT_EQ(lifecycle.live_rounds(), 0u);
  // A live round cannot be re-submitted without a failure in between.
  lifecycle.BeginAttempt(8, wire::RoundType::kConversation);
  EXPECT_THROW(lifecycle.BeginAttempt(8, wire::RoundType::kConversation), std::logic_error);
}

// The scheduler drives the shared lifecycle through the real pipeline. One
// table of cases pins, per round and whatever the cross-round interleaving,
// the exact lifecycle sequence (phase and hop), the observer calls, and the
// stage spans (stage, hop, onions) for both round types on a 3-hop and a
// 1-hop chain, dialing with and without a distribution backend.
struct PipelineCase {
  const char* name;
  wire::RoundType type;
  size_t hops;
  bool distribution;
  // Every transition the listener sees, as phase@hop.
  const char* lifecycle;
};

struct ObserverCall {
  bool dead_drops;  // OnDeadDrops, else OnForwardPass
  size_t position;
  size_t input;
  size_t output;
  bool operator==(const ObserverCall&) const = default;
};

class RecordingObserver : public mixnet::ChainObserver {
 public:
  void OnForwardPass(size_t position, uint64_t round, const std::vector<util::Bytes>& input,
                     const std::vector<util::Bytes>& output) override {
    std::lock_guard<std::mutex> lock(mutex_);
    calls_[round].push_back({false, position, input.size(), output.size()});
  }
  void OnDeadDrops(uint64_t round, const deaddrop::AccessHistogram&) override {
    std::lock_guard<std::mutex> lock(mutex_);
    calls_[round].push_back({true, 0, 0, 0});
  }
  std::vector<ObserverCall> calls(uint64_t round) {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_[round];
  }

 private:
  std::mutex mutex_;
  std::map<uint64_t, std::vector<ObserverCall>> calls_;
};

struct StageSpan {
  std::string span;  // stage/enqueue or stage/pass
  std::string stage;
  size_t hop;
  size_t onions;
  bool operator==(const StageSpan&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StageSpan& s) {
  return os << s.span << " stage=" << s.stage << " hop=" << s.hop << " onions=" << s.onions;
}

// The round's stage/* spans in emission order. A pass span carries secs=,
// an enqueue span does not.
std::vector<StageSpan> StageSpans(uint64_t round) {
  std::vector<StageSpan> spans;
  for (const obs::TraceRecord& record : obs::TraceJournal::Global().Snapshot(round)) {
    if (record.span != "stage/enqueue" && record.span != "stage/pass") {
      continue;
    }
    char stage[32] = {};
    size_t hop = 0;
    size_t onions = 0;
    double secs = -1;
    int fields = std::sscanf(record.detail.c_str(), "stage=%31s hop=%zu onions=%zu secs=%lf",
                             stage, &hop, &onions, &secs);
    EXPECT_EQ(fields, record.span == "stage/pass" ? 4 : 3) << record.detail;
    spans.push_back({record.span, stage, hop, onions});
  }
  return spans;
}

TEST(RoundLifecycle, SchedulerDrivesPhasesInOrder) {
  const PipelineCase cases[] = {
      {"conversation, 3 hops", wire::RoundType::kConversation, 3, false,
       "Submitting@0 Forward@0 Forward@1 Exchange@1 Backward@1 Backward@0 Complete@0"},
      {"conversation, 1 hop", wire::RoundType::kConversation, 1, false,
       "Submitting@0 Exchange@0 Complete@0"},
      {"dialing, 3 hops, no backend", wire::RoundType::kDialing, 3, false,
       "Submitting@0 Forward@0 Forward@1 Exchange@1 Complete@1"},
      {"dialing, 3 hops, backend", wire::RoundType::kDialing, 3, true,
       "Submitting@0 Forward@0 Forward@1 Exchange@1 Distributing@1 Complete@1"},
      {"dialing, 1 hop, no backend", wire::RoundType::kDialing, 1, false,
       "Submitting@0 Exchange@0 Complete@0"},
      {"dialing, 1 hop, backend", wire::RoundType::kDialing, 1, true,
       "Submitting@0 Exchange@0 Distributing@0 Complete@0"},
  };
  constexpr uint64_t kRoundsPerCase = 4;
  constexpr uint32_t kDrops = 4;
  // Rounds are unique across cases and across repeated runs of this test:
  // the trace journal is process-wide.
  static uint64_t run = 0;
  ++run;

  for (size_t c = 0; c < std::size(cases); ++c) {
    const PipelineCase& tc = cases[c];
    SCOPED_TRACE(tc.name);
    const bool dialing = tc.type == wire::RoundType::kDialing;
    const uint64_t first_round =
        (dialing ? coord::kDialingRoundBase : 0) + 1000 * run + 100 * (c + 1);

    util::Xoshiro256Rng rng(99 + c);
    mixnet::ChainConfig config;
    config.num_servers = tc.hops;
    config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
    config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
    mixnet::Chain chain = mixnet::Chain::Create(config, rng);

    std::mutex mutex;
    std::map<uint64_t, std::vector<RoundStatus>> transitions;
    RoundLifecycle lifecycle([&](const RoundStatus& status) {
      std::lock_guard<std::mutex> lock(mutex);
      transitions[status.round].push_back(status);
    });
    RecordingObserver observer;
    coord::InvitationDistributor distributor;

    std::map<uint64_t, size_t> submitted;
    {
      SchedulerConfig scheduler_config;
      scheduler_config.max_in_flight = 3;
      scheduler_config.lifecycle = &lifecycle;
      scheduler_config.distribution = tc.distribution ? &distributor : nullptr;
      RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()), scheduler_config,
                               &observer);
      for (uint64_t round = first_round; round < first_round + kRoundsPerCase; ++round) {
        sim::WorkloadConfig workload{.num_users = 4, .pairing_fraction = 1.0, .seed = round};
        std::vector<util::Bytes> onions =
            dialing ? sim::GenerateDialingWorkload(workload, chain.public_keys(), round,
                                                   {.num_real_drops = kDrops - 1}, 0.5)
                    : sim::GenerateConversationWorkload(workload, chain.public_keys(), round);
        submitted[round] = onions.size();
        if (dialing) {
          scheduler.SubmitDialing(round, std::move(onions), kDrops);
        } else {
          scheduler.SubmitConversation(round, std::move(onions));
        }
      }
      scheduler.Drain();
      EXPECT_EQ(scheduler.stats().invitation_tables_distributed,
                tc.distribution ? kRoundsPerCase : 0);
    }
    EXPECT_EQ(lifecycle.counters().completed, kRoundsPerCase);
    EXPECT_EQ(lifecycle.counters().abandoned, 0u);

    const size_t last = tc.hops - 1;
    for (const auto& [round, onions_in] : submitted) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::string phases;
      for (const RoundStatus& status : transitions[round]) {
        phases += std::string(phases.empty() ? "" : " ") + RoundPhaseName(status.phase) + "@" +
                  std::to_string(status.hop);
      }
      EXPECT_EQ(phases, tc.lifecycle);

      // Observer: every forward pass (dialing: all but the last hop), then
      // the conversation last hop's dead-drop view. Each pass's input is the
      // previous pass's output.
      std::vector<ObserverCall> calls = observer.calls(round);
      const size_t forward_calls = dialing ? last : tc.hops;
      ASSERT_EQ(calls.size(), forward_calls + (dialing ? 0 : 1));
      std::vector<size_t> sizes = {onions_in};  // batch size entering hop i
      for (size_t i = 0; i < forward_calls; ++i) {
        EXPECT_EQ(calls[i], (ObserverCall{false, i, sizes[i], calls[i].output}));
        sizes.push_back(calls[i].output);
      }
      if (!dialing) {
        EXPECT_EQ(calls.back(), (ObserverCall{true, 0, 0, 0}));
      }

      // Stage spans: enqueue then pass at each stage, in pipeline order.
      std::vector<StageSpan> expected;
      auto stage = [&](const char* name, size_t hop, size_t in, size_t out) {
        expected.push_back({"stage/enqueue", name, hop, in});
        expected.push_back({"stage/pass", name, hop, out});
      };
      for (size_t i = 0; i < last; ++i) {
        stage("forward", i, sizes[i], sizes[i + 1]);
      }
      if (dialing) {
        stage("exchange", last, sizes[last], 0);
        if (tc.distribution) {
          stage("distribute", tc.hops, 0, 0);
        }
      } else {
        // The last hop answers every onion it received; each backward pass
        // returns one response per onion its hop took in.
        stage("exchange", last, sizes[last], sizes[last]);
        for (size_t i = last; i-- > 0;) {
          stage("backward", i, sizes[i + 1], sizes[i]);
        }
      }
      EXPECT_EQ(StageSpans(round), expected);
    }
  }
}

}  // namespace
}  // namespace vuvuzela::engine

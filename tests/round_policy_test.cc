// coord::RoundPolicy, the coordinator's round decisions, with no sockets and
// no sleeps. Each case is a table of calls on a fake clock and the decision
// each call returns, rendered as text.

#include "src/coord/round_policy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/noise/privacy.h"

namespace vuvuzela::coord {
namespace {

constexpr size_t kConvSize = 100;
constexpr size_t kDialSize = 60;
constexpr wire::RoundType kConv = wire::RoundType::kConversation;
constexpr wire::RoundType kDial = wire::RoundType::kDialing;

std::string RoundName(uint64_t round) {
  return round >= kDialingRoundBase ? "d" + std::to_string(round - kDialingRoundBase)
                                    : std::to_string(round);
}

RoundPolicyConfig TestConfig() {
  RoundPolicyConfig config;
  config.schedule.conversation_rounds_per_dialing_round = 1000;  // conversation only
  config.total_rounds = 1;
  config.max_in_flight = 1;
  config.expire_keep = 4;
  config.admission_window_seconds = 0.05;
  config.conversation_onion_size = kConvSize;
  config.dialing_onion_size = kDialSize;
  config.max_round_attempts = 3;
  return config;
}

// One call on the policy. Admitted onions are filled with their client's
// index, so a rendered batch shows whose onions it carries.
struct Call {
  enum Kind {
    kAnnounce,    // Announce(now, clients)
    kAdmit,       // Admit(client, type, round, onion of `size` bytes)
    kDisconnect,  // ClientDisconnected(client)
    kClose,       // CloseAdmission(now)
    kCollect,     // Collect()
    kFinish,      // Finish(round, ok, now)
    kRetry,       // TakeDueRetry(now)
    kNextRetry,   // NextRetry()
    kState,       // the bookkeeping counts and Done()
  };
  Kind kind;
  size_t client = 0;
  uint64_t round = 0;
  wire::RoundType type = kConv;
  size_t size = kConvSize;
  bool ok = true;
};

Call Announce(size_t clients) { return {.kind = Call::kAnnounce, .client = clients}; }
Call Admit(size_t client, uint64_t round, wire::RoundType type = kConv, size_t size = 0) {
  Call call{.kind = Call::kAdmit, .client = client, .round = round, .type = type};
  call.size = size != 0 ? size : (type == kConv ? kConvSize : kDialSize);
  return call;
}
Call Disconnect(size_t client) { return {.kind = Call::kDisconnect, .client = client}; }
Call Close() { return {.kind = Call::kClose}; }
Call Collect() { return {.kind = Call::kCollect}; }
Call Finish(uint64_t round, bool ok) { return {.kind = Call::kFinish, .round = round, .ok = ok}; }
Call Retry() { return {.kind = Call::kRetry}; }
Call NextRetry() { return {.kind = Call::kNextRetry}; }
Call State() { return {.kind = Call::kState}; }

struct Step {
  int64_t now_ms;
  Call call;
  std::string expect;
};

PolicyTime At(int64_t ms) { return PolicyTime{} + std::chrono::milliseconds(ms); }

int64_t Ms(PolicyTime time) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(time - PolicyTime{}).count();
}

std::string Render(const std::optional<Attempt>& attempt) {
  if (!attempt) {
    return "none";
  }
  std::string out = "batch " + RoundName(attempt->announcement.round) + " attempt " +
                    std::to_string(attempt->number) + " onions [";
  for (size_t i = 0; i < attempt->onions.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(attempt->onions[i].at(0));
  }
  return out + "]";
}

std::string Apply(RoundPolicy& policy, const Step& step) {
  const Call& call = step.call;
  PolicyTime now = At(step.now_ms);
  switch (call.kind) {
    case Call::kAnnounce: {
      std::optional<Announcement> next = policy.Announce(now, call.client);
      if (!next) {
        return "hold";
      }
      return std::string(next->refused ? "refused " : "announce ") + RoundName(next->round.round);
    }
    case Call::kAdmit:
      return policy.Admit(call.client, call.type, call.round,
                          util::Bytes(call.size, static_cast<uint8_t>(call.client)))
                 ? "admitted"
                 : "refused";
    case Call::kDisconnect:
      policy.ClientDisconnected(call.client);
      return "ok";
    case Call::kClose:
      return Render(policy.CloseAdmission(now));
    case Call::kCollect: {
      std::optional<wire::RoundAnnouncement> round = policy.Collect();
      return round ? "collect " + RoundName(round->round) : "none";
    }
    case Call::kFinish: {
      Settlement settlement = policy.Finish(call.round, call.ok, now);
      switch (settlement.kind) {
        case Settlement::Kind::kDeliver: {
          std::string out = "deliver [";
          for (size_t i = 0; i < settlement.contributors.size(); ++i) {
            out += (i > 0 ? "," : "") + std::to_string(settlement.contributors[i]);
          }
          return out + "]";
        }
        case Settlement::Kind::kRetry:
          return "retry at " + std::to_string(Ms(settlement.retry_at));
        case Settlement::Kind::kAbandon:
          return "abandon after " + std::to_string(settlement.attempt);
      }
      return "?";
    }
    case Call::kRetry:
      return Render(policy.TakeDueRetry(now));
    case Call::kNextRetry: {
      std::optional<PolicyTime> next = policy.NextRetry();
      return next ? "at " + std::to_string(Ms(*next)) : "none";
    }
    case Call::kState:
      return "banked=" + std::to_string(policy.banked_onions()) +
             " pending=" + std::to_string(policy.pending_rounds()) +
             " retrying=" + std::to_string(policy.retry_depth()) +
             " dedup=" + std::to_string(policy.dedup_rounds()) + (policy.Done() ? " done" : "");
  }
  return "?";
}

void RunTable(RoundPolicy& policy, const std::vector<Step>& steps) {
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(Apply(policy, steps[i]), steps[i].expect) << "step " << i << " at "
                                                        << steps[i].now_ms << " ms";
  }
}

void RunTable(const RoundPolicyConfig& config, const std::vector<Step>& steps) {
  RoundPolicy policy(config);
  RunTable(policy, steps);
}

// Rows that play one conversation round with one client (client 0) from
// announcement to a successful delivery.
void AppendDeliveredRound(std::vector<Step>& steps, int64_t now_ms, uint64_t round) {
  steps.push_back({now_ms, Announce(1), "announce " + RoundName(round)});
  steps.push_back({now_ms, Admit(0, round), "admitted"});
  steps.push_back({now_ms, Close(), "batch " + RoundName(round) + " attempt 1 onions [0]"});
  steps.push_back({now_ms, Collect(), "collect " + RoundName(round)});
  steps.push_back({now_ms, Finish(round, true), "deliver [0]"});
}

TEST(RoundPolicy, WindowClosesEarlyOnceEveryConnectedClientContributed) {
  const std::vector<Step> steps = {
      {0, Announce(3), "announce 1"},
      {0, Admit(0, 1), "admitted"},
      {10, Close(), "none"},
      // A client that never contributes and hangs up stops holding it open.
      {10, Disconnect(2), "ok"},
      {10, Close(), "none"},
      {20, Admit(1, 1), "admitted"},
      {20, Close(), "batch 1 attempt 1 onions [0,1]"},
  };
  RunTable(TestConfig(), steps);
}

TEST(RoundPolicy, ClientThatContributedAndHungUpDoesNotCloseTheWindow) {
  const std::vector<Step> steps = {
      {0, Announce(2), "announce 1"},
      {0, Admit(0, 1), "admitted"},
      {0, Disconnect(0), "ok"},
      // Client 1 is connected and has not contributed: the window stays open.
      {10, Close(), "none"},
      {30, Admit(1, 1), "admitted"},
      {30, Close(), "batch 1 attempt 1 onions [0,1]"},
  };
  RunTable(TestConfig(), steps);
}

TEST(RoundPolicy, WindowClosesAtItsDeadlineOtherwise) {
  const std::vector<Step> steps = {
      {0, Announce(2), "announce 1"},
      {5, Admit(1, 1), "admitted"},
      {49, Close(), "none"},
      {50, Close(), "batch 1 attempt 1 onions [1]"},
      // The window is closed: a late onion is refused.
      {51, Admit(0, 1), "refused"},
  };
  RunTable(TestConfig(), steps);
}

TEST(RoundPolicy, RefusedFramesDoNotTakeTheClientsSlot) {
  RoundPolicyConfig config = TestConfig();
  config.total_rounds = 2;
  const std::vector<Step> steps = {
      {0, Admit(0, 1), "refused"},  // no window open
      {0, Announce(2), "announce 1"},
      // The wrong round, the wrong type, a missized onion, the other type's
      // size, and a client that connected after the announcement (no slot).
      {0, Admit(0, 2), "refused"},
      {0, Admit(0, 1, kDial), "refused"},
      {0, Admit(0, 1, kConv, kConvSize - 1), "refused"},
      {0, Admit(0, 1, kConv, kDialSize), "refused"},
      {0, Admit(2, 1), "refused"},
      {0, Admit(0, 1), "admitted"},
      // A duplicate is refused, and it does not count for client 1.
      {0, Admit(0, 1), "refused"},
      {0, Close(), "none"},
      {1, Admit(1, 1), "admitted"},
      {1, Close(), "batch 1 attempt 1 onions [0,1]"},
  };
  RunTable(config, steps);
}

TEST(RoundPolicy, FailedAttemptIsRetriedWithTheSameOnionsThenAbandoned) {
  const std::vector<Step> steps = {
      {0, Announce(2), "announce 1"},
      {0, Admit(1, 1), "admitted"},
      {0, Admit(0, 1), "admitted"},
      {0, State(), "banked=0 pending=0 retrying=0 dedup=1"},
      {0, Close(), "batch 1 attempt 1 onions [1,0]"},
      {0, State(), "banked=2 pending=1 retrying=0 dedup=1"},
      {0, Collect(), "collect 1"},
      {0, State(), "banked=2 pending=0 retrying=0 dedup=1"},
      {10, Finish(1, false), "retry at 110"},
      {10, State(), "banked=2 pending=0 retrying=1 dedup=1"},
      {10, NextRetry(), "at 110"},
      {109, Retry(), "none"},
      {110, Retry(), "batch 1 attempt 2 onions [1,0]"},
      {110, Collect(), "collect 1"},
      {200, Finish(1, false), "retry at 300"},
      // The final attempt ships the bank: nothing is held back.
      {300, Retry(), "batch 1 attempt 3 onions [1,0]"},
      {300, State(), "banked=0 pending=1 retrying=0 dedup=1"},
      {300, Collect(), "collect 1"},
      {400, Finish(1, false), "abandon after 3"},
      {400, NextRetry(), "none"},
      // Terminal; the dedup record outlives it until the expiry horizon.
      {400, State(), "banked=0 pending=0 retrying=0 dedup=1 done"},
  };
  RunTable(TestConfig(), steps);
}

TEST(RoundPolicy, BankedOnionsReturnToZeroOnDelivery) {
  RoundPolicyConfig config = TestConfig();
  config.total_rounds = 2;
  std::vector<Step> steps;
  AppendDeliveredRound(steps, 0, 1);
  steps.push_back({0, State(), "banked=0 pending=0 retrying=0 dedup=1"});
  steps.push_back({0, Announce(1), "announce 2"});
  steps.push_back({0, Admit(0, 2), "admitted"});
  steps.push_back({0, Close(), "batch 2 attempt 1 onions [0]"});
  steps.push_back({0, Collect(), "collect 2"});
  steps.push_back({5, Finish(2, false), "retry at 105"});
  steps.push_back({105, Retry(), "batch 2 attempt 2 onions [0]"});
  steps.push_back({105, State(), "banked=1 pending=1 retrying=0 dedup=2"});
  steps.push_back({105, Collect(), "collect 2"});
  steps.push_back({110, Finish(2, true), "deliver [0]"});
  steps.push_back({110, State(), "banked=0 pending=0 retrying=0 dedup=2 done"});
  RunTable(config, steps);
}

TEST(RoundPolicy, DedupRecordsStayBoundedWhenEveryRoundIsAbandoned) {
  RoundPolicyConfig config = TestConfig();
  constexpr uint64_t kRounds = 20;
  config.total_rounds = kRounds;
  config.max_round_attempts = 1;
  config.expire_keep = 4;
  std::vector<Step> steps;
  for (uint64_t round = 1; round <= kRounds; ++round) {
    int64_t now = static_cast<int64_t>(round) * 10;
    steps.push_back({now, Announce(1), "announce " + std::to_string(round)});
    steps.push_back({now, Admit(0, round), "admitted"});
    steps.push_back({now, Close(), "batch " + std::to_string(round) + " attempt 1 onions [0]"});
    steps.push_back({now, Collect(), "collect " + std::to_string(round)});
    steps.push_back({now, Finish(round, false), "abandon after 1"});
  }
  // The newest round plus the expire_keep rounds behind it.
  steps.push_back({1000, State(), "banked=0 pending=0 retrying=0 dedup=5 done"});
  RunTable(config, steps);
}

TEST(RoundPolicy, CollectionBacklogHoldsBackTheNextAnnouncement) {
  RoundPolicyConfig config = TestConfig();
  config.total_rounds = 5;
  config.max_in_flight = 1;  // the backlog holds K + 2 = 3 submitted rounds
  std::vector<Step> steps;
  for (uint64_t round = 1; round <= 3; ++round) {
    steps.push_back({0, Announce(1), "announce " + std::to_string(round)});
    steps.push_back({0, Admit(0, round), "admitted"});
    steps.push_back({0, Close(), "batch " + std::to_string(round) + " attempt 1 onions [0]"});
  }
  steps.push_back({0, Announce(1), "hold"});
  steps.push_back({0, Collect(), "collect 1"});  // collection order is submission order
  steps.push_back({0, Announce(1), "announce 4"});
  RunTable(config, steps);
}

TEST(RoundPolicy, CollectionBacklogHoldsBackDueRetries) {
  RoundPolicyConfig config = TestConfig();
  config.total_rounds = 4;
  config.max_in_flight = 1;
  std::vector<Step> steps;
  for (uint64_t round = 1; round <= 4; ++round) {
    steps.push_back({0, Announce(1), "announce " + std::to_string(round)});
    steps.push_back({0, Admit(0, round), "admitted"});
    steps.push_back({0, Close(), "batch " + std::to_string(round) + " attempt 1 onions [0]"});
    if (round == 1) {
      steps.push_back({0, Collect(), "collect 1"});
      steps.push_back({0, Finish(1, false), "retry at 100"});
    }
  }
  steps.push_back({100, NextRetry(), "none"});  // a collection must come first
  steps.push_back({100, Retry(), "none"});
  steps.push_back({100, Collect(), "collect 2"});
  steps.push_back({100, NextRetry(), "at 100"});
  steps.push_back({100, Retry(), "batch 1 attempt 2 onions [0]"});
  RunTable(config, steps);
}

TEST(RoundPolicy, BudgetRefusesBeforeAnnouncement) {
  const noise::LaplaceParams kNoise{10.0, 1.5};
  constexpr double kEpsilonBudget = 100.0;
  constexpr double kDeltaBudget = 0.1;
  uint64_t admitted = noise::MaxRounds(noise::ConversationRound(kNoise), kEpsilonBudget,
                                       kDeltaBudget, kDeltaBudget / 4.0);
  ASSERT_GT(admitted, 0u);
  RoundPolicyConfig config = TestConfig();
  config.total_rounds = admitted + 2;
  config.expire_keep = admitted;  // every admitted round keeps its record
  config.budget.conversation_noise = kNoise;
  config.budget.dialing_noise = kNoise;
  config.budget.epsilon_budget = kEpsilonBudget;
  config.budget.delta_budget = kDeltaBudget;
  std::vector<Step> steps;
  for (uint64_t round = 1; round <= admitted; ++round) {
    AppendDeliveredRound(steps, 0, round);
  }
  for (uint64_t round = admitted + 1; round <= admitted + 2; ++round) {
    steps.push_back({0, Announce(1), "refused " + std::to_string(round)});
    // A refused round opens no window and keeps no record.
    steps.push_back({0, Admit(0, round), "refused"});
  }
  std::string drained = "banked=0 pending=0 retrying=0 dedup=" + std::to_string(admitted);
  steps.push_back({0, State(), drained + " done"});
  steps.push_back({0, Announce(1), "hold"});
  RunTable(config, steps);
}

TEST(RoundPolicy, DoneOnlyOnceEveryScheduledRoundIsTerminal) {
  RoundPolicyConfig config = TestConfig();
  config.total_rounds = 1;
  const std::vector<Step> steps = {
      {0, State(), "banked=0 pending=0 retrying=0 dedup=0"},
      {0, Announce(1), "announce 1"},
      {0, Admit(0, 1), "admitted"},
      {0, Close(), "batch 1 attempt 1 onions [0]"},
      {0, State(), "banked=1 pending=1 retrying=0 dedup=1"},
      {0, Announce(1), "hold"},  // the schedule is played
      {0, Collect(), "collect 1"},
      {0, Collect(), "none"},
      {0, Finish(1, true), "deliver [0]"},
      {0, State(), "banked=0 pending=0 retrying=0 dedup=1 done"},
  };
  RunTable(config, steps);
}

}  // namespace
}  // namespace vuvuzela::coord

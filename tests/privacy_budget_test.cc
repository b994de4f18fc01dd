// Adversarial privacy suite, part 1: the ε/δ budget accountant.
//
// Unit tests pin the accountant's arithmetic to src/noise/privacy.h (per-round
// Theorem 1 / §6.5 bounds, Theorem 2 advanced composition, sequential
// composition across the two round classes), and the integration tests run a
// real coordinator + loopback-hop deployment with a deliberately tight budget
// to prove refusal is enforced *before* announcement and surfaced through the
// result, the global metrics registry, and the /metrics HTTP endpoint.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>

#include "src/net/tcp.h"
#include "src/noise/accountant.h"
#include "src/noise/privacy.h"
#include "src/obs/http.h"
#include "src/obs/registry.h"
#include "src/sim/client_fleet.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"

namespace vuvuzela {
namespace {

constexpr uint64_t kSeed = 0xbadb1a5;
constexpr uint64_t kUsers = 6;

// Paper-flavored parameters small enough to keep deterministic noise cheap:
// µ = 10, b = 1.5 gives ε = 4/b ≈ 2.67 and δ = e^{(2-µ)/b} ≈ 4.8e-3 per
// conversation round — a budget of a few composed rounds is easy to pick.
const noise::LaplaceParams kNoise{10.0, 1.5};

noise::BudgetAccountantConfig Config(double epsilon_budget, double delta_budget) {
  noise::BudgetAccountantConfig config;
  config.conversation_noise = kNoise;
  config.dialing_noise = kNoise;
  config.epsilon_budget = epsilon_budget;
  config.delta_budget = delta_budget;
  return config;
}

TEST(BudgetAccountant, PerRoundBoundsMatchTheorems) {
  noise::BudgetAccountant accountant(Config(1000.0, 0.5));
  noise::PrivacyBound conversation = noise::ConversationRound(kNoise);
  noise::PrivacyBound dialing = noise::DialingRound(kNoise);
  EXPECT_DOUBLE_EQ(accountant.conversation_bound().epsilon, conversation.epsilon);
  EXPECT_DOUBLE_EQ(accountant.conversation_bound().delta, conversation.delta);
  EXPECT_DOUBLE_EQ(accountant.dialing_bound().epsilon, dialing.epsilon);
  EXPECT_DOUBLE_EQ(accountant.dialing_bound().delta, dialing.delta);
  // Nothing admitted yet: nothing spent.
  EXPECT_DOUBLE_EQ(accountant.Spent().epsilon, 0.0);
  EXPECT_DOUBLE_EQ(accountant.Spent().delta, 0.0);
}

TEST(BudgetAccountant, ChargesUnderAdvancedComposition) {
  constexpr double kDeltaBudget = 0.5;
  noise::BudgetAccountant accountant(Config(1000.0, kDeltaBudget));
  const double slack = kDeltaBudget / 4.0;  // the documented default
  for (uint64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(accountant.AdmitConversation());
    noise::PrivacyBound expected =
        noise::Compose(noise::ConversationRound(kNoise), k, slack);
    EXPECT_DOUBLE_EQ(accountant.Spent().epsilon, expected.epsilon) << "k=" << k;
    EXPECT_DOUBLE_EQ(accountant.Spent().delta, expected.delta) << "k=" << k;
  }
  EXPECT_EQ(accountant.conversation_rounds(), 5u);
  EXPECT_EQ(accountant.rounds_refused(), 0u);
}

TEST(BudgetAccountant, SumsConversationAndDialingClasses) {
  constexpr double kDeltaBudget = 0.5;
  noise::BudgetAccountant accountant(Config(1000.0, kDeltaBudget));
  const double slack = kDeltaBudget / 4.0;
  ASSERT_TRUE(accountant.AdmitConversation());
  ASSERT_TRUE(accountant.AdmitConversation());
  ASSERT_TRUE(accountant.AdmitDialing());
  noise::PrivacyBound conversation =
      noise::Compose(noise::ConversationRound(kNoise), 2, slack);
  noise::PrivacyBound dialing = noise::Compose(noise::DialingRound(kNoise), 1, slack);
  EXPECT_DOUBLE_EQ(accountant.Spent().epsilon, conversation.epsilon + dialing.epsilon);
  EXPECT_DOUBLE_EQ(accountant.Spent().delta, conversation.delta + dialing.delta);
}

TEST(BudgetAccountant, RefusesAtExhaustionAndStaysMonotone) {
  constexpr double kEpsilonBudget = 100.0;
  constexpr double kDeltaBudget = 0.1;
  noise::BudgetAccountant accountant(Config(kEpsilonBudget, kDeltaBudget));
  uint64_t expected_rounds =
      noise::MaxRounds(noise::ConversationRound(kNoise), kEpsilonBudget, kDeltaBudget,
                       kDeltaBudget / 4.0);
  ASSERT_GT(expected_rounds, 0u);

  uint64_t admitted = 0;
  while (accountant.AdmitConversation()) {
    ++admitted;
    ASSERT_LT(admitted, 10000u) << "budget never exhausted";
  }
  EXPECT_EQ(admitted, expected_rounds);
  EXPECT_EQ(accountant.conversation_rounds(), expected_rounds);
  // Refusals never charge; the spent bound stays within budget forever.
  EXPECT_LE(accountant.Spent().epsilon, kEpsilonBudget);
  EXPECT_LE(accountant.Spent().delta, kDeltaBudget);
  // Monotone: once refused, refused for good — and every refusal is counted.
  EXPECT_FALSE(accountant.AdmitConversation());
  EXPECT_FALSE(accountant.AdmitConversation());
  EXPECT_EQ(accountant.rounds_refused(), 3u);
  EXPECT_EQ(accountant.conversation_rounds(), expected_rounds);
}

TEST(BudgetAccountant, NoiseBelowBoundRefusesTheFirstRound) {
  // A deployment whose single-round ε already exceeds the budget — the
  // "configured noise violates the bound" case — admits nothing: the k = 1
  // composition is the per-round check.
  noise::BudgetAccountant accountant(Config(1.0, 0.5));
  ASSERT_GT(noise::ConversationRound(kNoise).epsilon, 1.0);
  EXPECT_FALSE(accountant.AdmitConversation());
  EXPECT_EQ(accountant.conversation_rounds(), 0u);
  EXPECT_EQ(accountant.rounds_refused(), 1u);
  EXPECT_DOUBLE_EQ(accountant.Spent().epsilon, 0.0);
}

TEST(BudgetAccountant, DegenerateConfigurationThrows) {
  // Zero/negative Laplace scale means "no noise" — that must fail loudly at
  // construction, not silently account for a guarantee that does not exist.
  noise::BudgetAccountantConfig no_noise = Config(10.0, 0.5);
  no_noise.conversation_noise = {0.0, 0.0};
  EXPECT_THROW(noise::BudgetAccountant{no_noise}, std::invalid_argument);

  noise::BudgetAccountantConfig no_epsilon = Config(0.0, 0.5);
  EXPECT_THROW(noise::BudgetAccountant{no_epsilon}, std::invalid_argument);

  noise::BudgetAccountantConfig no_delta = Config(10.0, 0.0);
  EXPECT_THROW(noise::BudgetAccountant{no_delta}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Integration: a real coordinator over loopback hop daemons.

mixnet::ChainConfig BudgetChainConfig() {
  mixnet::ChainConfig config;
  config.num_servers = 2;
  config.conversation_noise = {.params = kNoise, .deterministic = true};
  config.dialing_noise = {.params = kNoise, .deterministic = true};
  return config;
}

transport::CoordDaemonConfig BudgetCoordConfig(const transport::LoopbackChain& chain,
                                               uint64_t total_rounds) {
  transport::CoordDaemonConfig config;
  config.hops = chain.endpoints();
  config.scheduler.max_in_flight = 2;
  config.schedule.conversation_rounds_per_dialing_round = 1000;  // conversation only
  config.total_rounds = total_rounds;
  config.admission_window_seconds = 2.0;  // closes once every client submitted
  config.num_clients = kUsers;
  return config;
}

// Runs the started coordinator's schedule with a client fleet at its front
// door.
transport::CoordDaemonResult RunWithFleet(transport::CoordinatorDaemon& coordinator) {
  sim::ClientFleetConfig fleet_config;
  fleet_config.coordinator.port = coordinator.client_port();
  fleet_config.chain = transport::DeriveChainKeys(kSeed, 2).public_keys;
  fleet_config.users = kUsers;
  auto fleet = std::async(std::launch::async, sim::RunClientFleet, fleet_config);
  transport::CoordDaemonResult result = coordinator.Run();
  EXPECT_TRUE(fleet.get().has_value());
  return result;
}

// Regression for the tentpole guarantee: the coordinator refuses — before
// announcement — every round past the budget, the refusals surface in the
// result and in vuvuzela_privacy_rounds_refused_total, and the spent gauges
// export the composed bound in fixed-point (micro-ε / nano-δ).
TEST(PrivacyBudgetIntegration, CoordinatorRefusesRoundsPastBudget) {
  constexpr double kEpsilonBudget = 100.0;
  constexpr double kDeltaBudget = 0.1;
  constexpr uint64_t kTotalRounds = 6;
  uint64_t admitted_rounds =
      noise::MaxRounds(noise::ConversationRound(kNoise), kEpsilonBudget, kDeltaBudget,
                       kDeltaBudget / 4.0);
  ASSERT_GT(admitted_rounds, 0u);
  ASSERT_LT(admitted_rounds, kTotalRounds);  // the budget must actually bind

  auto chain = transport::LoopbackChain::Start(BudgetChainConfig(), kSeed);
  ASSERT_NE(chain, nullptr);

  auto& registry = obs::Registry::Global();
  uint64_t refused_before =
      registry.GetCounter("vuvuzela_privacy_rounds_refused_total", "")->Value();

  transport::CoordDaemonConfig config = BudgetCoordConfig(*chain, kTotalRounds);
  config.budget.conversation_noise = kNoise;
  config.budget.dialing_noise = kNoise;
  config.budget.epsilon_budget = kEpsilonBudget;
  config.budget.delta_budget = kDeltaBudget;

  transport::CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());

  // The ops-facing surface vuvuzela-coordd's shell opens beside the daemon.
  auto metrics_server = obs::MetricsHttpServer::Start(/*port=*/0);
  ASSERT_NE(metrics_server, nullptr);

  transport::CoordDaemonResult result = RunWithFleet(coordinator);

  EXPECT_EQ(result.conversation_rounds_completed, admitted_rounds);
  EXPECT_EQ(result.rounds_refused, kTotalRounds - admitted_rounds);
  EXPECT_EQ(result.rounds_abandoned, 0u);
  // The spent bound is what the accountant composed, and it respects the
  // budget by construction.
  EXPECT_GT(result.epsilon_spent, 0.0);
  EXPECT_LE(result.epsilon_spent, kEpsilonBudget);
  EXPECT_GT(result.delta_spent, 0.0);
  EXPECT_LE(result.delta_spent, kDeltaBudget);

  // Surfaced in the global registry the /metrics endpoint renders.
  uint64_t refused_after =
      registry.GetCounter("vuvuzela_privacy_rounds_refused_total", "")->Value();
  EXPECT_EQ(refused_after - refused_before, result.rounds_refused);
  EXPECT_EQ(registry.GetGauge("vuvuzela_privacy_epsilon_spent_micro", "")->Value(),
            static_cast<int64_t>(result.epsilon_spent * 1e6 + 0.5));
  EXPECT_GT(registry.GetGauge("vuvuzela_privacy_delta_spent_nano", "")->Value(), 0);
}

// A budget generous enough for the whole schedule refuses nothing — the
// accountant must not tax healthy deployments.
TEST(PrivacyBudgetIntegration, GenerousBudgetRefusesNothing) {
  constexpr uint64_t kTotalRounds = 4;
  auto chain = transport::LoopbackChain::Start(BudgetChainConfig(), kSeed);
  ASSERT_NE(chain, nullptr);

  transport::CoordDaemonConfig config = BudgetCoordConfig(*chain, kTotalRounds);
  config.budget.conversation_noise = kNoise;
  config.budget.dialing_noise = kNoise;
  config.budget.epsilon_budget = 1e6;
  config.budget.delta_budget = 0.5;

  transport::CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  transport::CoordDaemonResult result = RunWithFleet(coordinator);
  EXPECT_EQ(result.conversation_rounds_completed, kTotalRounds);
  EXPECT_EQ(result.rounds_refused, 0u);
  EXPECT_GT(result.epsilon_spent, 0.0);
}

// An armed accountant with degenerate noise parameters must fail Start():
// announcing even one round under a nonexistent guarantee is the failure the
// tentpole exists to prevent.
TEST(PrivacyBudgetIntegration, DegenerateBudgetFailsStart) {
  transport::CoordDaemonConfig config;
  config.hops.push_back({"127.0.0.1", 1});  // never dialed: Start() fails first
  config.num_clients = 1;                    // so the budget check is what fails
  config.budget.conversation_noise = {0.0, 0.0};
  config.budget.dialing_noise = kNoise;
  config.budget.epsilon_budget = 10.0;
  config.budget.delta_budget = 0.1;
  transport::CoordinatorDaemon coordinator(std::move(config));
  EXPECT_FALSE(coordinator.Start());
}

}  // namespace
}  // namespace vuvuzela

// ABL-NOISE — design-choice ablations DESIGN.md calls out:
//  1. the latency price of noise: µ sweep at fixed population (the cost of
//     privacy is a constant floor, §8.2);
//  2. active vs idle users: performance is identical (§8.1: "performance is
//     the same regardless of whether users are actively communicating");
//  3. deterministic vs sampled noise: same mean cost, different variance
//     (§8.1's evaluation choice);
//  4. privacy rounds bought per unit of latency (the µ tradeoff curve).

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/round_runner.h"
#include "src/noise/privacy.h"
#include "src/sim/cost_model.h"

using namespace vuvuzela;

int main() {
  constexpr double kLn2 = 0.6931471805599453;
  bench::PrintHeader("ABL-NOISE", "noise ablations");

  // 1. Latency vs µ at fixed users (real rounds, 1/100 scale).
  std::printf("\n  1) latency floor vs noise level (real rounds, 5K users, 3 servers):\n");
  std::printf("  %-10s %-10s %-12s\n", "mu", "seconds", "reqs@last");
  for (double mu : {0.0, 500.0, 1500.0, 3000.0, 4500.0}) {
    bench::RealRound round = bench::RunRealConversationRound(5000, 3, mu, 17);
    std::printf("  %-10.0f %-10.3f %-12llu\n", mu, round.seconds,
                static_cast<unsigned long long>(round.requests_at_last_server));
  }

  // 2. Active vs idle population mix.
  std::printf("\n  2) active vs idle users (10K users, mu=2K): latency must not depend on"
              " activity\n");
  for (double fraction : {1.0, 0.5, 0.0}) {
    mixnet::Chain chain = bench::MakeBenchChain(3, 2000, 23);
    sim::WorkloadConfig workload{.num_users = 10000, .pairing_fraction = fraction, .seed = 23};
    auto onions = sim::GenerateConversationWorkload(workload, chain.public_keys(), 1);
    engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
    auto start = std::chrono::steady_clock::now();
    auto result = scheduler.SubmitConversation(1, std::move(onions)).get();
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    std::printf("    %3.0f%% conversing: %.3f s, %llu exchanges\n", fraction * 100, seconds,
                static_cast<unsigned long long>(result.messages_exchanged));
  }

  // 3. Deterministic vs sampled noise.
  std::printf("\n  3) deterministic vs sampled noise (mu=2K, b=400, 5 rounds each):\n");
  for (bool deterministic : {true, false}) {
    double min_requests = 1e18, max_requests = 0;
    for (int r = 0; r < 5; ++r) {
      mixnet::ChainConfig config;
      config.num_servers = 3;
      config.conversation_noise = {.params = {2000, 400}, .deterministic = deterministic};
      util::Xoshiro256Rng rng(100 + r);
      mixnet::Chain chain = mixnet::Chain::Create(config, rng);
      sim::WorkloadConfig workload{.num_users = 1000, .pairing_fraction = 1.0,
                                   .seed = static_cast<uint64_t>(r)};
      auto onions = sim::GenerateConversationWorkload(workload, chain.public_keys(), 1);
      engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
      auto result = scheduler.SubmitConversation(1, std::move(onions)).get();
      double requests = static_cast<double>(result.stats.forward.back().requests_in);
      min_requests = std::min(min_requests, requests);
      max_requests = std::max(max_requests, requests);
    }
    std::printf("    %-13s requests at last server: [%.0f, %.0f]\n",
                deterministic ? "deterministic" : "sampled", min_requests, max_requests);
  }

  // 4. Privacy bought per second of latency.
  std::printf("\n  4) privacy/latency tradeoff at 1M users, 3 servers (model):\n");
  std::printf("  %-9s %-12s %-22s\n", "mu", "latency(s)", "rounds @ (ln2, 1e-4)");
  sim::CostModel model = sim::CostModel::Measure();
  for (double mu : {75000.0, 150000.0, 300000.0, 450000.0, 600000.0}) {
    noise::NoiseSweepResult best = noise::BestScaleForMu(mu, kLn2, 1e-4, 1e-5);
    std::printf("  %-9s %-12.1f %-22llu\n", bench::Human(mu).c_str(),
                model.ConversationRoundLatency(1000000, 3, mu),
                static_cast<unsigned long long>(best.rounds));
  }
  bench::PrintNote("noise cost is constant in users; doubling supported rounds costs ~sqrt(2)x"
                   " mu (§6.4).");
  return 0;
}

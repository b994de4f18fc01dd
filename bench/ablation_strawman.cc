// ABL-STRAWMAN — the motivating comparison of §2.1/§4.2, run as an
// experiment: the co-access and disconnection attacks against the strawman
// single-server design succeed deterministically; against Vuvuzela, the
// first is structurally impossible (the adversary never sees client↔drop
// associations through an honest mixer) and the second is buried in Laplace
// noise whose magnitude we measure.

#include <cmath>
#include <cstdio>
#include <set>

#include "bench/bench_util.h"
#include "src/baseline/strawman.h"
#include "src/conversation/protocol.h"
#include "src/crypto/onion.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

using namespace vuvuzela;

namespace {

struct Population {
  std::vector<crypto::X25519KeyPair> users;
};

std::vector<baseline::StrawmanRequest> StrawmanRound(const Population& pop, uint64_t round,
                                                     bool alice_talks, util::Rng& rng) {
  std::vector<baseline::StrawmanRequest> requests;
  for (size_t u = 0; u < pop.users.size(); ++u) {
    baseline::StrawmanRequest req;
    req.client = u;
    if (alice_talks && u <= 1) {
      size_t partner = 1 - u;
      auto session = conversation::Session::Derive(pop.users[u], pop.users[partner].public_key);
      req.request = conversation::BuildExchangeRequest(session, round, {});
    } else {
      req.request = conversation::BuildFakeExchangeRequest(pop.users[u], round, rng);
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

}  // namespace

int main() {
  bench::PrintHeader("ABL-STRAWMAN", "traffic-analysis attacks: strawman vs Vuvuzela");

  util::Xoshiro256Rng rng(2718);
  Population pop;
  for (int u = 0; u < 40; ++u) {
    pop.users.push_back(crypto::X25519KeyPair::Generate(rng));
  }

  // --- Attack 1: co-access linking ---------------------------------------
  std::printf("\n  attack 1: co-access linking (users 0 and 1 converse among 40)\n");
  int linked = 0;
  constexpr int kRounds = 20;
  for (uint64_t r = 1; r <= kRounds; ++r) {
    auto outcome = baseline::RunStrawmanRound(StrawmanRound(pop, r, true, rng));
    for (auto [a, b] : baseline::LinkPartnersByCoAccess(outcome.view)) {
      if (a == 0 && b == 1) {
        linked++;
      }
    }
  }
  std::printf("    strawman: adversary links the pair in %d/%d rounds (exact, zero noise)\n",
              linked, kRounds);
  std::printf("    vuvuzela: client-to-drop mapping never exists past an honest mixer; the\n"
              "              co-access view is unavailable at every compromised position\n");

  // --- Attack 2: disconnection signal ------------------------------------
  std::printf("\n  attack 2: disconnection differential (block Alice, watch m2)\n");
  int64_t strawman_signal_sum = 0;
  for (uint64_t r = 1; r <= kRounds; ++r) {
    auto with_alice = baseline::RunStrawmanRound(StrawmanRound(pop, 100 + r, true, rng));
    auto without = baseline::RunStrawmanRound(StrawmanRound(pop, 200 + r, false, rng));
    strawman_signal_sum +=
        baseline::DisconnectionSignal(with_alice.view.histogram, without.view.histogram);
  }
  std::printf("    strawman: mean m2 differential %.2f per round (true signal: 1.00, "
              "stddev 0)\n",
              static_cast<double>(strawman_signal_sum) / kRounds);

  // Vuvuzela with sampled noise: measure the differential's mean and spread.
  constexpr double kMu = 60.0, kB = 12.0;
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    mixnet::ChainConfig config;
    config.num_servers = 3;
    config.conversation_noise = {.params = {kMu, kB}, .deterministic = false};
    mixnet::Chain chain = mixnet::Chain::Create(config, rng);
    engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));

    auto run_round = [&](uint64_t round, bool alice_talks) {
      std::vector<util::Bytes> onions;
      for (size_t u = 0; u < pop.users.size(); ++u) {
        wire::ExchangeRequest request;
        if (alice_talks && u <= 1) {
          auto session =
              conversation::Session::Derive(pop.users[u], pop.users[1 - u].public_key);
          request = conversation::BuildExchangeRequest(session, round, {});
        } else {
          request = conversation::BuildFakeExchangeRequest(pop.users[u], round, rng);
        }
        onions.push_back(
            crypto::OnionWrap(chain.public_keys(), round, request.Serialize(), rng).data);
      }
      return scheduler.SubmitConversation(round, std::move(onions)).get();
    };
    auto with_alice = run_round(2 * t + 1, true);
    auto without = run_round(2 * t + 2, false);
    double diff = static_cast<double>(with_alice.histogram.pairs) -
                  static_cast<double>(without.histogram.pairs);
    sum += diff;
    sum_sq += diff * diff;
  }
  double mean = sum / kTrials;
  double stddev = std::sqrt(std::max(0.0, sum_sq / kTrials - mean * mean));
  std::printf("    vuvuzela (mu=%.0f, b=%.0f, sampled): mean differential %+.2f, "
              "stddev %.2f per round\n",
              kMu, kB, mean, stddev);
  std::printf("    -> per-round signal-to-noise %.3f; Theorem 2 quantifies the privacy that\n"
              "       survives k repetitions (see FIG7)\n",
              std::abs(mean) / std::max(1e-9, stddev));
  return 0;
}

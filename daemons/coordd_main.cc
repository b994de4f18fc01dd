// vuvuzela-coordd — the round coordinator as a standalone process (§7).
//
//   $ vuvuzela-coordd --hops 127.0.0.1:7341,127.0.0.1:7342,127.0.0.1:7343
//         --rounds 20 --k 3 --clients 40 --client-port 7331
//
// Connects to one vuvuzela-hopd per chain hop, waits for N TCP clients (a
// tools/client_fleet process plays §8.1's simulated users), announces rounds
// with a per-round admission window, and drives them through the pipelined
// engine with K rounds in flight. The coordinator holds no chain keys: it
// checks only onion sizes. Exits 0 iff every announced round completed.

#include <cstdio>
#include <string>
#include <vector>

#include "src/client/client.h"
#include "src/noise/laplace.h"
#include "src/obs/daemon_process.h"
#include "src/transport/coord_daemon.h"
#include "src/util/flags.h"

using namespace vuvuzela;

namespace {

// Rounds in flight (--k). A client keeps a round's layer keys for
// client::kPendingRoundHorizon rounds, which must outlast the expiry horizon
// (2K + 2 rounds) of any K this flag accepts.
constexpr size_t kMaxInFlight = 64;
static_assert(2 * kMaxInFlight + 2 < client::kPendingRoundHorizon);

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --hops host:port[,host:port...] --clients C [--client-port P]\n"
               "          [--dist host:port[,host:port...]]\n"
               "          [--rounds N] [--k K] [--window SEC] [--timeout-ms MS]\n"
               "          [--conv-per-dial N] [--retries R] [--metrics-port P]\n"
               "          [--mu M --dial-mu D --epsilon-budget E [--delta-budget DLT]]\n"
               "Rounds begin once C clients have connected; a round's admission window\n"
               "closes after SEC or once every connected client has submitted. --retries\n"
               "bounds submission attempts per round (a crashed round is re-submitted\n"
               "before the next announcement; 1 disables). K is at most 64.\n"
               "--dist publishes each dialing round's invitation table to those\n"
               "vuvuzela-distd shards, which clients download their buckets from\n"
               "(omitted: tables are not published). coordd keeps K+4 published rounds\n"
               "routable; size the shards' --max-rounds to at least K+4.\n"
               "--epsilon-budget E arms the privacy-budget accountant: rounds whose\n"
               "composed (Theorem 2) bound would exceed (E, --delta-budget) are refused\n"
               "before announcement. --mu/--dial-mu must match the hop daemons' flags.\n"
               "The charge is Theorem 1's bound for Laplace(mu, mu/20+1) noise, but\n"
               "vuvuzela-hopd adds a fixed mu cover messages per pass, for which no\n"
               "(eps, delta) guarantee holds: the spend is what sampling hops would spend.\n"
               "Noise and budget values must be finite and non-negative.\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  transport::CoordDaemonConfig config;
  config.admission_window_seconds = 0.02;
  config.shutdown_hops_on_exit = true;
  config.budget.delta_budget = 1e-4;
  // The accountant (§6) charges the noise the hops derive from the same
  // --mu/--dial-mu. The hops add a fixed µ instead of sampling it, so the
  // charge is not a guarantee (see the usage text).
  double mu = 50.0;
  double dial_mu = 10.0;
  util::FlagSet flags;
  obs::DaemonProcess process("vuvuzela-coordd", flags, obs::MetricsAnnouncement::kOwnLine);
  flags.Value("--hops",
              [&](const char* value) { return net::ParseEndpointList(value, &config.hops); });
  flags.Value("--dist",
              [&](const char* value) { return net::ParseEndpointList(value, &config.dist); });
  flags.Unsigned("--rounds", UINT64_MAX, &config.total_rounds);
  flags.Unsigned("--k", kMaxInFlight, &config.scheduler.max_in_flight);
  flags.Unsigned("--clients", UINT64_MAX, &config.num_clients);
  flags.Unsigned("--client-port", 65535, &config.client_port);
  flags.NonNegative("--window", &config.admission_window_seconds);
  flags.Unsigned("--timeout-ms", UINT64_MAX, &config.hop_timeout_ms);
  flags.Unsigned("--conv-per-dial", UINT64_MAX,
                 &config.schedule.conversation_rounds_per_dialing_round);
  // Submission attempts per round (1 = abandon on first failure).
  flags.Unsigned("--retries", UINT32_MAX, &config.max_round_attempts);
  flags.NonNegative("--mu", &mu);
  flags.NonNegative("--dial-mu", &dial_mu);
  // > 0 arms the accountant.
  flags.NonNegative("--epsilon-budget", &config.budget.epsilon_budget);
  flags.NonNegative("--delta-budget", &config.budget.delta_budget);
  if (!flags.Parse(argc, argv) || config.hops.empty() || config.max_round_attempts == 0) {
    Usage(argv[0]);
    return 2;
  }
  config.budget.conversation_noise = noise::HopNoise(mu);
  config.budget.dialing_noise = noise::HopNoise(dial_mu);
  process.SetTraceLabel("coordd");
  transport::CoordinatorDaemon coordinator(config);
  if (!coordinator.Start()) {
    std::fprintf(stderr, "vuvuzela-coordd: cannot start (--clients and --k must be >= 1, every "
                         "hop and dist shard reachable, and the ports free)\n");
    Usage(argv[0]);
    return 1;
  }
  if (!process.Ready("waiting for " + std::to_string(config.num_clients) +
                     " clients on 127.0.0.1:" + std::to_string(coordinator.client_port()))) {
    return 1;
  }

  transport::CoordDaemonResult result = coordinator.Run();
  uint64_t completed = result.conversation_rounds_completed + result.dialing_rounds_completed;
  std::printf("vuvuzela-coordd: completed %llu conversation rounds, %llu dialing rounds, "
              "%llu abandoned, %llu retried, %llu messages exchanged in %.2f s "
              "(%.0f msgs/sec)\n",
              static_cast<unsigned long long>(result.conversation_rounds_completed),
              static_cast<unsigned long long>(result.dialing_rounds_completed),
              static_cast<unsigned long long>(result.rounds_abandoned),
              static_cast<unsigned long long>(result.rounds_retried),
              static_cast<unsigned long long>(result.messages_exchanged), result.wall_seconds,
              result.wall_seconds > 0 ? result.messages_exchanged / result.wall_seconds : 0.0);
  if (config.budget.epsilon_budget > 0.0) {
    std::printf("vuvuzela-coordd: privacy budget: eps_spent=%.4f/%.4f "
                "delta_spent=%.3g/%.3g, %llu rounds refused\n",
                result.epsilon_spent, config.budget.epsilon_budget, result.delta_spent,
                config.budget.delta_budget,
                static_cast<unsigned long long>(result.rounds_refused));
  }
  // The accountant's series are in it even when the budget is off, so smoke
  // runs can assert zero refusals.
  process.PrintSnapshot();
  // A refused round never completed, so an exhausted budget exits nonzero by
  // construction. Whether every client got its buckets is the clients' to
  // report (tools/client_fleet checks it).
  return (completed == config.total_rounds && result.rounds_abandoned == 0) ? 0 : 1;
}

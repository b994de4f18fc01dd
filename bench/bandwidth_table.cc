// TAB-BW — the bandwidth numbers scattered through §1, §8.2 and §8.3:
//  * server bandwidth ~166 MB/s at 1M users;
//  * client conversation bandwidth: one 256 B message up/down per round
//    ("negligible");
//  * dialing download: ~39,000 noise + ~50,000 real invitations ≈ 7 MB per
//    10-minute round ≈ 12 KB/s per client;
//  * aggregate invitation distribution: ~12 GB/s for 1M users (CDN).

#include <cstdio>
#include <future>
#include <optional>

#include "bench/bench_util.h"
#include "bench/round_runner.h"
#include "src/crypto/onion.h"
#include "src/net/frame.h"
#include "src/sim/client_fleet.h"
#include "src/sim/cost_model.h"
#include "src/sim/wiretap.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"
#include "src/wire/constants.h"

using namespace vuvuzela;

// Measured per-client cost row: a real deployment (loopback hop daemons +
// dist shards) driven by the real coordinator and a sim::RunClientFleet of
// `users` clients, with the coordd→hop0 link behind a sim::WireTap.
// Conversation up/down bytes per client come off the tapped wire
// (frame-attributed, so only the conversation passes count); the dialing
// download is what the fleet's client::DialingFetchers took off the wire
// from the dist shards, chunk framing included, per fetch — the same
// accounting §8.3 quotes per client.
static void MeasuredPerClientRow() {
  const uint64_t users = bench::FullScale() ? 200 : 24;
  const uint64_t rounds = 8;
  constexpr uint64_t kSeed = 0xbee5;

  mixnet::ChainConfig chain_config;
  chain_config.num_servers = 3;
  chain_config.conversation_noise = {.params = {6.0, 2.0}, .deterministic = true};
  chain_config.dialing_noise = {.params = {6.0, 2.0}, .deterministic = true};

  auto dist = transport::StartDistShards(2);
  auto chain = transport::LoopbackChain::Start(chain_config, kSeed);
  if (dist == nullptr || chain == nullptr) {
    std::printf("    (skipped: deployment failed to start)\n");
    return;
  }
  sim::WireTapConfig tap_config;
  tap_config.label = "coordd-hop0";
  tap_config.upstream_port = chain->port(0);
  auto tap = sim::WireTap::Start(tap_config);
  if (tap == nullptr) {
    std::printf("    (skipped: wire tap failed to bind)\n");
    return;
  }

  transport::CoordDaemonConfig config;
  config.hops.push_back({"127.0.0.1", tap->port()});
  for (size_t i = 1; i < chain->size(); ++i) {
    config.hops.push_back({"127.0.0.1", chain->port(i)});
  }
  config.dist = dist->endpoints();
  config.schedule.conversation_rounds_per_dialing_round = 3;
  config.total_rounds = rounds;
  config.admission_window_seconds = 1.0;  // closes as soon as every client submitted
  config.num_clients = users;
  transport::CoordinatorDaemon coordinator(config);
  if (!coordinator.Start()) {
    std::printf("    (skipped: coordinator failed to start)\n");
    return;
  }
  sim::ClientFleetConfig fleet_config;
  fleet_config.coordinator.port = coordinator.client_port();
  fleet_config.dist = config.dist;
  fleet_config.chain = chain->public_keys();
  fleet_config.users = users;
  auto fleet = std::async(std::launch::async, sim::RunClientFleet, fleet_config);
  transport::CoordDaemonResult result = coordinator.Run();
  std::optional<sim::ClientFleetResult> fleet_result = fleet.get();

  uint64_t up_bytes = 0, down_bytes = 0;
  for (const auto& record : tap->Records()) {
    if (record.direction == sim::TapDirection::kForward &&
        record.frame_type == static_cast<uint8_t>(net::FrameType::kHopForwardConversation)) {
      up_bytes += record.bytes;  // the user batch entering the chain
    }
    if (record.direction == sim::TapDirection::kBackward &&
        record.frame_type == static_cast<uint8_t>(net::FrameType::kHopBackwardConversation)) {
      down_bytes += record.bytes;  // the responses leaving hop0
    }
  }
  tap->Shutdown();

  double conv_rounds = static_cast<double>(result.conversation_rounds_completed);
  double denom = conv_rounds * static_cast<double>(users);
  double up_per_client = denom > 0 ? static_cast<double>(up_bytes) / denom : 0.0;
  double down_per_client = denom > 0 ? static_cast<double>(down_bytes) / denom : 0.0;

  // A client's dialing download: one whole bucket per dialing round, the
  // mean over every fetch the fleet made from the dist shards.
  double dial_bytes_per_client =
      fleet_result && fleet_result->dialing_fetches > 0
          ? static_cast<double>(fleet_result->dialing_fetch_bytes) /
                static_cast<double>(fleet_result->dialing_fetches)
          : 0.0;

  std::printf("    %llu users, %llu conv + %llu dial rounds (wire-tapped):\n",
              static_cast<unsigned long long>(users),
              static_cast<unsigned long long>(result.conversation_rounds_completed),
              static_cast<unsigned long long>(result.dialing_rounds_completed));
  std::printf("    conversation: %.0f B up + %.0f B down per client per round\n",
              up_per_client, down_per_client);
  std::printf("    dialing download: %.0f B per client per round (mean bucket)\n",
              dial_bytes_per_client);
  bench::EmitJson("tab_bw_per_client",
                  {{"users", static_cast<double>(users)},
                   {"conv_rounds", conv_rounds},
                   {"conv_up_bytes_per_client", up_per_client},
                   {"conv_down_bytes_per_client", down_per_client},
                   {"dial_fetch_bytes_per_client", dial_bytes_per_client}});
}

int main() {
  bench::PrintHeader("TAB-BW", "bandwidth accounting (§1, §8.2, §8.3)");

  constexpr uint64_t kUsers = 1000000;
  constexpr size_t kServers = 3;
  constexpr double kConvMu = 300000;
  constexpr double kDialMu = 13000;
  constexpr double kDialFraction = 0.05;
  constexpr double kDialRoundSeconds = 600;  // 10-minute dialing rounds

  sim::CostModel model = sim::CostModel::Measure();
  double stage = model.ConversationMaxStageSeconds(kUsers, kServers, kConvMu);

  std::printf("\n  server side (1M users, mu=300K, 3 servers):\n");
  for (size_t position = 0; position < kServers; ++position) {
    uint64_t bytes = model.ConversationServerBytes(kUsers, kServers, kConvMu, position);
    std::printf("    server %zu: %6.1f MB per round -> %6.1f MB/s at pipelined round period "
                "%.1f s\n",
                position, static_cast<double>(bytes) / 1e6,
                static_cast<double>(bytes) / 1e6 / stage, stage);
  }
  std::printf("    paper: \"servers use an average of 166 MB/sec\" at 1M users\n");

  std::printf("\n  client side, conversation:\n");
  size_t up = crypto::OnionRequestSize(wire::kExchangeRequestSize, kServers);
  size_t down = crypto::OnionResponseSize(wire::kEnvelopeSize, kServers);
  double latency = model.ConversationRoundLatency(kUsers, kServers, kConvMu);
  std::printf("    %zu B up + %zu B down per round (%.1f s) = %.0f B/s (paper: negligible)\n",
              up, down, latency, static_cast<double>(up + down) / latency);

  std::printf("\n  client side, dialing download (m=1 real drop, as in §7/§8.3):\n");
  double noise_invitations = kDialMu * kServers;
  double real_invitations = static_cast<double>(kUsers) * kDialFraction;
  double drop_bytes = (noise_invitations + real_invitations) * wire::kInvitationSize;
  std::printf("    %.0f noise + %.0f real invitations = %.1f MB per round "
              "(paper: ~39K noise, 50K real, ~7 MB)\n",
              noise_invitations, real_invitations, drop_bytes / 1e6);
  std::printf("    per-client rate: %.1f KB/s (paper: ~12 KB/s)\n",
              drop_bytes / kDialRoundSeconds / 1e3);

  std::printf("\n  aggregate invitation distribution (CDN, §1):\n");
  std::printf("    %.1f GB/s for 1M clients (paper: ~12 GB/s)\n",
              drop_bytes * static_cast<double>(kUsers) / kDialRoundSeconds / 1e9);

  // Cross-check the model's byte accounting against a real reduced-scale
  // round's measured counters (smoke scale shrinks the round to CI size).
  const uint64_t check_users = bench::SmokeScale() ? 2000 : 10000;
  const double check_mu = bench::SmokeScale() ? 600 : 3000;
  std::printf("\n  cross-check vs real round (%s users, mu=%s):\n",
              bench::Human(static_cast<double>(check_users)).c_str(),
              bench::Human(check_mu).c_str());
  bench::RealRound round =
      bench::RunRealConversationRound(check_users, kServers, check_mu, 5);
  uint64_t measured = 0;
  for (const auto& s : round.stats.forward) {
    measured += s.bytes_in + s.bytes_out;
  }
  for (const auto& s : round.stats.backward) {
    measured += s.bytes_in + s.bytes_out;
  }
  uint64_t modeled = 0;
  for (size_t position = 0; position < kServers; ++position) {
    modeled += model.ConversationServerBytes(check_users, kServers, check_mu, position);
  }
  std::printf("    measured %llu bytes, modeled %llu bytes (%.0f%%)\n",
              static_cast<unsigned long long>(measured),
              static_cast<unsigned long long>(modeled),
              100.0 * static_cast<double>(measured) / static_cast<double>(modeled));
  bench::EmitJson("tab_bw_crosscheck",
                  {{"users", static_cast<double>(check_users)},
                   {"measured_bytes", static_cast<double>(measured)},
                   {"modeled_bytes", static_cast<double>(modeled)}});

  std::printf("\n  measured per-client (real deployment behind a wire tap):\n");
  MeasuredPerClientRow();
  return 0;
}

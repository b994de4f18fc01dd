// Adversarial privacy suite, part 2: wire-tap correlation attacks on a real
// multi-process deployment.
//
// The adversary of §3 watches every link. This test builds that adversary for
// real: two deployments — three vuvuzela-hopd-equivalent processes plus a
// vuvuzela-exchanged-equivalent process each — with a WireTap relay inserted
// on every edge (coordd→hop0/1/2, last-hop→exchanged), and a client fleet
// entering through the coordinator's front door with a per-round user load
// that varies round to round (the signal a traffic-analysis adversary wants
// to trace). Deployment A runs sampled paper-style noise; deployment B
// runs the same schedule with noise disabled.
//
// The Bahramali-style segment-matching attack cross-correlates the per-round
// byte series from a sender-side link (coordd→hop0 forward-conversation
// frames: exactly the user onions, before any server adds cover traffic)
// with a receiver-side link (last-hop→exchanged: users plus every server's
// noise). With noise on, accuracy must sit at chance; with noise off it must
// be (near) perfect — the converse direction that proves the harness and the
// attack actually work, so the at-chance result cannot be vacuous.
//
// FORK DISCIPLINE: every child process is forked before any thread exists in
// the parent (bench/forked_fleet.h requirement), which is why both
// deployments are spawned up front and the taps are Create()d (bind only)
// before the forks that need their ports, then Activate()d afterwards. Each
// hop builds its MixServer inside its child, so the global thread pool its
// passes fan out over starts there, never in the parent before a fork.
//
// Everything is seeded: chain keys, noise RNGs (sampled noise draws from the
// key-ceremony-derived per-server RNG), and the user schedule, so the byte
// series — and therefore the attack's accuracy — are reproducible.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/forked_fleet.h"
#include "src/mixnet/chain.h"
#include "src/net/frame.h"
#include "src/sim/client_fleet.h"
#include "src/sim/correlation.h"
#include "src/sim/wiretap.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/exchange_daemon.h"
#include "src/transport/hop_chain.h"

namespace vuvuzela {
namespace {

constexpr size_t kHops = 3;
constexpr uint64_t kRounds = 36;
constexpr size_t kSegments = 6;
constexpr uint64_t kSeedA = 0x7ab5;
constexpr uint64_t kSeedB = 0x7ab6;
// The fleet: the largest round of the schedule below.
constexpr uint64_t kUsers = 23;

// Per-round user counts: the varying load the attack traces. A fixed LCG
// keeps it reproducible and segment-distinct.
std::vector<uint64_t> UserSchedule() {
  std::vector<uint64_t> schedule;
  uint64_t state = 0x5eed;
  for (uint64_t i = 0; i < kRounds; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    schedule.push_back(6 + (state >> 33) % 18);  // 6..kUsers users
  }
  return schedule;
}

struct TappedDeployment {
  std::vector<bench::ForkedServer> exchanged;
  std::vector<bench::ForkedServer> hops;
  std::unique_ptr<sim::WireTap> exchange_tap;
  std::vector<std::unique_ptr<sim::WireTap>> hop_taps;  // coordd→hop i
};

// Forks the processes and binds (but does not activate) the taps. Must run
// before any parent thread exists.
TappedDeployment SpawnTapped(const mixnet::ChainConfig& chain_config, uint64_t seed,
                             const std::string& tag) {
  TappedDeployment d;
  d.exchanged = bench::SpawnForkedFleet(1, [](uint32_t shard, uint32_t num_shards) {
    transport::ExchangedConfig config;
    config.shard_index = shard;
    config.num_shards = num_shards;
    return transport::ExchangedDaemon::Create(config);
  });
  if (d.exchanged.empty()) {
    return d;
  }
  sim::WireTapConfig ex_tap;
  ex_tap.label = tag + ":hop2-exchanged";
  ex_tap.upstream_port = d.exchanged[0].port;
  d.exchange_tap = sim::WireTap::Create(ex_tap);
  if (d.exchange_tap == nullptr) {
    return d;
  }
  // The last hop's exchange endpoint is the tap — its listener is already
  // bound, so the child's router connect lands in the backlog and is picked
  // up when the tap activates.
  uint16_t exchange_port = d.exchange_tap->port();
  d.hops = bench::SpawnForkedFleet(
      static_cast<uint32_t>(kHops), [&](uint32_t shard, uint32_t num_shards) {
        auto keys = transport::DeriveChainKeys(seed, num_shards);
        auto server = mixnet::BuildMixServer(chain_config, keys, shard);
        transport::HopDaemonConfig config;
        if (shard == num_shards - 1) {
          config.exchange.shards.push_back({"127.0.0.1", exchange_port});
        }
        return transport::HopDaemon::Create(config, std::move(server));
      });
  for (const auto& hop : d.hops) {
    sim::WireTapConfig tap;
    tap.label = tag + ":coordd-hop" + std::to_string(d.hop_taps.size());
    tap.upstream_port = hop.port;
    d.hop_taps.push_back(sim::WireTap::Create(tap));
  }
  return d;
}

bool Activate(TappedDeployment& d) {
  if (d.exchange_tap == nullptr || d.hop_taps.size() != kHops) {
    return false;
  }
  for (const auto& tap : d.hop_taps) {
    if (tap == nullptr) {
      return false;
    }
  }
  d.exchange_tap->Activate();
  for (auto& tap : d.hop_taps) {
    tap->Activate();
  }
  return true;
}

void Reap(TappedDeployment& d) {
  bench::KillForkedFleet(d.hops);
  bench::KillForkedFleet(d.exchanged);
}

// Drives the full schedule through the tapped deployment from an in-process
// coordinator (the same CoordinatorDaemon class vuvuzela-coordd runs), with
// the scheduled users arriving as a client fleet.
transport::CoordDaemonResult RunCoordinator(const TappedDeployment& d, uint64_t seed) {
  transport::CoordDaemonConfig config;
  for (const auto& tap : d.hop_taps) {
    config.hops.push_back({"127.0.0.1", tap->port()});
  }
  config.scheduler.max_in_flight = 2;
  config.schedule.conversation_rounds_per_dialing_round = 1000;  // conversation only
  config.total_rounds = kRounds;
  // Most rounds leave some of the fleet silent, so their windows run out in
  // full: long enough for every scheduled client to submit.
  config.admission_window_seconds = 0.1;
  config.hop_timeout_ms = 10000;
  config.num_clients = kUsers;
  config.shutdown_hops_on_exit = true;  // cascades to the exchanged process
  transport::CoordinatorDaemon coordinator(std::move(config));
  if (!coordinator.Start()) {
    return {};
  }
  sim::ClientFleetConfig fleet_config;
  fleet_config.coordinator.port = coordinator.client_port();
  fleet_config.chain = transport::DeriveChainKeys(seed, kHops).public_keys;
  fleet_config.users = kUsers;
  fleet_config.seed = seed;
  fleet_config.users_per_round = UserSchedule();
  auto fleet = std::async(std::launch::async, sim::RunClientFleet, fleet_config);
  transport::CoordDaemonResult result = coordinator.Run();
  EXPECT_TRUE(fleet.get().has_value());
  return result;
}

// Sender-side observable: per-round bytes of forward-conversation frames on
// the coordd→hop0 link — the user batch before any server added noise.
// (Unfiltered forward bytes would also count the backward pass's request,
// whose size includes hop0's own noise responses.)
std::map<uint64_t, uint64_t> SenderSeries(const sim::WireTap& tap) {
  std::map<uint64_t, uint64_t> series;
  for (const auto& record : tap.Records()) {
    if (record.direction == sim::TapDirection::kForward &&
        record.frame_type == static_cast<uint8_t>(net::FrameType::kHopForwardConversation) &&
        record.round != 0) {
      series[record.round] += record.bytes;
    }
  }
  return series;
}

sim::AttackResult Attack(const TappedDeployment& d) {
  std::map<uint64_t, uint64_t> sender = SenderSeries(*d.hop_taps[0]);
  std::map<uint64_t, uint64_t> receiver =
      d.exchange_tap->PerRoundBytes(sim::TapDirection::kForward);
  sim::AlignedSeries aligned = sim::AlignRoundSeries(sender, receiver);
  EXPECT_EQ(aligned.rounds.size(), kRounds);
  return sim::SegmentMatchingAttack(aligned.a, aligned.b, kSegments);
}

TEST(WiretapAttack, CorrelationAttackOnRealDeployment) {
  // Deployment A: sampled cover traffic, scale chosen so the per-round noise
  // swamps the user-count signal (std ≈ 100+ requests vs ≈ 5 users).
  mixnet::ChainConfig noisy;
  noisy.num_servers = kHops;
  noisy.conversation_noise = {.params = {40.0, 20.0}, .deterministic = false};
  noisy.dialing_noise = {.params = {40.0, 20.0}, .deterministic = false};

  // Deployment B: same schedule, cover traffic off — ⌈max(0, L(0, 1))⌉ with
  // a deterministic plan adds exactly zero requests at every server.
  mixnet::ChainConfig silent = noisy;
  silent.conversation_noise = {.params = {0.0, 1.0}, .deterministic = true};
  silent.dialing_noise = {.params = {0.0, 1.0}, .deterministic = true};

  // All fork()s happen here, before any parent thread.
  TappedDeployment a = SpawnTapped(noisy, kSeedA, "noisy");
  TappedDeployment b = SpawnTapped(silent, kSeedB, "silent");
  ASSERT_TRUE(Activate(a));
  ASSERT_TRUE(Activate(b));

  // --- Deployment A: with the paper's defense up, the attack is blind. ---
  transport::CoordDaemonResult result_a = RunCoordinator(a, kSeedA);
  EXPECT_EQ(result_a.conversation_rounds_completed, kRounds);
  EXPECT_EQ(result_a.rounds_abandoned, 0u);

  // Every tapped edge saw traffic in both directions, attributed to rounds.
  for (const auto& tap : a.hop_taps) {
    EXPECT_GT(tap->bytes_forward(), 0u) << tap->label();
    EXPECT_GT(tap->bytes_backward(), 0u) << tap->label();
    EXPECT_FALSE(tap->PerRoundBytes(sim::TapDirection::kForward).empty()) << tap->label();
    EXPECT_FALSE(tap->PerRoundBytes(sim::TapDirection::kBackward).empty()) << tap->label();
  }
  EXPECT_GT(a.exchange_tap->bytes_forward(), 0u);
  EXPECT_GT(a.exchange_tap->bytes_backward(), 0u);

  // The adversary's offline artifact: JSONL with both directions on record.
  std::string dump = a.hop_taps[0]->DumpJsonl();
  EXPECT_NE(dump.find("\"dir\":\"fwd\""), std::string::npos);
  EXPECT_NE(dump.find("\"dir\":\"rev\""), std::string::npos);
  EXPECT_NE(dump.find("noisy:coordd-hop0"), std::string::npos);

  sim::AttackResult noisy_attack = Attack(a);
  Reap(a);
  EXPECT_EQ(noisy_attack.segments, kSegments);
  EXPECT_DOUBLE_EQ(noisy_attack.chance, 1.0 / kSegments);
  // At chance: with 6 segments an oblivious adversary expects 1 hit; the
  // defense holds as long as the attack cannot beat that by more than one
  // lucky segment. (Deterministic for the fixed seeds above.)
  EXPECT_LE(noisy_attack.accuracy, noisy_attack.chance + 1.0 / kSegments)
      << "correlation attack beat chance despite cover traffic";

  // --- Deployment B: defense off, the same attack must win — proving the
  // harness, the taps, and the estimator actually carry the signal. ---
  transport::CoordDaemonResult result_b = RunCoordinator(b, kSeedB);
  EXPECT_EQ(result_b.conversation_rounds_completed, kRounds);

  sim::AttackResult silent_attack = Attack(b);
  Reap(b);
  EXPECT_GE(silent_attack.accuracy, 0.99)
      << "attack failed to trace traffic even with noise disabled — "
         "the at-chance result above would be vacuous";
}

}  // namespace
}  // namespace vuvuzela

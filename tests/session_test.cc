// The traffic shape at the client edge (§3.2, §5.2): whatever its user is
// doing, a client's frames on its link to coordd must look the same, since
// that link is what a traffic-analysis adversary (Bahramali et al.) watches.
// Four client::RunSession clients (idle, in a silent conversation, dialing,
// dialed) and two raw clients that break the shape each reach coordd
// through their own sim::WireTap. Every honest tap must show the same
// per-round sequence of (frame type, wire bytes) in both directions, each
// honest client must fetch its bucket from distd exactly once per
// acknowledged dialing round, and the same comparison must flag both broken
// clients.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/client/session.h"
#include "src/sim/wiretap.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela {
namespace {

constexpr uint64_t kSeed = 0x5ea7;
constexpr uint32_t kDrops = 4;  // three real drops and the no-op drop

// Per round, the (frame type, wire bytes) of every frame in one direction,
// in the order they crossed the tap.
using Shape = std::map<uint64_t, std::vector<std::pair<uint8_t, uint64_t>>>;

Shape ShapeOf(const sim::WireTap& tap, sim::TapDirection direction) {
  Shape shape;
  for (const sim::TapRecord& record : tap.Records()) {
    if (record.direction == direction) {
      shape[record.round].emplace_back(record.frame_type, record.bytes);
    }
  }
  return shape;
}

// The rounds of `type` frames on `taps` in `direction`, with their counts.
std::map<uint64_t, size_t> FramesOf(std::span<const std::unique_ptr<sim::WireTap>> taps,
                                    sim::TapDirection direction, net::FrameType type) {
  std::map<uint64_t, size_t> rounds;
  for (const auto& tap : taps) {
    for (const sim::TapRecord& record : tap->Records()) {
      if (record.direction == direction && record.frame_type == static_cast<uint8_t>(type)) {
        ++rounds[record.round];
      }
    }
  }
  return rounds;
}

std::unique_ptr<sim::WireTap> Tap(uint16_t upstream) {
  return sim::WireTap::Start({.label = "client", .upstream_port = upstream});
}

// A client that breaks the shape: each announcement is answered with its
// onion padded by `pad` bytes, sent `copies` times.
void RunBroken(uint16_t port, client::VuvuzelaClient& vuvuzela, size_t pad, int copies) {
  auto conn = net::TcpConnection::Connect("127.0.0.1", port);
  ASSERT_TRUE(conn.has_value());
  while (auto frame = conn->RecvFrame()) {
    if (frame->type == net::FrameType::kShutdown) {
      return;
    }
    if (frame->type != net::FrameType::kRoundAnnouncement) {
      continue;
    }
    auto announcement = wire::RoundAnnouncement::Parse(frame->payload);
    ASSERT_TRUE(announcement.has_value());
    const bool conversation = announcement->type == wire::RoundType::kConversation;
    util::Bytes onion =
        conversation ? vuvuzela.PrepareConversationOnions(frame->round)[0]
                     : vuvuzela.PrepareDialOnion(frame->round, {.num_real_drops = kDrops - 1});
    onion.resize(onion.size() + pad);
    for (int i = 0; i < copies; ++i) {
      conn->SendFrame({conversation ? net::FrameType::kConversationRequest
                                    : net::FrameType::kDialRequest,
                       frame->round, onion});
    }
  }
}

TEST(ClientSession, EveryClientShowsTheSameShapeAtTheClientEdge) {
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = 3;
  chain_config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
  chain_config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  auto chain = transport::LoopbackChain::Start(chain_config, kSeed);
  auto group = transport::StartDistShards(2);
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(group, nullptr);

  enum Client { kIdle, kSilent, kDialer, kDialed, kPadded, kDoubled, kClients };
  transport::CoordDaemonConfig config;
  config.hops = chain->endpoints();
  config.dist = group->endpoints();
  config.scheduler.max_in_flight = 2;
  config.schedule.conversation_rounds_per_dialing_round = 1;  // alternate C/D
  config.schedule.dial_dead_drops = kDrops;
  config.total_rounds = 6;
  config.admission_window_seconds = 2.0;  // closes once every client submitted
  config.num_clients = kClients;
  transport::CoordinatorDaemon coordinator(config);
  ASSERT_TRUE(coordinator.Start());

  util::Xoshiro256Rng rng(kSeed);
  std::vector<client::VuvuzelaClient> clients;
  for (int i = 0; i < kClients; ++i) {
    crypto::ChaCha20Key rng_seed;
    rng.Fill(rng_seed);
    clients.emplace_back(
        client::ClientConfig{.keys = crypto::X25519KeyPair::Generate(rng),
                             .chain = chain->public_keys()},
        rng_seed);
  }
  // A partner who never comes online: the conversation stays silent.
  clients[kSilent].AcceptCall(crypto::X25519KeyPair::Generate(rng).public_key);
  clients[kDialer].Dial(clients[kDialed].public_key());

  // Every client reaches coordd through a tap of its own, and each honest
  // client reaches every dist shard through taps of its own.
  std::vector<std::unique_ptr<sim::WireTap>> coord_taps;
  std::vector<std::vector<std::unique_ptr<sim::WireTap>>> dist_taps(kDialed + 1);
  std::vector<transport::ShardFleetConfig> fetch_configs(kDialed + 1);
  for (int i = 0; i < kClients; ++i) {
    coord_taps.push_back(Tap(coordinator.client_port()));
    ASSERT_NE(coord_taps.back(), nullptr);
  }
  for (int i = kIdle; i <= kDialed; ++i) {
    for (size_t s = 0; s < group->size(); ++s) {
      dist_taps[i].push_back(Tap(group->port(s)));
      ASSERT_NE(dist_taps[i].back(), nullptr);
      fetch_configs[i].shards.push_back({"127.0.0.1", dist_taps[i].back()->port()});
    }
  }
  std::vector<std::thread> threads;
  for (int i = kIdle; i <= kDialed; ++i) {
    threads.emplace_back([&, i] {
      auto conn = net::TcpConnection::Connect("127.0.0.1", coord_taps[i]->port());
      ASSERT_TRUE(conn.has_value());
      client::DialingFetcher fetcher(fetch_configs[i]);
      client::RunSession(clients[i], *conn, &fetcher);
    });
  }
  threads.emplace_back(RunBroken, coord_taps[kPadded]->port(), std::ref(clients[kPadded]), 1, 1);
  threads.emplace_back(RunBroken, coord_taps[kDoubled]->port(), std::ref(clients[kDoubled]), 0,
                       2);
  transport::CoordDaemonResult result = coordinator.Run();
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (auto& tap : coord_taps) {
    tap->Shutdown();  // joins the pumps: every frame is on record
  }
  for (auto& taps : dist_taps) {
    for (auto& tap : taps) {
      tap->Shutdown();
    }
  }
  EXPECT_EQ(result.conversation_rounds_completed, 3u);
  EXPECT_EQ(result.dialing_rounds_completed, 3u);
  EXPECT_EQ(result.rounds_abandoned, 0u);
  std::vector<client::IncomingCall> calls = clients[kDialed].TakeIncomingCalls();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].caller, clients[kDialer].public_key());

  // One request a round, every round, from every honest client.
  const Shape sent = ShapeOf(*coord_taps[kIdle], sim::TapDirection::kForward);
  const Shape received = ShapeOf(*coord_taps[kIdle], sim::TapDirection::kBackward);
  ASSERT_EQ(sent.size(), 6u);
  for (const auto& [round, frames] : sent) {
    EXPECT_EQ(frames.size(), 1u) << "round " << round;
  }
  EXPECT_FALSE(received.empty());
  for (int i = kSilent; i <= kDialed; ++i) {
    EXPECT_EQ(ShapeOf(*coord_taps[i], sim::TapDirection::kForward), sent) << "client " << i;
    EXPECT_EQ(ShapeOf(*coord_taps[i], sim::TapDirection::kBackward), received) << "client " << i;
  }
  // Each honest client downloads once per acknowledged dialing round.
  const std::map<uint64_t, size_t> acks =
      FramesOf({&coord_taps[kIdle], 1}, sim::TapDirection::kBackward, net::FrameType::kDialAck);
  EXPECT_EQ(acks.size(), 3u);
  for (int i = kIdle; i <= kDialed; ++i) {
    EXPECT_EQ(FramesOf(dist_taps[i], sim::TapDirection::kForward, net::FrameType::kInvitationFetch),
              acks)
        << "client " << i;
  }
  // The comparison flags both broken clients.
  EXPECT_NE(ShapeOf(*coord_taps[kPadded], sim::TapDirection::kForward), sent);
  EXPECT_NE(ShapeOf(*coord_taps[kDoubled], sim::TapDirection::kForward), sent);
}

}  // namespace
}  // namespace vuvuzela

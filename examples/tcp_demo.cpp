// Networked deployment over real TCP sockets (the §7 topology on loopback),
// built on the hop transport subsystem:
//
//   clients ──TCP── vuvuzela-coordd ──TCP── hopd 0 / hopd 1 / hopd 2
//
//   $ ./build/examples/tcp_demo
//
// Each chain hop runs as a transport::HopDaemon behind its own listener (here
// on threads of one process; daemons/hopd_main.cc is the same daemon as a
// standalone binary). The coordinator connects one ReconnectingTransport per
// hop (one transport::PeerLink each) and drives rounds through
// engine::RoundScheduler — the identical pipelining discipline the
// in-process harness uses, now with every mix pass crossing a socket as a
// chunked batch message. The clients are real VuvuzelaClients on real
// connections: they answer round announcements inside the admission window
// and handle responses for earlier rounds while later rounds are already in
// flight (client-side pipelining, §8.3).
//
// Exits 0 iff every round completed and each client received its partner's
// message.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

using namespace vuvuzela;

namespace {

constexpr size_t kNumServers = 3;
constexpr uint64_t kRounds = 6;
constexpr uint64_t kSeed = 20151005;

// A client over TCP: answers announcements with onions, decrypts responses as
// they surface (possibly after later rounds were announced), and appends the
// messages it receives to `received`.
void RunClient(const char* name, client::VuvuzelaClient* vuvuzela, uint16_t coord_port,
               const crypto::X25519PublicKey& partner, const char* to_send,
               std::vector<std::string>* received) {
  auto conn = net::TcpConnection::Connect("127.0.0.1", coord_port);
  if (!conn) {
    return;
  }
  vuvuzela->AcceptCall(partner);  // keys pre-exchanged (§2.3 assumption)
  util::Bytes payload(to_send, to_send + strlen(to_send));
  vuvuzela->SendMessage(partner, payload);

  for (;;) {
    auto frame = conn->RecvFrame();
    if (!frame || frame->type == net::FrameType::kShutdown) {
      return;
    }
    if (frame->type == net::FrameType::kRoundAnnouncement) {
      auto onions = vuvuzela->PrepareConversationOnions(frame->round);
      conn->SendFrame(net::Frame{net::FrameType::kConversationRequest, frame->round, onions[0]});
    } else if (frame->type == net::FrameType::kConversationResponse) {
      std::vector<util::Bytes> responses = {frame->payload};
      vuvuzela->HandleConversationResponses(frame->round, responses);
      for (const auto& m : vuvuzela->TakeReceivedMessages()) {
        received->emplace_back(m.payload.begin(), m.payload.end());
        std::printf("  [%s] received: \"%s\"\n", name, received->back().c_str());
      }
    }
  }
}

}  // namespace

int main() {
  std::printf("Vuvuzela over TCP: coordinator + %zu hop daemons + 2 clients on loopback,\n"
              "rounds pipelined through the chain (%llu rounds, K=3)\n\n",
              kNumServers, static_cast<unsigned long long>(kRounds));

  // The hop daemons: one MixServer per hop behind a loopback listener, all
  // deriving key material from the shared seed.
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = kNumServers;
  chain_config.conversation_noise = {.params = {8.0, 2.0}, .deterministic = false};
  auto hops = transport::LoopbackChain::Start(chain_config, kSeed);
  if (!hops) {
    std::fprintf(stderr, "failed to start hop daemons\n");
    return 1;
  }
  for (size_t i = 0; i < hops->size(); ++i) {
    std::printf("  [hopd %zu] listening on 127.0.0.1:%u\n", i, hops->port(i));
  }

  // The coordinator: admission window + pipelined submission over TCP hops.
  transport::CoordDaemonConfig coord_config;
  for (size_t i = 0; i < hops->size(); ++i) {
    coord_config.hops.push_back({"127.0.0.1", hops->port(i)});
  }
  coord_config.scheduler.max_in_flight = 3;
  coord_config.total_rounds = kRounds;
  coord_config.admission_window_seconds = 0.25;
  coord_config.num_clients = 2;
  transport::CoordinatorDaemon coordinator(std::move(coord_config));
  if (!coordinator.Start()) {
    std::fprintf(stderr, "coordinator failed to reach the hops\n");
    return 1;
  }
  uint16_t coord_port = coordinator.client_port();
  std::printf("  [coordd] accepting clients on 127.0.0.1:%u\n\n", coord_port);

  // Two clients with pre-exchanged keys, wrapping onions for the derived
  // chain public keys.
  util::Xoshiro256Rng rng(kSeed ^ 0xc11e57);
  auto alice_keys = crypto::X25519KeyPair::Generate(rng);
  auto bob_keys = crypto::X25519KeyPair::Generate(rng);
  auto make_client = [&](const crypto::X25519KeyPair& kp) {
    client::ClientConfig config;
    config.keys = kp;
    config.chain = hops->public_keys();
    crypto::ChaCha20Key seed;
    rng.Fill(seed);
    return client::VuvuzelaClient(config, seed);
  };
  client::VuvuzelaClient alice = make_client(alice_keys);
  client::VuvuzelaClient bob = make_client(bob_keys);

  const std::string alice_says = "meet at the usual place";
  const std::string bob_says = "confirmed, bring the docs";
  std::vector<std::string> alice_received;
  std::vector<std::string> bob_received;
  std::thread alice_thread(RunClient, "alice", &alice, coord_port, bob_keys.public_key,
                           alice_says.c_str(), &alice_received);
  std::thread bob_thread(RunClient, "bob", &bob, coord_port, alice_keys.public_key,
                         bob_says.c_str(), &bob_received);

  transport::CoordDaemonResult result = coordinator.Run();
  alice_thread.join();
  bob_thread.join();
  hops.reset();  // stops the hop daemons

  std::printf("\n%llu rounds completed over real sockets (%llu messages exchanged), "
              "pipelined through the chain.\n",
              static_cast<unsigned long long>(result.conversation_rounds_completed),
              static_cast<unsigned long long>(result.messages_exchanged));
  auto got = [](const std::vector<std::string>& received, const std::string& message) {
    return std::find(received.begin(), received.end(), message) != received.end();
  };
  if (!got(alice_received, bob_says) || !got(bob_received, alice_says)) {
    std::fprintf(stderr, "a client did not receive its partner's message\n");
    return 1;
  }
  return result.conversation_rounds_completed == kRounds ? 0 : 1;
}

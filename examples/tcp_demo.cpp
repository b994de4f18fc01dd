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
// connections, each driven by client::RunSession: they answer round
// announcements inside the admission window and handle responses for
// earlier rounds while later rounds are already in flight (client-side
// pipelining, §8.3).
//
// Exits 0 iff every round completed and each client received its partner's
// message.

#include <cstdio>
#include <string>
#include <thread>

#include "src/client/session.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

using namespace vuvuzela;

namespace {

constexpr size_t kNumServers = 3;
constexpr uint64_t kRounds = 6;
constexpr uint64_t kSeed = 20151005;

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
  coord_config.hops = hops->endpoints();
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

  // Two clients with pre-exchanged keys (§2.3 assumption), wrapping onions
  // for the derived chain public keys, each with a message queued.
  util::Xoshiro256Rng rng(kSeed ^ 0xc11e57);
  auto alice_keys = crypto::X25519KeyPair::Generate(rng);
  auto bob_keys = crypto::X25519KeyPair::Generate(rng);
  const std::string alice_says = "meet at the usual place";
  const std::string bob_says = "confirmed, bring the docs";
  auto make_client = [&](const crypto::X25519KeyPair& kp, const crypto::X25519PublicKey& partner,
                         const std::string& says) {
    crypto::ChaCha20Key seed;
    rng.Fill(seed);
    client::VuvuzelaClient vuvuzela({.keys = kp, .chain = hops->public_keys()}, seed);
    vuvuzela.AcceptCall(partner);
    vuvuzela.SendMessage(partner, util::Bytes(says.begin(), says.end()));
    return vuvuzela;
  };
  client::VuvuzelaClient alice = make_client(alice_keys, bob_keys.public_key, alice_says);
  client::VuvuzelaClient bob = make_client(bob_keys, alice_keys.public_key, bob_says);
  auto run = [coord_port](client::VuvuzelaClient* vuvuzela) {
    if (auto conn = net::TcpConnection::Connect("127.0.0.1", coord_port)) {
      client::RunSession(*vuvuzela, *conn, /*fetcher=*/nullptr);
    }
  };
  std::thread alice_thread(run, &alice);
  std::thread bob_thread(run, &bob);

  transport::CoordDaemonResult result = coordinator.Run();
  alice_thread.join();
  bob_thread.join();
  hops.reset();  // stops the hop daemons

  // Prints what a client received; true iff `expected` is among it.
  auto got = [](const char* name, client::VuvuzelaClient& vuvuzela, const std::string& expected) {
    bool found = false;
    for (const auto& m : vuvuzela.TakeReceivedMessages()) {
      std::string text(m.payload.begin(), m.payload.end());
      std::printf("  [%s] received: \"%s\"\n", name, text.c_str());
      found = found || text == expected;
    }
    return found;
  };
  const bool delivered = got("alice", alice, bob_says) & got("bob", bob, alice_says);
  std::printf("\n%llu rounds completed over real sockets (%llu messages exchanged), "
              "pipelined through the chain.\n",
              static_cast<unsigned long long>(result.conversation_rounds_completed),
              static_cast<unsigned long long>(result.messages_exchanged));
  if (!delivered) {
    std::fprintf(stderr, "a client did not receive its partner's message\n");
    return 1;
  }
  return result.conversation_rounds_completed == kRounds ? 0 : 1;
}

// §8.1's simulated users as real clients of the coordinator: RunClientFleet
// runs one seeded client::VuvuzelaClient per user through client::RunSession
// (session.h) on its own front-door connection and thread. Clients
// (2k, 2k+1) hold pre-exchanged keys in a silent conversation, so every byte
// a client sends is a function of the seed; 2k also dials 2k+1 once, in the
// first dialing round. Tens of clients suit the tests and the CI smoke;
// bench/fig12_frontdoor loads the front door at scale.

#ifndef VUVUZELA_SRC_SIM_CLIENT_FLEET_H_
#define VUVUZELA_SRC_SIM_CLIENT_FLEET_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/crypto/x25519.h"
#include "src/net/tcp.h"
#include "src/util/bytes.h"
#include "src/wire/messages.h"

namespace vuvuzela::sim {

struct ClientFleetConfig {
  net::Endpoint coordinator;
  // The dist shards coordd publishes to, endpoint i serving shard i. Empty:
  // coordd publishes no tables, and the fleet downloads nothing.
  std::vector<net::Endpoint> dist;
  // The chain's public keys, hop 0 first.
  std::vector<crypto::X25519PublicKey> chain;
  uint64_t users = 0;
  // Client i's keys and RNG come from (seed, i).
  uint64_t seed = 1;
  // Adversarial-suite hook: conversation round r has entry (r - 1) mod size
  // users, and clients from that index on sit the round out (the varying
  // load the wiretap attack traces). Empty: every user sends every round.
  std::vector<uint64_t> users_per_round;
};

struct ClientFleetResult {
  std::vector<crypto::X25519PublicKey> keys;  // client i's public key
  // responses[i][r]: client i's conversation response for round r.
  std::vector<std::map<uint64_t, util::Bytes>> responses;
  // buckets[i][r]: client i's own invitation bucket, H(pk) mod m, as it
  // downloaded it after dialing round r.
  std::vector<std::map<uint64_t, std::vector<wire::Invitation>>> buckets;
  // Bucket fetches sent (one per client per acknowledged dialing round),
  // fetches answered with a bucket, and their on-the-wire bytes, chunk
  // framing included (client::DialingFetcher::bytes_fetched).
  uint64_t dialing_fetches_expected = 0;
  uint64_t dialing_fetches = 0;
  uint64_t dialing_fetch_bytes = 0;
  // Scripted dials placed (downloads on, and the dialer acknowledged in a
  // dialing round) and the calls their callees found in their buckets.
  uint64_t calls_placed = 0;
  uint64_t calls_received = 0;
};

// Connects every client, then plays rounds until coordd shuts the clients
// down; run it beside CoordinatorDaemon::Run. nullopt if a client cannot
// connect; a client's exception is rethrown once every client has finished.
// A failed bucket fetch is not an exception: it counts as unanswered.
std::optional<ClientFleetResult> RunClientFleet(const ClientFleetConfig& config);

}  // namespace vuvuzela::sim

#endif  // VUVUZELA_SRC_SIM_CLIENT_FLEET_H_

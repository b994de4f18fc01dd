#include "src/sim/client_fleet.h"

#include <algorithm>
#include <future>
#include <memory>
#include <utility>

#include "src/client/session.h"
#include "src/util/random.h"

namespace vuvuzela::sim {

std::optional<ClientFleetResult> RunClientFleet(const ClientFleetConfig& config) {
  std::vector<net::TcpConnection> conns;
  // One seeded stream drawn in client order: client i's keys and RNG seed
  // depend on (seed, i) only.
  util::Xoshiro256Rng rng(config.seed);
  std::vector<client::VuvuzelaClient> clients;
  // One fetcher per client, as a real client holds one: its shard links
  // connect at its first download.
  std::vector<std::unique_ptr<client::DialingFetcher>> fetchers;
  const transport::ShardFleetConfig fetch_config{.shards = config.dist};
  ClientFleetResult result;
  for (uint64_t i = 0; i < config.users; ++i) {
    auto conn = net::TcpConnection::Connect(config.coordinator.host, config.coordinator.port);
    if (!conn) {
      return std::nullopt;
    }
    conns.push_back(std::move(*conn));
    auto keys = crypto::X25519KeyPair::Generate(rng);
    crypto::ChaCha20Key rng_seed;
    rng.Fill(rng_seed);
    clients.emplace_back(client::ClientConfig{.keys = keys, .chain = config.chain}, rng_seed);
    result.keys.push_back(keys.public_key);
    fetchers.push_back(config.dist.empty()
                           ? nullptr
                           : std::make_unique<client::DialingFetcher>(fetch_config));
  }
  for (uint64_t k = 0; k + 1 < config.users; k += 2) {
    clients[k].Dial(result.keys[k + 1]);  // opens the conversation too
    clients[k + 1].AcceptCall(result.keys[k]);
  }

  std::vector<client::SessionLog> logs(config.users);
  const auto& load = config.users_per_round;
  // Futures rather than threads: a client's exception reaches the caller
  // through get(), and every client is joined on the way out.
  std::vector<std::future<void>> sessions;
  for (size_t i = 0; i < clients.size(); ++i) {
    sessions.push_back(std::async(std::launch::async, [&, i] {
      logs[i] = client::RunSession(clients[i], conns[i], fetchers[i].get(), [&](const auto& round) {
        return round.type == wire::RoundType::kDialing || load.empty() ||
               i < load[(round.round - 1) % load.size()];
      });
    }));
  }
  for (auto& session : sessions) {
    session.get();
  }

  for (uint64_t i = 0; i < config.users; ++i) {
    if (fetchers[i]) {
      result.dialing_fetches_expected += logs[i].dial_acks;
      result.dialing_fetches += fetchers[i]->buckets_fetched();
      result.dialing_fetch_bytes += fetchers[i]->bytes_fetched();
    }
    result.responses.push_back(std::move(logs[i].responses));
    result.buckets.push_back(std::move(logs[i].buckets));
    if (i % 2 == 1) {
      // Each dialer dials once, in its first dialing round.
      result.calls_placed += fetchers[i] && logs[i - 1].dial_acks > 0;
      result.calls_received += std::ranges::any_of(clients[i].TakeIncomingCalls(), [&](auto& call) {
        return call.caller == result.keys[i - 1];
      });
    }
  }
  return result;
}

}  // namespace vuvuzela::sim

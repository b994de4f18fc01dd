#include "src/transport/hop_chain.h"

#include <utility>

#include "src/transport/reconnecting_transport.h"
#include "src/util/random.h"

namespace vuvuzela::transport {

mixnet::ChainKeyMaterial DeriveChainKeys(uint64_t seed, size_t num_servers) {
  util::Xoshiro256Rng rng(seed);
  return mixnet::DrawChainKeys(num_servers, rng);
}

std::vector<std::unique_ptr<HopTransport>> MakeLocalTransports(
    const std::vector<std::unique_ptr<mixnet::MixServer>>& servers) {
  std::vector<std::unique_ptr<HopTransport>> transports;
  transports.reserve(servers.size());
  for (const auto& server : servers) {
    transports.push_back(std::make_unique<LocalTransport>(*server));
  }
  return transports;
}

template <typename Daemon>
std::unique_ptr<DaemonGroup<Daemon>> DaemonGroup<Daemon>::Start(size_t size, size_t chunk_payload,
                                                                 Factory factory) {
  std::unique_ptr<DaemonGroup> group(new DaemonGroup());
  return group->Spawn(size, chunk_payload, std::move(factory)) ? std::move(group) : nullptr;
}

template <typename Daemon>
bool DaemonGroup<Daemon>::Spawn(size_t size, size_t chunk_payload, Factory factory) {
  factory_ = std::move(factory);
  chunk_payload_ = chunk_payload;
  for (size_t i = 0; i < size; ++i) {
    auto daemon = factory_(i, 0);
    if (!daemon) {
      return false;
    }
    ports_.push_back(daemon->port());
    daemons_.push_back(std::move(daemon));
  }
  for (auto& daemon : daemons_) {
    serve_threads_.emplace_back([d = daemon.get()] { d->Serve(); });
  }
  return true;
}

template <typename Daemon>
DaemonGroup<Daemon>::~DaemonGroup() {
  for (size_t i = 0; i < daemons_.size(); ++i) {
    Kill(i);
  }
}

template <typename Daemon>
std::vector<net::Endpoint> DaemonGroup<Daemon>::endpoints() const {
  std::vector<net::Endpoint> out;
  for (uint16_t port : ports_) {
    out.push_back({"127.0.0.1", port});
  }
  return out;
}

template <typename Daemon>
ShardFleetConfig DaemonGroup<Daemon>::fleet(int recv_timeout_ms) const {
  ShardFleetConfig config{.shards = endpoints(), .chunk_payload = chunk_payload_};
  config.recv_timeout_ms = recv_timeout_ms;
  return config;
}

template <typename Daemon>
void DaemonGroup<Daemon>::Kill(size_t index) {
  if (!daemons_[index]) {
    return;  // already killed
  }
  // Stop() closes the listener; a serve loop blocked on an idle connection
  // notices at its next receive-poll tick.
  daemons_[index]->Stop();
  // Spawn() starts serve threads only after every daemon bound, so a group
  // torn down after a failed start has daemons without threads.
  if (index < serve_threads_.size() && serve_threads_[index].joinable()) {
    serve_threads_[index].join();
  }
  // Destroy the daemon so its listener descriptor is released and Restart
  // can rebind the port.
  daemons_[index].reset();
}

template <typename Daemon>
bool DaemonGroup<Daemon>::Restart(size_t index) {
  if (daemons_[index]) {
    return false;  // only a killed daemon can restart (its thread is joined)
  }
  auto daemon = factory_(index, ports_[index]);
  if (!daemon) {
    return false;
  }
  daemons_[index] = std::move(daemon);
  serve_threads_[index] = std::thread([d = daemons_[index].get()] { d->Serve(); });
  return true;
}

template class DaemonGroup<ExchangedDaemon>;
template class DaemonGroup<DistDaemon>;
template class DaemonGroup<HopDaemon>;

namespace {

// A fleet of shard daemons whose config says which shard of how many each
// one serves.
template <typename Daemon, typename Config>
std::unique_ptr<DaemonGroup<Daemon>> StartShards(size_t num_shards, size_t chunk_payload) {
  auto build_shard = [num_shards, chunk_payload](size_t shard, uint16_t port) {
    Config config;
    config.port = port;
    config.shard_index = static_cast<uint32_t>(shard);
    config.num_shards = static_cast<uint32_t>(num_shards);
    config.chunk_payload = chunk_payload;
    return Daemon::Create(config);
  };
  return DaemonGroup<Daemon>::Start(num_shards, chunk_payload, build_shard);
}

}  // namespace

std::unique_ptr<ExchangePartitionGroup> StartExchangePartitions(size_t num_shards,
                                                                size_t chunk_payload) {
  return StartShards<ExchangedDaemon, ExchangedConfig>(num_shards, chunk_payload);
}

std::unique_ptr<DistGroup> StartDistShards(size_t num_shards, size_t chunk_payload) {
  return StartShards<DistDaemon, DistDaemonConfig>(num_shards, chunk_payload);
}

std::unique_ptr<LoopbackChain> LoopbackChain::Start(const mixnet::ChainConfig& config,
                                                    uint64_t seed, size_t chunk_payload,
                                                    const ShardFleetConfig& exchange) {
  std::unique_ptr<LoopbackChain> chain(new LoopbackChain());
  chain->config_ = config;
  chain->keys_ = DeriveChainKeys(seed, config.num_servers);
  const LoopbackChain* c = chain.get();
  auto build_hop = [c, chunk_payload, exchange](size_t position, uint16_t port) {
    HopDaemonConfig daemon_config;
    daemon_config.port = port;
    daemon_config.chunk_payload = chunk_payload;
    if (position + 1 == c->config_.num_servers) {
      daemon_config.exchange = exchange;
    }
    return HopDaemon::Create(daemon_config, mixnet::BuildMixServer(c->config_, c->keys_, position));
  };
  return chain->Spawn(config.num_servers, chunk_payload, build_hop) ? std::move(chain) : nullptr;
}

void LoopbackChain::PrimeSecretCaches(std::span<const crypto::X25519PublicKey> client_pks) {
  for (size_t i = 0; i < size(); ++i) {
    if (HopDaemon* hop = daemon(i)) {
      hop->PrimeClientSecrets(client_pks);
    }
  }
}

std::vector<std::unique_ptr<HopTransport>> LoopbackChain::ConnectTransports(
    int recv_timeout_ms) const {
  std::vector<std::unique_ptr<HopTransport>> transports;
  transports.reserve(size());
  for (const net::Endpoint& hop : endpoints()) {
    TcpTransportConfig config;
    config.host = hop.host;
    config.port = hop.port;
    config.recv_timeout_ms = recv_timeout_ms;
    config.chunk_payload = chunk_payload();
    auto transport =
        std::make_unique<ReconnectingTransport>(config, ReconnectPolicy{.max_call_attempts = 1});
    if (!transport->Connect()) {
      return {};
    }
    transports.push_back(std::move(transport));
  }
  return transports;
}

}  // namespace vuvuzela::transport

// Chain construction and in-process fleets for multi-process deployments.
//
// Every process in a deployment — hop daemons and the clients that wrap
// onions for them — must agree on the chain's key material and noise
// parameters.
// DeriveChainKeys is the demo-grade key ceremony: all processes derive the
// full chain deterministically from a shared seed (mixnet::DrawChainKeys
// over a seeded RNG), and each hop keeps only its own secret (a real
// deployment would distribute keys out-of-band; the wire protocol does not
// care). The derivation also fixes each server's noise-RNG seed, which is
// what makes a LocalTransport chain and a TCP chain built from the same seed
// byte-identical — the transport conformance tests lean on that.
//
// DaemonGroup is the one in-process daemon fleet: daemons on ephemeral
// loopback ports, each served from its own thread, with Kill and Restart on
// the original port. Three fleets run on it: the exchange partitions
// (vuvuzela-exchanged), the dist shards (vuvuzela-distd), and LoopbackChain,
// the §7 topology without the processes. A shard group hands its endpoints to
// the shard clients (ExchangeRouter, DistRouter, client::DialingFetcher) as
// one ShardFleetConfig (peer_link.h), which each client reaches through one
// ShardLinks. Tests, single-machine benches and examples/tcp_demo all deploy
// through these groups.

#ifndef VUVUZELA_SRC_TRANSPORT_HOP_CHAIN_H_
#define VUVUZELA_SRC_TRANSPORT_HOP_CHAIN_H_

#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/mixnet/chain.h"
#include "src/transport/dist_daemon.h"
#include "src/transport/exchange_daemon.h"
#include "src/transport/hop_daemon.h"
#include "src/transport/hop_transport.h"
#include "src/transport/peer_link.h"

namespace vuvuzela::transport {

// mixnet::DrawChainKeys over Xoshiro256Rng(seed).
mixnet::ChainKeyMaterial DeriveChainKeys(uint64_t seed, size_t num_servers);

// Wraps in-process servers as scheduler-ready transports. The servers must
// outlive the transports.
std::vector<std::unique_ptr<HopTransport>> MakeLocalTransports(
    const std::vector<std::unique_ptr<mixnet::MixServer>>& servers);

template <typename Daemon>
class DaemonGroup {
 public:
  // Builds daemon `index` listening on `port` (0 picks an ephemeral port);
  // nullptr if it cannot bind. Restart calls it again with the original port.
  using Factory = std::function<std::unique_ptr<Daemon>(size_t index, uint16_t port)>;

  // Builds `size` daemons, then serves each from its own thread. nullptr if a
  // listener cannot bind.
  static std::unique_ptr<DaemonGroup> Start(size_t size, size_t chunk_payload, Factory factory);

  ~DaemonGroup();

  DaemonGroup(const DaemonGroup&) = delete;
  DaemonGroup& operator=(const DaemonGroup&) = delete;

  size_t size() const { return daemons_.size(); }
  uint16_t port(size_t index) const { return ports_[index]; }
  // Test access to a daemon (serving counters); nullptr while killed.
  Daemon* daemon(size_t index) const { return daemons_[index].get(); }

  // Every daemon's loopback endpoint, in index order.
  std::vector<net::Endpoint> endpoints() const;
  // The fleet config addressing this group at its chunk budget: endpoint i
  // serves shard i.
  ShardFleetConfig fleet(int recv_timeout_ms = 10000) const;

  // Failure injection: stops daemon `index`, joins its serve thread and
  // releases its port. Requests routed to it fail; the others keep serving.
  void Kill(size_t index);

  // Crash recovery: rebuilds a killed daemon through the factory on its
  // original port, with none of its old state. False if the daemon is live or
  // the port cannot rebind.
  bool Restart(size_t index);

 protected:
  DaemonGroup() = default;

  size_t chunk_payload() const { return chunk_payload_; }

  // Start's body, for a group that extends this one.
  bool Spawn(size_t size, size_t chunk_payload, Factory factory);

 private:
  Factory factory_;
  size_t chunk_payload_ = kDefaultChunkPayload;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  std::vector<std::thread> serve_threads_;
  std::vector<uint16_t> ports_;  // original bindings, for Restart
};

// vuvuzela-exchanged's fleet: shard i of size(). The daemons are stateless
// across rounds, so the ExchangeRouter's next reconnect picks a restarted
// partition straight back up.
using ExchangePartitionGroup = DaemonGroup<ExchangedDaemon>;
std::unique_ptr<ExchangePartitionGroup> StartExchangePartitions(
    size_t num_shards, size_t chunk_payload = kDefaultChunkPayload);

// vuvuzela-distd's fleet: shard i of size(). A restarted shard comes back
// empty and repopulates off the next publish.
using DistGroup = DaemonGroup<DistDaemon>;
std::unique_ptr<DistGroup> StartDistShards(size_t num_shards,
                                           size_t chunk_payload = kDefaultChunkPayload);

// One HopDaemon per chain position; endpoints() is the coordinator's hop
// list. Restart rebuilds the hop's MixServer from the chain's key material —
// per-round state, the replay cache and the warm secret cache are lost,
// exactly like a restarted vuvuzela-hopd.
class LoopbackChain final : public DaemonGroup<HopDaemon> {
 public:
  // nullptr if a listener cannot bind. A non-empty `exchange.shards` makes
  // the last hop drive its dead-drop stage through those vuvuzela-exchanged
  // shard servers.
  static std::unique_ptr<LoopbackChain> Start(const mixnet::ChainConfig& config, uint64_t seed,
                                              size_t chunk_payload = kDefaultChunkPayload,
                                              const ShardFleetConfig& exchange = {});

  const std::vector<crypto::X25519PublicKey>& public_keys() const { return keys_.public_keys; }

  // Connects one ReconnectingTransport per hop, with one send per call (no
  // in-call re-send); empty vector if any hop is unreachable.
  std::vector<std::unique_ptr<HopTransport>> ConnectTransports(int recv_timeout_ms = 10000) const;

  // Warms every live hop's shared-secret cache for a static client
  // population (see HopDaemon::PrimeClientSecrets). A killed hop is skipped.
  void PrimeSecretCaches(std::span<const crypto::X25519PublicKey> client_pks);

 private:
  LoopbackChain() = default;

  mixnet::ChainConfig config_;
  mixnet::ChainKeyMaterial keys_;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_HOP_CHAIN_H_

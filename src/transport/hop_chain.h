// Chain construction for multi-process deployments.
//
// Every process in a deployment — hop daemons and the clients that wrap
// onions for them — must agree on the chain's key material and noise
// parameters.
// DeriveChainKeys is the demo-grade key ceremony: all processes derive the
// full chain deterministically from a shared seed, and each hop keeps only
// its own secret (a real deployment would distribute keys out-of-band; the
// wire protocol does not care). The derivation also fixes each server's
// noise-RNG seed, which is what makes a LocalTransport chain and a TCP chain
// built from the same seed byte-identical — the transport conformance tests
// lean on that.
//
// LoopbackChain is the §7 topology without the processes: N HopDaemons on
// ephemeral loopback ports, each served from its own thread, plus factory
// methods for the matching hop transports. Tests, the TRANSPORT bench section,
// and examples/tcp_demo all deploy through it.

#ifndef VUVUZELA_SRC_TRANSPORT_HOP_CHAIN_H_
#define VUVUZELA_SRC_TRANSPORT_HOP_CHAIN_H_

#include <memory>
#include <thread>
#include <vector>

#include "src/client/dialing_fetcher.h"
#include "src/mixnet/chain.h"
#include "src/transport/dist_daemon.h"
#include "src/transport/dist_router.h"
#include "src/transport/exchange_daemon.h"
#include "src/transport/exchange_router.h"
#include "src/transport/hop_daemon.h"
#include "src/transport/hop_transport.h"
#include "src/transport/reconnecting_transport.h"

namespace vuvuzela::transport {

struct ChainKeyMaterial {
  std::vector<crypto::X25519KeyPair> key_pairs;
  std::vector<crypto::X25519PublicKey> public_keys;
  // Per-server noise/shuffle RNG seed.
  std::vector<crypto::ChaCha20Key> rng_seeds;
};

// Deterministically derives the whole chain's key material from `seed`.
ChainKeyMaterial DeriveChainKeys(uint64_t seed, size_t num_servers);

// Builds the MixServer for `position` of a chain with the given key material
// and shared noise configuration (mixnet::ChainServerConfig, as
// mixnet::Chain::Create uses).
std::unique_ptr<mixnet::MixServer> BuildMixServer(const mixnet::ChainConfig& config,
                                                  const ChainKeyMaterial& keys, size_t position);

// Builds all servers in-process (the LocalTransport backend of the
// conformance suite; byte-identical to a LoopbackChain from the same inputs).
std::vector<std::unique_ptr<mixnet::MixServer>> BuildMixServers(const mixnet::ChainConfig& config,
                                                                const ChainKeyMaterial& keys);

// Wraps in-process servers as scheduler-ready transports. The servers must
// outlive the transports.
std::vector<std::unique_ptr<HopTransport>> MakeLocalTransports(
    const std::vector<std::unique_ptr<mixnet::MixServer>>& servers);

// In-process fleet of exchange-partition daemons on ephemeral loopback ports
// — the vuvuzela-exchanged analog of LoopbackChain, used by the conformance
// and failure-injection suites and single-machine benches.
class ExchangePartitionGroup {
 public:
  // Spawns `num_partitions` ExchangedDaemons (shard i of num_partitions),
  // each serving from its own thread. nullptr if a listener cannot bind.
  static std::unique_ptr<ExchangePartitionGroup> Start(
      size_t num_partitions, size_t chunk_payload = kDefaultChunkPayload);

  ~ExchangePartitionGroup();

  ExchangePartitionGroup(const ExchangePartitionGroup&) = delete;
  ExchangePartitionGroup& operator=(const ExchangePartitionGroup&) = delete;

  size_t size() const { return daemons_.size(); }
  uint16_t port(size_t shard) const { return ports_[shard]; }

  // Router configuration addressing this group's daemons.
  ExchangeRouterConfig RouterConfig(int recv_timeout_ms = 10000) const;

  // Kills one partition (failure injection): stops its daemon and joins its
  // serve thread. Rounds routing to the shard fail; others keep completing.
  void Kill(size_t shard);

  // Restarts a killed partition on its original port (crash recovery): the
  // daemons are stateless across rounds, so the ExchangeRouter's next
  // reconnect picks it straight back up. False if the port cannot rebind.
  bool Restart(size_t shard);

 private:
  ExchangePartitionGroup() = default;

  size_t chunk_payload_ = kDefaultChunkPayload;
  std::vector<std::unique_ptr<ExchangedDaemon>> daemons_;
  std::vector<std::thread> serve_threads_;
  std::vector<uint16_t> ports_;  // original bindings, for Restart
};

// In-process fleet of invitation-distribution shard daemons on ephemeral
// loopback ports — the vuvuzela-distd analog of ExchangePartitionGroup, used
// by the dist conformance/failure suites and single-machine benches.
class DistGroup {
 public:
  // Spawns `num_shards` DistDaemons (shard i of num_shards), each serving
  // from its own accept thread. nullptr if a listener cannot bind.
  static std::unique_ptr<DistGroup> Start(size_t num_shards,
                                          size_t chunk_payload = kDefaultChunkPayload);

  ~DistGroup();

  DistGroup(const DistGroup&) = delete;
  DistGroup& operator=(const DistGroup&) = delete;

  size_t size() const { return daemons_.size(); }
  uint16_t port(size_t shard) const { return ports_[shard]; }
  // Test access to a shard's daemon (serving counters); nullptr while killed.
  DistDaemon* daemon(size_t shard) const { return daemons_[shard].get(); }

  // Router configuration addressing this group's daemons.
  DistRouterConfig RouterConfig(int recv_timeout_ms = 10000) const;
  // Client fetcher configuration addressing the same fleet.
  client::DialingFetcherConfig FetcherConfig(int recv_timeout_ms = 10000) const;

  // Kills one shard (failure injection): stops its daemon and joins its
  // serve thread. Dialing rounds routed to the shard fail; conversation
  // rounds and other shards' buckets keep serving.
  void Kill(size_t shard);

  // Restarts a killed shard on its original port (crash recovery): it comes
  // back empty and repopulates off the next publish. False if the port
  // cannot rebind.
  bool Restart(size_t shard);

 private:
  DistGroup() = default;

  size_t chunk_payload_ = kDefaultChunkPayload;
  std::vector<std::unique_ptr<DistDaemon>> daemons_;
  std::vector<std::thread> serve_threads_;
  std::vector<uint16_t> ports_;  // original bindings, for Restart
};

class LoopbackChain {
 public:
  // Spawns one HopDaemon per server on an ephemeral loopback port, each
  // serving from its own thread. nullptr if a listener cannot bind. A
  // non-empty `exchange.partitions` makes the last hop drive its dead-drop
  // stage through those vuvuzela-exchanged shard servers.
  static std::unique_ptr<LoopbackChain> Start(const mixnet::ChainConfig& config, uint64_t seed,
                                              size_t chunk_payload = kDefaultChunkPayload,
                                              const ExchangeRouterConfig& exchange = {});

  ~LoopbackChain();

  LoopbackChain(const LoopbackChain&) = delete;
  LoopbackChain& operator=(const LoopbackChain&) = delete;

  size_t size() const { return daemons_.size(); }
  uint16_t port(size_t position) const { return ports_[position]; }
  const std::vector<crypto::X25519PublicKey>& public_keys() const { return keys_.public_keys; }
  // Test access to a hop's daemon (replay-cache observability); nullptr
  // while the hop is killed.
  HopDaemon* daemon(size_t position) const { return daemons_[position].get(); }

  // Connects one ReconnectingTransport per hop, with one send per call (no
  // in-call re-send); empty vector if any hop is unreachable.
  std::vector<std::unique_ptr<HopTransport>> ConnectTransports(int recv_timeout_ms = 10000) const;

  // Warms every live hop's shared-secret cache for a static client
  // population (see HopDaemon::PrimeClientSecrets). A killed hop is skipped;
  // Restart() rebuilds its server with a cold cache, as a real crash would.
  void PrimeSecretCaches(std::span<const crypto::X25519PublicKey> client_pks) {
    for (auto& daemon : daemons_) {
      if (daemon) {
        daemon->PrimeClientSecrets(client_pks);
      }
    }
  }

  // Failure injection: stops hop `position`'s daemon, joins its serve
  // thread, and releases its port. In-flight rounds touching the hop fail.
  void Kill(size_t position);

  // Crash recovery: restarts a killed hop on its original port with a fresh
  // MixServer rebuilt from the chain's key material — per-round state and
  // the replay cache are lost, exactly like a restarted vuvuzela-hopd.
  // False if the port cannot rebind.
  bool Restart(size_t position);

 private:
  LoopbackChain() = default;

  mixnet::ChainConfig config_;
  ChainKeyMaterial keys_;
  size_t chunk_payload_ = kDefaultChunkPayload;
  ExchangeRouterConfig exchange_;
  std::vector<std::unique_ptr<HopDaemon>> daemons_;
  std::vector<std::thread> serve_threads_;
  std::vector<uint16_t> ports_;  // original bindings, for Restart
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_HOP_CHAIN_H_

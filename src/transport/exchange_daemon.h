// One exchange partition as a network service (vuvuzela-exchanged).
//
// An ExchangedDaemon owns one ID-prefix shard of the last hop's dead-drop
// table — both the conversation table and the invitation table — and serves
// the exchange-partition RPCs (kExchangeConversation / kExchangeDialing) on a
// loopback TCP listener. The last chain server's ExchangeRouter splits each
// round's exchange by deaddrop::ShardOfDeadDrop / ShardOfInvitationDrop and
// fans the slices out to these daemons, which is what lets one round's
// dead-drop stage span machines (Atom-style horizontal scaling; ROADMAP
// >10M-user rounds).
//
// The daemon is stateless across rounds: a request carries everything its
// slice of the exchange needs, and the reply returns everything the router
// must merge (the histogram and the pairing of the slice's requests, one u32
// each; the envelopes stay with the last hop) — so a crashed partition loses
// only the rounds in flight on it, and a restarted one can rejoin the next
// round with no recovery protocol.
//
// Serving discipline is HopDaemon's, through the same BatchRpcServer: one
// connection at a time, frames in arrival order, a failed request answered
// with kHopError rather than taking the daemon down. /metrics and /trace are
// served by the process shell (obs::DaemonProcess), not by the daemon.

#ifndef VUVUZELA_SRC_TRANSPORT_EXCHANGE_DAEMON_H_
#define VUVUZELA_SRC_TRANSPORT_EXCHANGE_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/net/tcp.h"
#include "src/transport/hop_wire.h"

namespace vuvuzela::obs {
class Counter;
class Histogram;
}  // namespace vuvuzela::obs

namespace vuvuzela::transport {

struct ExchangedConfig {
  // 0 picks an ephemeral port (port() reports the binding).
  uint16_t port = 0;
  // Which slice of the partition map this daemon owns.
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  // Chunk budget for outgoing batch messages.
  size_t chunk_payload = kDefaultChunkPayload;
};

class ExchangedDaemon {
 public:
  // Binds the listener; nullptr if the port is unavailable or the shard
  // coordinates are out of range.
  static std::unique_ptr<ExchangedDaemon> Create(const ExchangedConfig& config);

  uint16_t port() const { return rpc_server_.port(); }
  uint64_t rpcs_served() const { return rpcs_served_.load(); }

  // Serves connections until a kShutdown frame arrives or Stop() is called.
  void Serve();

  // Unblocks Serve() from another thread, interrupting an active connection
  // so a daemon under continuous traffic still stops promptly.
  void Stop();

 private:
  ExchangedDaemon(const ExchangedConfig& config, net::TcpListener listener);

  bool Dispatch(net::TcpConnection& conn, BatchMessage request);
  bool HandleConversation(net::TcpConnection& conn, const BatchMessage& request);
  bool HandleDialing(net::TcpConnection& conn, const BatchMessage& request);

  ExchangedConfig config_;
  BatchRpcServer rpc_server_;
  // Global-registry mirrors of this partition's hot-path counters.
  obs::Counter* obs_rpcs_;
  obs::Counter* obs_requests_;
  obs::Histogram* obs_exchange_seconds_;
  std::atomic<uint64_t> rpcs_served_{0};
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_EXCHANGE_DAEMON_H_

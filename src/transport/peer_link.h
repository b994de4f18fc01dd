// One persistent link to a server peer, with one failure rule.
//
// Every server-to-server edge of a deployment is a PeerLink: the
// coordinator's hop links (ReconnectingTransport), and the links into the
// two shard fleets, where endpoint i serves shard i — the last hop's links to
// its exchange partitions (ExchangeRouter), the coordinator's links to the
// dist shards (DistRouter) and a client's bucket-download links
// (client::DialingFetcher). A shard fleet is described by one
// ShardFleetConfig and reached through one ShardLinks, which owns one
// PeerLink per shard. All links keep one blocking connection to one peer and
// recover the same way:
//
//  * One batch RPC at a time: a mutex is held across each Call, so a
//    connection never carries two requests, and a re-send can only target
//    the request the link was waiting on.
//  * A call makes up to `max_call_attempts` sends of the same request views;
//    the re-send reuses the caller's views and copies nothing. It re-sends
//    after any connection-level HopError — a send or receive failure, EOF,
//    or the receive deadline — on a new connection, after waiting out the
//    policy's bounded exponential backoff. Re-sending is safe because every
//    peer makes a repeated request idempotent: a hop daemon serves the pass
//    it already ran from its replay slot, and every shard RPC is idempotent
//    by design (fetches read, publishes replace their slice, exchange slices
//    are stateless).
//  * It never re-sends after a HopRemoteError: the peer ran the request and
//    reported a failure, and the same request would fail the same way. The
//    connection stays open.
//  * Every other failure closes the connection first (the RPC may have died
//    mid-stream, so its framing is never trusted again) and starts a backoff
//    window; so does Fail(), which callers use when a reply decodes but does
//    not validate.
//  * Probe() lets a supervisor reconnect a dead link between calls; it never
//    blocks on an in-flight RPC and honours the backoff window.
//  * SendShutdown() reconnects once, so an earlier failure cannot exempt a
//    still-running (or restarted) peer from the shutdown cascade.
//
// Every reconnect logs "<label>: reconnected", emits an rpc/reconnect span
// and counts into the link's counter. Recovery stays inside the call's slot,
// so it adds no message kind to the wire (Bahramali et al.: recovery
// behaviour is as observable as steady state).

#ifndef VUVUZELA_SRC_TRANSPORT_PEER_LINK_H_
#define VUVUZELA_SRC_TRANSPORT_PEER_LINK_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/net/tcp.h"
#include "src/transport/hop_transport.h"
#include "src/transport/hop_wire.h"

namespace vuvuzela::obs {
class Counter;
}  // namespace vuvuzela::obs

namespace vuvuzela::transport {

struct TcpTransportConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Receive deadline per RPC; 0 waits forever (not recommended: a dead peer
  // would wedge its caller).
  int recv_timeout_ms = 10000;
  // Connect deadline; 0 falls back to the OS blocking connect (an unroutable
  // peer could then wedge the caller for minutes of SYN retransmission).
  int connect_timeout_ms = 5000;
  // Chunk budget for outgoing batch messages.
  size_t chunk_payload = kDefaultChunkPayload;
};

struct ReconnectPolicy {
  // Sends per call (1 disables the in-call re-send; the coordinator's round
  // re-submission still applies).
  int max_call_attempts = 3;
  // Bounded exponential backoff between reconnect attempts.
  int backoff_initial_ms = 50;
  int backoff_max_ms = 1000;
};

class PeerLink {
 public:
  // `kind` prefixes error messages and the reconnect log line (e.g. "dist
  // shard" → "dist shard 127.0.0.1:7361: unreachable"). `reconnects`, if not
  // null, counts every reconnect. Does not connect: call Connect() for
  // strict startup, or let the first Call() or Probe() connect.
  PeerLink(const std::string& kind, TcpTransportConfig config, ReconnectPolicy policy,
           obs::Counter* reconnects = nullptr);

  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  // Strict startup connect (deployments want unreachable-peer errors up
  // front). False if the peer is unreachable right now.
  bool Connect();

  // One request/response batch RPC (hop_wire.h's CallBatchRpc) under the
  // link's failure rule. Throws the Hop*Error flavors; a peer that stays
  // unreachable throws HopError("<label>: unreachable").
  BatchMessage Call(net::FrameType op, uint64_t round, util::ByteSpan header,
                    std::span<const util::ByteSpan> items);

  // A reply that arrived whole but does not validate: closes the connection
  // (locked, so it never races another thread's RPC on the link) and throws
  // HopError("<label>: <what>"). The call is not re-sent.
  [[noreturn]] void Fail(const std::string& what);

  // If disconnected and the backoff window has elapsed, tries one reconnect.
  // Never blocks on an in-flight RPC (an RPC in progress reconnects for
  // itself). Returns connected-after-probe.
  bool Probe();

  // Best-effort kShutdown frame (orderly multi-process teardown).
  void SendShutdown();

  bool connected() const;
  // Successful connects after the first (tests assert the recovery path
  // actually ran).
  uint64_t reconnects() const;

 private:
  using Clock = std::chrono::steady_clock;

  // One connect attempt honouring the deadlines; true on success. On failure
  // arms the backoff window. Requires mutex_.
  bool TryConnectLocked(uint64_t round);
  // Starts the next backoff window after a failure. Requires mutex_.
  void BackOffLocked();

  // "kind host:port", the error-message and log-line prefix.
  std::string label_;
  TcpTransportConfig config_;
  ReconnectPolicy policy_;
  obs::Counter* reconnect_counter_;

  mutable std::mutex mutex_;
  net::TcpConnection conn_;
  bool ever_connected_ = false;
  uint64_t reconnects_ = 0;
  int consecutive_failures_ = 0;
  Clock::time_point next_connect_attempt_{};
};

// A shard fleet (exchange partitions, dist shards): endpoint i serves shard i
// of shards.size(), and every shard link runs with the same deadlines.
struct ShardFleetConfig {
  std::vector<net::Endpoint> shards;
  // Receive deadline per shard RPC — the dead-shard detector.
  int recv_timeout_ms = 10000;
  // Connect deadline per (re)connect attempt; 0 = OS blocking connect.
  int connect_timeout_ms = 5000;
  // Chunk budget for outgoing batch messages.
  size_t chunk_payload = kDefaultChunkPayload;
};

// One PeerLink per shard of a fleet, under the default ReconnectPolicy; every
// link counts its reconnects into vuvuzela_shard_reconnects_total.
class ShardLinks {
 public:
  // `kind` labels every link (see PeerLink). Connects nothing.
  ShardLinks(const std::string& kind, const ShardFleetConfig& fleet);

  // Strict startup: connects every shard. False if the fleet is empty or any
  // shard is unreachable right now.
  bool Connect();
  // Best-effort kShutdown to every shard (orderly multi-process teardown).
  void SendShutdown();

  size_t size() const { return links_.size(); }
  PeerLink& operator[](size_t shard) const { return *links_[shard]; }

 private:
  std::vector<std::unique_ptr<PeerLink>> links_;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_PEER_LINK_H_

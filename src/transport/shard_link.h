// One persistent link to a shard-fleet peer.
//
// Both router tiers (ExchangeRouter → vuvuzela-exchanged, DistRouter →
// vuvuzela-distd) and the client-side DialingFetcher keep one long-lived
// connection per shard with the same discipline, centralized here so their
// documented failure models cannot drift apart:
//
//  * one batch RPC at a time per link (the link mutex serializes callers);
//  * each call gets ONE reconnect: a poisoned (or silently-died) link is
//    re-established and the request re-sent — safe because every fleet RPC
//    is idempotent — so a restarted shard rejoins on the next call that
//    routes to it, while a still-dead one fails that call fast (bounded by
//    the connect deadline; remote error reports and timeouts never re-send);
//  * every failure the RPC core throws (except a remote kHopError report)
//    closed the connection first — mid-stream framing is never trusted;
//  * post-call validators poison through Fail(), which re-acquires the link
//    mutex before closing so it can never race another thread's in-flight
//    RPC on the same link;
//  * the shutdown cascade reconnects a poisoned link once — an earlier round
//    failure must not exempt a still-running shard from kShutdown.

#ifndef VUVUZELA_SRC_TRANSPORT_SHARD_LINK_H_
#define VUVUZELA_SRC_TRANSPORT_SHARD_LINK_H_

#include <mutex>
#include <string>
#include <vector>

#include "src/net/tcp.h"
#include "src/transport/hop_wire.h"

namespace vuvuzela::transport {

struct ShardLinkConfig {
  // Receive deadline per RPC — the dead-shard detector.
  int recv_timeout_ms = 10000;
  // Connect deadline per (re)connect attempt; 0 = OS blocking connect.
  int connect_timeout_ms = 5000;
  // Chunk budget for outgoing batch messages.
  size_t chunk_payload = kDefaultChunkPayload;
};

class ShardLink {
 public:
  // `kind` prefixes error messages (e.g. "dist shard" → "dist shard
  // 127.0.0.1:7361: unreachable"). Does not connect; call ConnectStrict()
  // for strict startup or let the first Call() connect lazily.
  ShardLink(const std::string& kind, std::string host, uint16_t port, ShardLinkConfig config);

  ShardLink(const ShardLink&) = delete;
  ShardLink& operator=(const ShardLink&) = delete;

  // "kind host:port", the error-message prefix.
  const std::string& label() const { return label_; }

  // Strict startup connect (deployments want unreachable-shard errors up
  // front). False if the shard is unreachable right now.
  bool ConnectStrict();

  // One request/response batch RPC under the link mutex (see the header
  // comment for the reconnect and failure discipline). Throws the
  // transport::Hop*Error flavors of hop_wire.h's CallBatchRpc.
  BatchMessage Call(net::FrameType op, uint64_t round, util::ByteSpan header,
                    std::span<const util::ByteSpan> items);

  // Post-call validator failure: poisons the link (locked close) and throws
  // HopError("<label>: <what>").
  [[noreturn]] void Fail(const std::string& what);

  // Best-effort kShutdown frame (orderly multi-process teardown).
  void SendShutdown();

 private:
  // One connect attempt honoring the deadlines; true on success. Requires
  // mutex_ held.
  bool TryConnectLocked();

  std::string label_;
  std::string host_;
  uint16_t port_;
  ShardLinkConfig config_;
  std::mutex mutex_;
  net::TcpConnection conn_;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_SHARD_LINK_H_

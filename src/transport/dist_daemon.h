// One invitation-distribution shard as a network service (vuvuzela-distd).
//
// A DistDaemon owns a contiguous bucket range — deaddrop::
// InvitationDropsOfShard(shard, num_drops, num_shards) — of every published
// dialing round's invitation table. The coordinator's DistRouter pushes each
// round's slice over kInvitationPublish; clients (client::DialingFetcher)
// download whole buckets over kInvitationFetch. This is the paper's §5.5 CDN tier: downloads need no
// mixing or noising, only bandwidth, so the serving layer scales by adding
// shard processes exactly like a CDN adds edges.
//
// Unlike the hop and exchange daemons — whose one-connection-at-a-time
// discipline *is* the engine's stage serialization — a dist shard is a
// broadcast server: the router's persistent publish connection and any number
// of downloading clients are served concurrently. The serve path is a
// net::EventLoop reactor: one thread, every connection, per-connection
// BatchAssembler reassembly — this edge faces the client fleet, where
// thread-per-connection cannot scale. Publishes and fetches both run on that
// thread, so the table store needs no lock; obs::DaemonProcess serves /metrics
// and /trace from its own acceptor thread, so a scrape never touches the loop.
//
// State is per-round and replaceable: a re-published round (the
// coordinator's retry path) overwrites its slice, and every publish carries
// the coordinator's expiry horizon (keep_latest), so a crashed-and-restarted
// shard is simply missing the rounds published during its outage — fetches
// for them fail, the next publish repopulates it, no recovery protocol.

#ifndef VUVUZELA_SRC_TRANSPORT_DIST_DAEMON_H_
#define VUVUZELA_SRC_TRANSPORT_DIST_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/tcp.h"
#include "src/transport/hop_wire.h"
#include "src/util/keep_latest.h"

namespace vuvuzela::obs {
class Counter;
class Gauge;
}  // namespace vuvuzela::obs

namespace vuvuzela::transport {

struct DistDaemonConfig {
  // 0 picks an ephemeral port (port() reports the binding).
  uint16_t port = 0;
  // Which slice of the bucket map this daemon owns.
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  // Chunk budget for outgoing batch messages.
  size_t chunk_payload = kDefaultChunkPayload;
  // Backstop cap on retained rounds, should a router never piggyback an
  // expiry horizon (each publish's keep_latest is the primary bound).
  size_t max_rounds = 64;
};

class DistDaemon {
 public:
  // Binds the listener; nullptr if the port is unavailable or the shard
  // coordinates are out of range.
  static std::unique_ptr<DistDaemon> Create(const DistDaemonConfig& config);

  uint16_t port() const { return port_; }

  // Observability: publishes stored, buckets served, invitation bytes served.
  uint64_t publishes_stored() const { return publishes_stored_.load(); }
  uint64_t fetches_served() const { return fetches_served_.load(); }
  uint64_t bytes_served() const { return bytes_served_.load(); }
  size_t rounds_held() const { return rounds_held_.load(); }

  // Runs the reactor, serving every connection concurrently, until a
  // kShutdown frame arrives on any of them or Stop() is called.
  void Serve();

  // Makes Serve() return from another thread, closing every connection.
  void Stop();

 private:
  // One published round's slice: the owned bucket range, resident.
  struct RoundSlice {
    uint32_t num_drops = 0;
    uint32_t range_begin = 0;
    std::vector<std::vector<wire::Invitation>> buckets;
  };

  // Outcome of one dist RPC: an error report (one kHopError frame) or a
  // batch-message reply, which Serve() encodes with the chunk builder.
  struct RpcReply {
    bool ok = false;
    std::string error{};               // when !ok
    net::FrameType op = net::FrameType::kHopError;
    std::vector<util::Bytes> items{};  // when ok (reply headers are empty)
  };

  DistDaemon(const DistDaemonConfig& config, net::TcpListener listener);

  // The RPC core: validates, mutates/reads the table store, and builds the
  // reply.
  RpcReply HandleRequest(const BatchMessage& request);
  RpcReply HandlePublish(const BatchMessage& request);
  RpcReply HandleFetch(const BatchMessage& request);

  DistDaemonConfig config_;
  uint16_t port_ = 0;
  net::TcpListener listener_;  // moved into the reactor by Serve()
  // Global-registry mirrors of the observability accessors above.
  obs::Counter* obs_publishes_;
  obs::Counter* obs_fetches_;
  obs::Counter* obs_bytes_served_;
  obs::Gauge* obs_rounds_held_;
  std::atomic<uint64_t> publishes_stored_{0};
  std::atomic<uint64_t> fetches_served_{0};
  std::atomic<uint64_t> bytes_served_{0};
  std::atomic<size_t> rounds_held_{0};  // rounds_.size(), set by HandlePublish

  // Read and written only on the reactor thread.
  util::KeepLatestMap<RoundSlice> rounds_;

  // The loop pointer is published under loop_mutex_ so a concurrent Stop()
  // can reach it (the loop lives on Serve()'s stack).
  std::mutex loop_mutex_;
  net::EventLoop* loop_ = nullptr;
  bool stop_ = false;  // Stop() ran; under loop_mutex_
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_DIST_DAEMON_H_

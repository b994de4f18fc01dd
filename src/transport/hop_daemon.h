// One chain hop as a network service (§7: one process per server).
//
// A HopDaemon owns one mixnet::MixServer and serves the hop RPC protocol on
// a loopback TCP listener: kHopForwardConversation / kHopBackwardConversation
// for the two conversation passes, kHopLastConversation for the dead-drop
// exchange at the last hop, and the dialing equivalents. Requests and
// responses are chunked batch messages (hop_wire.h), so paper-scale batches
// stream through in bounded memory.
//
// One connection is served at a time, and frames on it are processed in
// arrival order — the daemon *is* the engine's stage-serialization unit (a
// server cannot start a pass until it has the previous hop's whole batch,
// §8.2); per-request crypto inside a pass still fans out over the global
// thread pool. A pass that throws is reported back as a kHopError frame and
// the daemon keeps serving: one poisoned round must not take the hop down.
//
// Idempotent replay: the daemon keeps exactly one reply, the last one it
// served, tagged with a digest of the request's op, round and content. The
// digest is taken before the pass runs: a peeling pass overwrites the
// request's chunks, and the slot keeps those chunks, since the reply's items
// (peeled onions, sealed responses) lie in them, plus the pass's own small
// batch.
// When a coordinator reconnects after a connection failure and re-sends the
// pass it was waiting on — it cannot know whether the reply was lost on the
// wire or never computed — the daemon re-serves those bytes instead of
// running the pass twice. That protects pass-consumes-state ops (a backward
// pass erases its round state; running it again would fail). One slot is
// enough because a re-send can only ever target the last pass served:
//  * the coordinator's PeerLink holds its mutex and its connection from
//    sending a request until it has read the whole reply, so a hop never
//    has two passes outstanding;
//  * the link re-sends a failed call, on its new connection, before it
//    sends any other call;
//  * any older pass a coordinator submits again (a round-level retry) is
//    simply recomputed: forward and last passes are pure functions of
//    (seed, round, batch), so the recomputed reply is byte-identical.
// The slot is released as soon as the header of the first frame of a request
// for another pass (op or round) arrives, before that frame's payload is
// allocated (TcpConnection::RecvFrame's header hook), and at the latest when
// a request with a different digest has arrived, before its pass runs. So a
// hop holds at most one pass's reply — never a history of rounds — and never
// that reply next to any of the next request's payload.
// A re-sent request whose digest does NOT match is processed normally: the
// slot can never serve stale bytes for different input. The expiry horizon
// piggybacked on forward passes still bounds MixServer's per-round state
// (MixServer::ExpireRounds). /metrics and /trace are served by the process
// shell (obs::DaemonProcess), not by the daemon.

#ifndef VUVUZELA_SRC_TRANSPORT_HOP_DAEMON_H_
#define VUVUZELA_SRC_TRANSPORT_HOP_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "src/crypto/sha256.h"
#include "src/mixnet/mix_server.h"
#include "src/net/tcp.h"
#include "src/transport/exchange_router.h"
#include "src/transport/hop_wire.h"

namespace vuvuzela::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace vuvuzela::obs

namespace vuvuzela::transport {

struct HopDaemonConfig {
  // 0 picks an ephemeral port (port() reports the binding).
  uint16_t port = 0;
  // Chunk budget for outgoing batch messages.
  size_t chunk_payload = kDefaultChunkPayload;
  // Exchange partitioning (last hop only). A non-empty shard list makes the
  // daemon drive its dead-drop stage through an ExchangeRouter over
  // vuvuzela-exchanged shard servers instead of the in-process tables.
  ShardFleetConfig exchange;
};

class HopDaemon {
 public:
  // Binds the listener; nullptr if the port is unavailable.
  static std::unique_ptr<HopDaemon> Create(const HopDaemonConfig& config,
                                           std::unique_ptr<mixnet::MixServer> server);

  uint16_t port() const { return rpc_server_.port(); }
  uint64_t rpcs_served() const { return rpcs_served_.load(); }
  // Passes answered from the replay slot / replies currently held, 0 or 1
  // (observability; the replay-dedup tests assert these).
  uint64_t replay_hits() const { return replay_hits_.load(); }
  size_t replay_entries() const;
  // Non-null iff the daemon exchanges through partition servers.
  ExchangeRouter* exchange_router() const { return exchange_router_.get(); }

  // Warms the hop's shared-secret cache for a static client population.
  // Safe while the daemon serves (the cache is internally synchronized), but
  // meant for the idle window before a round sequence starts.
  void PrimeClientSecrets(std::span<const crypto::X25519PublicKey> client_pks) {
    server_->PrimeClientSecrets(client_pks);
  }

  // Serves connections until a kShutdown frame arrives or Stop() is called.
  // Connections are served one at a time; a dropped coordinator can
  // reconnect.
  void Serve();

  // Unblocks Serve() from another thread — including a serve loop busy on an
  // active connection (the connection is shut down, so a daemon under
  // continuous traffic still stops promptly; an in-flight pass finishes
  // computing but its reply send fails, which is exactly what a crash looks
  // like to the coordinator).
  void Stop();

 private:
  struct CachedReply {
    net::FrameType op = net::FrameType::kHopError;
    uint64_t round = 0;
    // Binds op, round and content (DigestRequest in the .cc).
    crypto::Sha256Digest request_digest{};
    util::Bytes header;
    // The request's chunks, when the pass worked inside them (a forward pass
    // or a conversation last hop): most reply items are the peeled onions or
    // the sealed responses there. Empty otherwise.
    std::vector<util::Bytes> request_chunks;
    // The reply's own buffer — the backward pass's output batch, the cover
    // onions or missized-request slots of an in-place pass, or the packed
    // drops of a dialing last hop — and a view of each reply item, in it or
    // in request_chunks.
    util::PackedItems body;
  };

  HopDaemon(const HopDaemonConfig& config, std::unique_ptr<mixnet::MixServer> server,
            net::TcpListener listener);

  bool Dispatch(net::TcpConnection& conn, BatchMessage request);
  // Releases the replay slot unless it holds the reply to (op, round): a
  // request for any other pass means the coordinator already holds that
  // reply (see the class comment). Called from the header hook of a
  // request's first frame.
  void ReleaseReplyUnlessFor(net::FrameType op, uint64_t round);
  // The op switch proper (the timed part of Dispatch): runs the pass over
  // `request.items`, views into the received chunks (a peeling pass works
  // inside them), and sends (and keeps) the reply.
  bool RunPass(net::TcpConnection& conn, BatchMessage& request, wire::Reader& header,
               const crypto::Sha256Digest& digest);
  // Sends the reply from its buffers and keeps them in the replay slot: its
  // own buffer, and the request's chunks when the reply's items lie in them
  // (empty otherwise). The reply is never copied.
  bool SendAndCache(net::TcpConnection& conn, const BatchMessage& request,
                    const crypto::Sha256Digest& digest, util::Bytes header,
                    util::PackedItems body, std::vector<util::Bytes> request_chunks = {});

  HopDaemonConfig config_;
  std::unique_ptr<mixnet::MixServer> server_;
  // Declared after server_ is fine: the server holds only a non-owning
  // backend pointer and makes no calls during destruction.
  std::unique_ptr<ExchangeRouter> exchange_router_;
  BatchRpcServer rpc_server_;
  // Global-registry mirrors of this hop's hot-path counters (registration is
  // idempotent, so multiple in-process daemons share one series).
  obs::Counter* obs_rpcs_;
  obs::Counter* obs_replay_hits_;
  obs::Counter* obs_pass_onions_;
  obs::Counter* obs_pass_errors_;
  obs::Histogram* obs_pass_seconds_;
  obs::Histogram* obs_digest_seconds_;
  // Per-process series (one hopd per process), refreshed after every pass.
  obs::Gauge* obs_cache_entries_;
  obs::Counter* obs_cache_misses_;
  obs::Gauge* obs_replay_bytes_;
  obs::Histogram* obs_miss_dh_seconds_;
  obs::Histogram* obs_noise_wrap_seconds_;
  uint64_t reported_cache_misses_ = 0;  // serve loop only
  std::atomic<uint64_t> rpcs_served_{0};
  std::atomic<uint64_t> replay_hits_{0};
  // Written only from the serve loop (one connection at a time); the mutex
  // makes the observability accessor safe from other threads.
  mutable std::mutex replay_mutex_;
  std::optional<CachedReply> last_reply_;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_HOP_DAEMON_H_

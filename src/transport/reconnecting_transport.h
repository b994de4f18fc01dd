// TCP backend for HopTransport: the hop RPC protocol to a remote HopDaemon
// over one PeerLink.
//
// This is the only TCP HopTransport. It encodes each pass's request header
// and decodes the reply; the link owns the connection and its failure rule
// (peer_link.h): a connection-level failure (send or receive error, EOF,
// receive deadline) reconnects after a bounded backoff and re-sends the same
// pass, up to `max_call_attempts` sends. The hop daemon's replay slot makes
// the re-send idempotent: a pass the hop already completed returns the kept
// byte-identical reply instead of running twice. A HopRemoteError (the hop
// ran the pass and reported failure, e.g. round state lost in a restart) and
// a malformed reply are not re-sent; they propagate to the round engine,
// which abandons the attempt and lets the coordinator's re-submission policy
// decide. Between rounds a connection supervisor can Probe() the link, so a
// restarted hop rejoins before the next pass needs it.
//
// Batches cross the wire as chunked batch messages (hop_wire.h), sent
// straight from the caller's items, so a batch larger than
// net::kMaxFramePayload streams hop-to-hop in bounded memory and is never
// copied, re-sends included.
//
// Each scheduler stage owns one transport and drives it from its one stage
// worker thread; the pending expiry record below is that thread's state.

#ifndef VUVUZELA_SRC_TRANSPORT_RECONNECTING_TRANSPORT_H_
#define VUVUZELA_SRC_TRANSPORT_RECONNECTING_TRANSPORT_H_

#include <cstdint>
#include <optional>

#include "src/transport/hop_transport.h"
#include "src/transport/peer_link.h"

namespace vuvuzela::transport {

class ReconnectingTransport : public HopTransport {
 public:
  // Does not connect; call Connect() (strict startup) or let the first RPC /
  // Probe() establish the connection lazily. `reconnects`, if not null,
  // counts the link's reconnects.
  explicit ReconnectingTransport(TcpTransportConfig config, ReconnectPolicy policy = {},
                                 obs::Counter* reconnects = nullptr);

  // Strict initial connect (deployment startup wants unreachable-hop errors
  // up front). False if the hop is unreachable right now.
  bool Connect() { return link_.Connect(); }
  bool connected() const { return link_.connected(); }
  uint64_t reconnects() const { return link_.reconnects(); }
  // Supervisor hook (PeerLink::Probe).
  bool Probe() { return link_.Probe(); }
  // Best-effort shutdown frame to the hop daemon (orderly teardown).
  void SendShutdown() { link_.SendShutdown(); }

  std::vector<util::Bytes> ForwardConversation(uint64_t round, std::vector<util::Bytes> batch,
                                               mixnet::ServerRoundStats* stats) override;
  std::vector<util::Bytes> BackwardConversation(uint64_t round,
                                                std::vector<util::Bytes> responses,
                                                mixnet::ServerRoundStats* stats) override;
  mixnet::MixServer::LastServerResult ProcessConversationLastHop(
      uint64_t round, std::vector<util::Bytes> batch, mixnet::ServerRoundStats* stats) override;
  std::vector<util::Bytes> ForwardDialing(uint64_t round, std::vector<util::Bytes> batch,
                                          uint32_t num_drops,
                                          mixnet::ServerRoundStats* stats) override;
  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round, std::vector<util::Bytes> batch,
                                                  uint32_t num_drops,
                                                  mixnet::ServerRoundStats* stats) override;

  // Deferred: recorded here and piggybacked on the next forward-conversation
  // request, so hygiene costs no extra round trip.
  void ExpireRounds(uint64_t newest_round, uint64_t keep) override;

 private:
  struct Expiry {
    uint64_t newest_round = 0;
    uint64_t keep = 0;
  };

  PeerLink link_;
  // Cleared only once a forward-conversation call carrying it succeeded, so
  // a failed call cannot lose it.
  std::optional<Expiry> pending_expire_;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_RECONNECTING_TRANSPORT_H_

// TCP backend for HopTransport: one blocking RPC connection to a HopDaemon.
//
// Each scheduler stage owns exactly one transport and drives it from one
// stage-worker thread, so RPCs on a connection are naturally serialized; the
// mutex only guards against misuse. Batches cross the wire as chunked batch
// messages (hop_wire.h), so a batch larger than net::kMaxFramePayload streams
// hop-to-hop in bounded memory.
//
// Failure model: a receive deadline (config.recv_timeout_ms) bounds how long
// a stage waits on a dead hop — expiry surfaces as HopTimeoutError, any other
// wire failure as HopError. Either poisons the connection (an RPC may have
// died mid-stream), so every subsequent call fails fast until the caller
// reconnects; the round engine turns each failure into one abandoned round.

#ifndef VUVUZELA_SRC_TRANSPORT_TCP_TRANSPORT_H_
#define VUVUZELA_SRC_TRANSPORT_TCP_TRANSPORT_H_

#include <memory>
#include <mutex>
#include <string>

#include "src/net/tcp.h"
#include "src/transport/hop_transport.h"
#include "src/transport/hop_wire.h"

namespace vuvuzela::transport {

struct TcpTransportConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Receive deadline per RPC; 0 waits forever (not recommended: a dead hop
  // would wedge its stage worker).
  int recv_timeout_ms = 10000;
  // Connect deadline; 0 falls back to the OS blocking connect (an unroutable
  // hop could then wedge the caller for minutes of SYN retransmission).
  int connect_timeout_ms = 5000;
  // Chunk budget for outgoing batch messages.
  size_t chunk_payload = kDefaultChunkPayload;
};

class TcpTransport : public HopTransport {
 public:
  // Connects to the hop daemon; nullptr if the hop is unreachable.
  static std::unique_ptr<TcpTransport> Connect(const TcpTransportConfig& config);

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
  // request so hygiene costs no extra round trip.
  void ExpireRounds(uint64_t newest_round, uint64_t keep) override;

  // Asks the daemon to exit its serve loop (used for orderly multi-process
  // shutdown). Best-effort.
  void SendShutdown();

  bool connected() const;

 private:
  explicit TcpTransport(const TcpTransportConfig& config, net::TcpConnection conn);

  // One request/response exchange through CallBatchRpc (hop_wire.h), the
  // RPC core the shard fleets share; throws its Hop*Error flavors.
  BatchMessage Call(net::FrameType op, uint64_t round, util::ByteSpan header,
                    const std::vector<util::Bytes>& items);

  TcpTransportConfig config_;
  std::mutex mutex_;
  net::TcpConnection conn_;
  bool has_pending_expire_ = false;
  uint64_t pending_expire_newest_ = 0;
  uint64_t pending_expire_keep_ = 0;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_TCP_TRANSPORT_H_

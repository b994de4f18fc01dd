// Partitioned dead-drop exchange backend for the last chain server.
//
// ExchangeRouter implements deaddrop::ExchangeBackend over a fleet of
// vuvuzela-exchanged shard servers: it splits a round's exchange requests by
// dead-drop placement (the same ShardOfDeadDrop / ShardOfInvitationDrop maps
// the daemons enforce), fans the slices out concurrently over the chunked hop
// RPC framing — each slice as views of the caller's serialized requests — and
// merges replies: every partition answers with a slice-local pairing, which
// is checked (hop_wire.h, kExchangeConversation) and mapped back to
// round-batch positions, and histograms are summed in shard order, so the
// merged outcome is byte-identical to the in-process sharded exchange.
//
// Failure model: the partitions are a shard fleet (peer_link.h's
// ShardFleetConfig), reached through one ShardLinks — one PeerLink per
// partition under the link's policy (default ReconnectPolicy). A
// connection-level failure reconnects after a backoff and re-sends the
// slice — exchange slices are stateless, so a re-send is harmless — and only
// once the policy has no re-send left does the round fail: HopTimeoutError if
// the partition stopped answering within the receive deadline, HopError
// otherwise. A failure touches that partition's link only: rounds whose
// requests all land on live partitions keep completing — a dead shard server
// costs exactly the rounds that route to it while it is down, mirroring the
// dead-hop accounting.

#ifndef VUVUZELA_SRC_TRANSPORT_EXCHANGE_ROUTER_H_
#define VUVUZELA_SRC_TRANSPORT_EXCHANGE_ROUTER_H_

#include <memory>

#include "src/deaddrop/exchange_backend.h"
#include "src/transport/hop_transport.h"
#include "src/transport/hop_wire.h"
#include "src/transport/peer_link.h"

namespace vuvuzela::transport {

class ExchangeRouter : public deaddrop::ExchangeBackend {
 public:
  // Connects every partition; nullptr if the list is empty or any partition
  // is unreachable at startup (later deaths are per-round failures instead).
  static std::unique_ptr<ExchangeRouter> Connect(const ShardFleetConfig& fleet);

  size_t num_shards() const { return partitions_.size(); }

  deaddrop::ExchangeOutcome ExchangeConversation(
      uint64_t round, std::span<const util::ByteSpan> requests) override;
  deaddrop::InvitationTable BuildInvitationTable(
      uint64_t round, uint32_t num_drops, std::span<const wire::DialRequest> requests,
      std::span<const deaddrop::NoiseInvitation> noise) override;

  // Asks every reachable partition daemon to exit its serve loop (orderly
  // multi-process shutdown). Best-effort.
  void SendShutdown() { partitions_.SendShutdown(); }

 private:
  explicit ExchangeRouter(const ShardFleetConfig& fleet)
      : partitions_("exchange partition", fleet) {}

  ShardLinks partitions_;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_EXCHANGE_ROUTER_H_

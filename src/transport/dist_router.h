// Sharded invitation-distribution backend for the coordinator.
//
// DistRouter implements coord::DistributionBackend over a fleet of
// vuvuzela-distd shard daemons: Publish slices a dialing round's invitation
// table into contiguous bucket ranges (deaddrop::InvitationDropsOfShard — the
// same map the daemons enforce), pushes each slice concurrently over the
// chunked hop RPC framing, and records the round only once every owning shard
// acked; Fetch routes a bucket download to the owning shard over the same
// link. Both are byte-identical to the in-process InvitationDistributor fed
// the same tables (the dist conformance suite pins this down).
//
// Failure model mirrors ExchangeRouter: the shards are a shard fleet
// (peer_link.h's ShardFleetConfig) reached through one ShardLinks, every link
// a PeerLink under the default ReconnectPolicy, which re-sends a call after a
// connection-level failure (fetches read and publishes replace their slice,
// so a re-send is harmless). Once the policy has no re-send left, a shard
// that stopped answering within the receive deadline surfaces as
// HopTimeoutError and any other wire failure as HopError, on that shard's
// link only. Publish contacts every shard owning buckets, so a dead dist
// shard fails exactly the dialing rounds published during its outage (the
// coordinator's retry policy re-publishes); conversation rounds never touch
// the dist tier. A restarted shard rejoins on the next call that routes to
// it, with no recovery protocol.

#ifndef VUVUZELA_SRC_TRANSPORT_DIST_ROUTER_H_
#define VUVUZELA_SRC_TRANSPORT_DIST_ROUTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/coord/distributor.h"
#include "src/transport/hop_transport.h"
#include "src/transport/hop_wire.h"
#include "src/transport/peer_link.h"
#include "src/util/keep_latest.h"

namespace vuvuzela::transport {

// One bucket download (§5.5), the RPC under both DistRouter::Fetch and
// client::DialingFetcher: routes bucket `drop_index` mod `num_drops` (> 0)
// of `round` to the one of `shards` that owns it, calls kInvitationFetch
// over that link and decodes the reply. Throws what PeerLink::Call throws; a
// ragged reply poisons the link (HopError).
struct FetchedBucket {
  std::vector<wire::Invitation> invitations;
  uint64_t wire_bytes = 0;  // every chunk's framing included
};
FetchedBucket FetchInvitationBucket(const ShardLinks& shards, uint64_t round, uint32_t drop_index,
                                    uint32_t num_drops);

struct DistRouterConfig : ShardFleetConfig {
  // Expiry horizon piggybacked on every publish: each shard keeps its newest
  // `keep_rounds` publications. The engine's Distribute stage drives the
  // router's own Expire with the same value.
  uint32_t keep_rounds = 4;
};

class DistRouter final : public coord::DistributionBackend {
 public:
  // Connects every shard; nullptr if the list is empty or any shard is
  // unreachable at startup (later deaths are per-round failures instead).
  static std::unique_ptr<DistRouter> Connect(const DistRouterConfig& config);

  size_t num_shards() const { return shards_.size(); }

  // DistributionBackend. Publish throws HopError/HopTimeoutError when an
  // owning shard cannot be reached — failing (only) the dialing round being
  // distributed. Fetch throws std::out_of_range for unpublished/expired
  // rounds (matching the in-process backend — including a round the owning
  // shard lost to a restart or a tighter --max-rounds horizon) and HopError
  // flavors for a dead owning shard.
  void Publish(uint64_t round, deaddrop::InvitationTable table) override;
  std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop_index) override;
  bool HasRound(uint64_t round) const override;
  void Expire(size_t keep_latest) override;
  uint64_t bytes_served() const override { return bytes_served_.load(); }
  uint64_t downloads_served() const override { return downloads_served_.load(); }

  // Asks every reachable dist daemon to exit its serve loop (orderly
  // multi-process shutdown): Stop() takes the whole shard process down, every
  // client's download connection included. Best-effort.
  void SendShutdown() { shards_.SendShutdown(); }

 private:
  explicit DistRouter(const DistRouterConfig& config)
      : shards_("dist shard", config), keep_rounds_(config.keep_rounds) {}

  // One link per shard; Publish and Fetch share it: deployed clients
  // download over their own client::DialingFetcher links, never through the
  // router, so no burst of bucket fetches queues ahead of a publish.
  ShardLinks shards_;
  uint32_t keep_rounds_;

  // Rounds fully published (every owning shard acked) and their bucket
  // counts — what routes a fetch to its owning shard.
  mutable std::mutex rounds_mutex_;
  util::KeepLatestMap<uint32_t> round_drops_;

  std::atomic<uint64_t> bytes_served_{0};
  std::atomic<uint64_t> downloads_served_{0};
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_DIST_ROUTER_H_

// Invitation distribution (§5.5).
//
// The paper envisions a CDN or BitTorrent-like system serving invitation
// dead-drop contents — downloads need no mixing or noising, only bandwidth.
// The authors did not implement it; we provide the seam they describe:
//
//  * DistributionBackend is the interface the round engine publishes each
//    dialing round's invitation table through. Downloads are *bucketed*: a client always fetches its entire drop
//    (H(pk) mod m), never a per-user query, so the download side of dialing
//    looks identical for every client (the Bahramali et al. traffic-analysis
//    point: per-user fetch patterns would be as linkable as the deposits the
//    mixnet just protected).
//  * InvitationDistributor is the in-process backend — the seed behavior —
//    serving published drops and accounting the bytes each download costs,
//    which is what the §8.3 client-bandwidth numbers need. The in-process
//    deployments (sim::Deployment, the tests) use it.
//  * transport::DistRouter is the sharded backend coordd runs: it slices
//    each table across vuvuzela-distd shard daemons by contiguous bucket
//    range (the CDN fan-out tier, scaled horizontally like the exchange
//    partitions). Deployed clients download their buckets from those
//    shards themselves (client::DialingFetcher), over the same RPC as
//    DistRouter::Fetch; coordd serves no downloads.
//
// Two backends fed the same published tables serve byte-identical buckets;
// the conformance suite in tests/dist_test.cc pins that down.

#ifndef VUVUZELA_SRC_COORD_DISTRIBUTOR_H_
#define VUVUZELA_SRC_COORD_DISTRIBUTOR_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "src/deaddrop/invitation_table.h"
#include "src/util/keep_latest.h"

namespace vuvuzela::coord {

// Where published invitation tables live and how clients download them.
// Implementations must be safe to call from multiple threads: the engine's
// Distribute stage publishes while downloaders fetch.
class DistributionBackend {
 public:
  virtual ~DistributionBackend() = default;

  // Publishes the invitation table of a finished dialing round. Publishing a
  // round that already exists replaces its table (a retried dialing round
  // re-publishes the identical bytes; see the coordinator's recovery policy).
  virtual void Publish(uint64_t round, deaddrop::InvitationTable table) = 0;

  // Downloads one bucket of a published round; counts the transfer. Throws
  // std::out_of_range for a round that was never published or has expired.
  virtual std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop_index) = 0;

  virtual bool HasRound(uint64_t round) const = 0;

  // Drops rounds older than `keep_latest` publications (dead drops are
  // ephemeral; old invitations must not accumulate, §3.1).
  virtual void Expire(size_t keep_latest) = 0;

  // Download accounting (§8.3: the dialing protocol's cost is dominated by
  // these transfers).
  virtual uint64_t bytes_served() const = 0;
  virtual uint64_t downloads_served() const = 0;
};

// In-process backend: the whole table lives in this process's memory and
// buckets are served by copy. The seed behavior, used by tests and the sim
// deployment.
class InvitationDistributor final : public DistributionBackend {
 public:
  void Publish(uint64_t round, deaddrop::InvitationTable table) override;
  std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop_index) override;
  bool HasRound(uint64_t round) const override;
  void Expire(size_t keep_latest) override;

  uint64_t bytes_served() const override { return bytes_served_.load(); }
  uint64_t downloads_served() const override { return downloads_served_.load(); }

 private:
  // Publishes write, downloads read — concurrently with each other, same
  // discipline as the dist shards' store (N clients copy buckets out at
  // once; only the rare publish/expire takes the store exclusively).
  mutable std::shared_mutex mutex_;
  util::KeepLatestMap<deaddrop::InvitationTable> tables_;
  std::atomic<uint64_t> bytes_served_{0};
  std::atomic<uint64_t> downloads_served_{0};
};

}  // namespace vuvuzela::coord

#endif  // VUVUZELA_SRC_COORD_DISTRIBUTOR_H_

// Client-side invitation-bucket download (§5.5).
//
// Every dialing round, every online client downloads its *entire* invitation
// bucket (H(pk) mod m) from the distribution tier and scans it locally for
// calls sealed to its key. The download is deliberately bucket-granular and
// identical for every client polling the same bucket — a per-user query
// would hand the distribution tier exactly the recipient linkage the mixnet
// just spent a round hiding (Bahramali et al.: the download side is as
// observable as the deposit side).
//
// DialingFetcher speaks the kInvitationFetch batch-message RPC to the
// vuvuzela-distd shard owning the client's bucket. The shard map is the same
// contiguous-range split the coordinator's DistRouter publishes under, so a
// client needs only the fleet's transport::ShardFleetConfig (its "CDN
// configuration") and the round announcement's bucket count. It holds one
// transport::ShardLinks, the same link set the routers hold; its connections
// are lazy, and each fetch runs under the shard links' policy
// (transport/peer_link.h): a dead shard costs the client the dialing rounds
// routed to it, never a hung thread (receive deadlines throughout).

#ifndef VUVUZELA_SRC_CLIENT_DIALING_FETCHER_H_
#define VUVUZELA_SRC_CLIENT_DIALING_FETCHER_H_

#include <cstdint>
#include <vector>

#include "src/client/client.h"
#include "src/dialing/protocol.h"
#include "src/transport/hop_transport.h"
#include "src/transport/peer_link.h"

namespace vuvuzela::client {

// The dist fleet's config under its older name (bench/vzbench still uses it).
using DialingFetcherConfig = transport::ShardFleetConfig;

class DialingFetcher {
 public:
  // Validates the endpoint list only; connections are established lazily at
  // first fetch (a client may outlive many dist-shard restarts).
  explicit DialingFetcher(const transport::ShardFleetConfig& fleet);

  // Downloads one whole bucket of `round`'s invitation table from the shard
  // owning it. Throws transport::HopError / HopTimeoutError when the shard is
  // unreachable or the RPC fails, transport::HopRemoteError when the shard
  // answered with an error report (e.g. the round expired).
  std::vector<wire::Invitation> FetchBucket(uint64_t round, uint32_t drop_index,
                                            uint32_t num_drops);

  // The full client-side dialing download: fetches `client`'s own bucket for
  // `round` and hands it to the client, which decrypts and surfaces any calls
  // addressed to it (VuvuzelaClient::HandleInvitationDrop). Returns the
  // bucket it scanned.
  std::vector<wire::Invitation> FetchFor(VuvuzelaClient& client, uint64_t round,
                                         const dialing::RoundConfig& dial_config);

  // Download accounting (§8.3 client bandwidth).
  uint64_t bytes_fetched() const { return bytes_fetched_; }
  uint64_t buckets_fetched() const { return buckets_fetched_; }

 private:
  transport::ShardLinks shards_;
  uint64_t bytes_fetched_ = 0;
  uint64_t buckets_fetched_ = 0;
};

}  // namespace vuvuzela::client

#endif  // VUVUZELA_SRC_CLIENT_DIALING_FETCHER_H_

#include "src/client/dialing_fetcher.h"

#include <stdexcept>
#include <utility>

#include "src/obs/registry.h"
#include "src/transport/dist_router.h"

namespace vuvuzela::client {

DialingFetcher::DialingFetcher(const transport::ShardFleetConfig& fleet)
    : shards_("dist shard", fleet) {
  if (shards_.size() == 0) {
    throw std::invalid_argument("DialingFetcher: need at least one dist shard endpoint");
  }
}

std::vector<wire::Invitation> DialingFetcher::FetchBucket(uint64_t round, uint32_t drop_index,
                                                          uint32_t num_drops) {
  if (num_drops == 0) {
    throw std::invalid_argument("DialingFetcher: num_drops must be positive");
  }
  transport::FetchedBucket bucket =
      transport::FetchInvitationBucket(shards_, round, drop_index, num_drops);
  // §8.3 client bandwidth: charge what actually crossed the wire — every
  // chunk's framing included — not just the invitation payloads, which
  // undercount by the per-frame overhead.
  bytes_fetched_ += bucket.wire_bytes;
  ++buckets_fetched_;
  static obs::Counter* fetch_bytes = obs::Registry::Global().GetCounter(
      "vuvuzela_client_fetch_bytes_total",
      "On-the-wire bytes of bucket downloads, framing included");
  static obs::Counter* fetch_buckets = obs::Registry::Global().GetCounter(
      "vuvuzela_client_buckets_fetched_total", "Invitation buckets downloaded by clients");
  fetch_bytes->Add(bucket.wire_bytes);
  fetch_buckets->Add();
  return std::move(bucket.invitations);
}

std::vector<wire::Invitation> DialingFetcher::FetchFor(VuvuzelaClient& client, uint64_t round,
                                                       const dialing::RoundConfig& dial_config) {
  std::vector<wire::Invitation> bucket =
      FetchBucket(round, client.InvitationDrop(dial_config), dial_config.total_drops());
  client.HandleInvitationDrop(bucket);
  return bucket;
}

}  // namespace vuvuzela::client

#include "src/transport/dist_router.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/transport/fanout.h"
#include "src/wire/messages.h"

namespace vuvuzela::transport {

FetchedBucket FetchInvitationBucket(const ShardLinks& shards, uint64_t round, uint32_t drop_index,
                                    uint32_t num_drops) {
  drop_index %= num_drops;  // same malformed-index tolerance as the table
  size_t shard = deaddrop::ShardOfInvitationDrop(drop_index, num_drops, shards.size());
  InvitationFetchHeader header{static_cast<uint32_t>(shard),
                               static_cast<uint32_t>(shards.size()), num_drops, drop_index};
  // Call connects lazily (first fetch, or a reconnect after a poisoned RPC)
  // and closes the link on every failure it throws except a remote error
  // report such as an expired round.
  BatchMessage reply = shards[shard].Call(net::FrameType::kInvitationFetch, round,
                                          EncodeInvitationFetchHeader(header), {});
  auto bucket = DecodeInvitationItems(reply.items);
  if (!bucket) {
    shards[shard].Fail("ragged invitation in fetched bucket");  // garbage stream
  }
  return {std::move(*bucket), reply.wire_bytes};
}

std::unique_ptr<DistRouter> DistRouter::Connect(const DistRouterConfig& config) {
  if (config.keep_rounds == 0) {
    return nullptr;
  }
  std::unique_ptr<DistRouter> router(new DistRouter(config));
  return router->shards_.Connect() ? std::move(router) : nullptr;
}

void DistRouter::Publish(uint64_t round, deaddrop::InvitationTable table) {
  size_t num_shards = shards_.size();
  uint32_t num_drops = table.num_drops();

  // Every shard owning at least one bucket receives its slice, empty buckets
  // included: a bucket's size — zero too — is what its downloaders observe,
  // so an owning shard must be able to serve it.
  std::vector<size_t> touched;
  for (size_t s = 0; s < num_shards; ++s) {
    deaddrop::InvitationDropRange range =
        deaddrop::InvitationDropsOfShard(s, num_drops, num_shards);
    if (range.begin < range.end) {
      touched.push_back(s);
    }
  }

  FanOutShards(num_shards, touched, [&](size_t shard) {
    deaddrop::InvitationDropRange range =
        deaddrop::InvitationDropsOfShard(shard, num_drops, num_shards);
    size_t count = 0;
    for (uint32_t drop = range.begin; drop < range.end; ++drop) {
      count += table.Drop(drop).size();
    }
    util::Batch items(count, wire::kDialRequestSize);
    size_t next = 0;
    for (uint32_t drop = range.begin; drop < range.end; ++drop) {
      for (const wire::Invitation& invitation : table.Drop(drop)) {
        // An invitation with its bucket address is exactly a DialRequest.
        wire::DialRequest deposit;
        deposit.dead_drop_index = drop;
        deposit.invitation = invitation;
        deposit.SerializeInto(items[next++]);
      }
    }
    InvitationPublishHeader header{static_cast<uint32_t>(shard),
                                   static_cast<uint32_t>(num_shards), num_drops,
                                   keep_rounds_};
    BatchMessage reply = shards_[shard].Call(net::FrameType::kInvitationPublish, round,
                                             EncodeInvitationPublishHeader(header), items.Views());
    if (!reply.header.empty() || !reply.items.empty()) {
      shards_[shard].Fail("unexpected publish ack payload");
    }
  });

  // Record the round only now: a partially published round (a shard died
  // mid-publish and the exception above aborted the dialing round) must not
  // route fetches, and the coordinator's re-publish will repopulate every
  // shard identically.
  std::lock_guard<std::mutex> lock(rounds_mutex_);
  round_drops_.Put(round, num_drops);
}

std::vector<wire::Invitation> DistRouter::Fetch(uint64_t round, uint32_t drop_index) {
  uint32_t num_drops = 0;
  {
    std::lock_guard<std::mutex> lock(rounds_mutex_);
    const uint32_t* drops = round_drops_.Find(round);
    if (drops == nullptr) {
      throw std::out_of_range("DistRouter: unknown round");
    }
    num_drops = *drops;
  }
  FetchedBucket bucket;
  try {
    bucket = FetchInvitationBucket(shards_, round, drop_index, num_drops);
  } catch (const HopRemoteError& e) {
    // The shard no longer holds a round the local map still routes — it
    // restarted empty, or its --max-rounds horizon is tighter than ours.
    // The DistributionBackend contract promises out_of_range for a round
    // the tier cannot serve (other shards may still hold their slices, so
    // the routing map stays); other remote reports propagate as-is.
    if (std::string(e.what()).find(kDistUnknownRoundError) != std::string::npos) {
      throw std::out_of_range("DistRouter: round expired at shard");
    }
    throw;
  }
  bytes_served_.fetch_add(bucket.invitations.size() * wire::kInvitationSize);
  downloads_served_.fetch_add(1);
  return std::move(bucket.invitations);
}

bool DistRouter::HasRound(uint64_t round) const {
  std::lock_guard<std::mutex> lock(rounds_mutex_);
  return round_drops_.Contains(round);
}

void DistRouter::Expire(size_t keep_latest) {
  // The shards expire themselves off the keep_latest piggybacked on every
  // publish; here only the local routing map needs pruning.
  std::lock_guard<std::mutex> lock(rounds_mutex_);
  round_drops_.Expire(keep_latest);
}

}  // namespace vuvuzela::transport

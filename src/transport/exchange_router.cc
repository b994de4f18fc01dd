#include "src/transport/exchange_router.h"

#include <algorithm>
#include <utility>

#include "src/transport/fanout.h"

namespace vuvuzela::transport {

std::unique_ptr<ExchangeRouter> ExchangeRouter::Connect(const ShardFleetConfig& fleet) {
  std::unique_ptr<ExchangeRouter> router(new ExchangeRouter(fleet));
  return router->partitions_.Connect() ? std::move(router) : nullptr;
}

namespace {

// A round's requests grouped by owning shard: position k of the grouping
// holds request order[k], and shard s's slice is positions
// [begin[s], begin[s + 1]), in round-batch order.
struct ShardOrder {
  std::vector<uint32_t> order;
  std::vector<uint32_t> begin;

  size_t SliceSize(size_t shard) const { return begin[shard + 1] - begin[shard]; }
};

template <typename ShardOf>
ShardOrder GroupByShard(size_t count, size_t num_shards, ShardOf shard_of) {
  ShardOrder groups;
  groups.begin.assign(num_shards + 1, 0);
  std::vector<uint32_t> shard(count);
  for (size_t i = 0; i < count; ++i) {
    shard[i] = static_cast<uint32_t>(shard_of(i));
    groups.begin[shard[i] + 1]++;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    groups.begin[s + 1] += groups.begin[s];
  }
  groups.order.resize(count);
  std::vector<uint32_t> next(groups.begin.begin(), groups.begin.end() - 1);
  for (size_t i = 0; i < count; ++i) {
    groups.order[next[shard[i]]++] = static_cast<uint32_t>(i);
  }
  return groups;
}

// Why `partner` is not a valid pairing of the requests in `slice` (see the
// kExchangeConversation comment in hop_wire.h), or nullptr if it is one.
const char* InvalidPairing(std::span<const util::ByteSpan> slice,
                           std::span<const uint32_t> partner, uint64_t messages_exchanged) {
  for (uint32_t p : partner) {
    if (p >= partner.size()) {
      return "partner index out of range";
    }
  }
  uint64_t paired = 0;
  for (size_t j = 0; j < partner.size(); ++j) {
    uint32_t p = partner[j];
    if (partner[p] != j) {
      return "partner indices are not a pairing";
    }
    if (p != j) {
      if (!std::ranges::equal(slice[j].first(wire::kDeadDropIdSize),
                              slice[p].first(wire::kDeadDropIdSize))) {
        return "paired requests in different dead drops";
      }
      ++paired;
    }
  }
  if (paired != messages_exchanged) {
    return "exchange count does not match the pairing";
  }
  return nullptr;
}

}  // namespace

deaddrop::ExchangeOutcome ExchangeRouter::ExchangeConversation(
    uint64_t round, std::span<const util::ByteSpan> requests) {
  size_t num_shards = partitions_.size();
  ShardOrder groups = GroupByShard(requests.size(), num_shards, [&](size_t i) {
    return deaddrop::ShardOfDeadDrop(requests[i], num_shards);
  });
  // Each shard's slice goes out as views of the caller's requests, in
  // grouped order; no request is copied.
  std::vector<util::ByteSpan> views(requests.size());
  for (size_t k = 0; k < views.size(); ++k) {
    views[k] = requests[groups.order[k]];
  }
  // Only partitions that own requests this round are contacted: a round whose
  // dead drops all live on surviving shards completes even while another
  // partition is down.
  std::vector<size_t> touched;
  for (size_t s = 0; s < num_shards; ++s) {
    if (groups.SliceSize(s) > 0) {
      touched.push_back(s);
    }
  }

  deaddrop::ExchangeOutcome out;
  out.partner.resize(requests.size());
  std::vector<deaddrop::AccessHistogram> histograms(num_shards);
  std::vector<uint64_t> exchanged(num_shards, 0);

  FanOutShards(num_shards, touched, [&](size_t shard) {
    ExchangeConversationHeader header{static_cast<uint32_t>(shard),
                                      static_cast<uint32_t>(num_shards)};
    const size_t first = groups.begin[shard];
    std::span<const util::ByteSpan> slice =
        std::span<const util::ByteSpan>(views).subspan(first, groups.SliceSize(shard));
    BatchMessage reply = partitions_[shard].Call(net::FrameType::kExchangeConversation, round,
                                                 EncodeExchangeConversationHeader(header), slice);
    wire::Reader r(reply.header);
    auto histogram = ReadHistogram(r);
    if (!histogram || !r.AtEnd()) {
      partitions_[shard].Fail("truncated exchange histogram");
    }
    auto partner = DecodePartnerIndices(reply.items, slice.size());
    if (!partner) {
      partitions_[shard].Fail("partner index count mismatch");
    }
    if (const char* invalid = InvalidPairing(slice, *partner, histogram->messages_exchanged)) {
      partitions_[shard].Fail(invalid);
    }
    // Slice-local indices back to round-batch positions.
    for (size_t j = 0; j < partner->size(); ++j) {
      out.partner[groups.order[first + j]] = groups.order[first + (*partner)[j]];
    }
    histograms[shard] = histogram->histogram;
    exchanged[shard] = histogram->messages_exchanged;
  });

  // Merge in shard order — the same accumulation the in-process sharded
  // exchange performs, so the partitioned outcome is byte-identical.
  for (size_t s = 0; s < num_shards; ++s) {
    out.histogram.singles += histograms[s].singles;
    out.histogram.pairs += histograms[s].pairs;
    out.histogram.crowded += histograms[s].crowded;
    out.messages_exchanged += exchanged[s];
  }
  return out;
}

deaddrop::InvitationTable ExchangeRouter::BuildInvitationTable(
    uint64_t round, uint32_t num_drops, std::span<const wire::DialRequest> requests,
    std::span<const deaddrop::NoiseInvitation> noise) {
  size_t num_shards = partitions_.size();
  // Real deposits first, then noise, per shard — the insertion order the
  // in-process table uses, preserved within each drop because one drop's
  // deposits all route to one shard.
  std::vector<wire::DialRequest> deposits;
  deposits.reserve(requests.size() + noise.size());
  for (const auto& request : requests) {
    deposits.push_back(request);
    deposits.back().dead_drop_index %= num_drops;
  }
  for (const auto& fake : noise) {
    deposits.push_back(wire::DialRequest{fake.drop % num_drops, fake.invitation});
  }
  // Serialized on the calling thread into one flat buffer grouped by shard;
  // the fan-out threads send views of their slices.
  ShardOrder groups = GroupByShard(deposits.size(), num_shards, [&](size_t i) {
    return deaddrop::ShardOfInvitationDrop(deposits[i].dead_drop_index, num_drops, num_shards);
  });
  util::Batch items(deposits.size(), wire::kDialRequestSize);
  for (size_t k = 0; k < deposits.size(); ++k) {
    deposits[groups.order[k]].SerializeInto(items[k]);
  }
  std::vector<util::ByteSpan> views = items.Views();

  // Every shard owning at least one drop is contacted even when its deposit
  // list is empty: the merged table must enumerate all m drops, and a drop's
  // size — zero included — is an observable variable.
  std::vector<size_t> touched;
  for (size_t s = 0; s < num_shards; ++s) {
    deaddrop::InvitationDropRange range =
        deaddrop::InvitationDropsOfShard(s, num_drops, num_shards);
    if (range.begin < range.end) {
      touched.push_back(s);
    }
  }

  deaddrop::InvitationTable table(num_drops);
  std::mutex table_mutex;
  FanOutShards(num_shards, touched, [&](size_t shard) {
    ExchangeDialingHeader header{static_cast<uint32_t>(shard), static_cast<uint32_t>(num_shards),
                                 num_drops};
    BatchMessage reply = partitions_[shard].Call(
        net::FrameType::kExchangeDialing, round, EncodeExchangeDialingHeader(header),
        std::span<const util::ByteSpan>(views).subspan(groups.begin[shard],
                                                       groups.SliceSize(shard)));
    // Reply items are the shard's owned drop range in increasing index order.
    deaddrop::InvitationDropRange range =
        deaddrop::InvitationDropsOfShard(shard, num_drops, num_shards);
    if (reply.items.size() != range.end - range.begin) {
      partitions_[shard].Fail("response drop count mismatch");
    }
    std::lock_guard<std::mutex> lock(table_mutex);
    if (!deaddrop::UnpackDrops(reply.items, table, range.begin)) {
      partitions_[shard].Fail("ragged invitation drop");
    }
  });
  return table;
}

}  // namespace vuvuzela::transport

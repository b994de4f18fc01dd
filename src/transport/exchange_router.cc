#include "src/transport/exchange_router.h"

#include <utility>

#include "src/transport/fanout.h"

namespace vuvuzela::transport {

ExchangeRouter::ExchangeRouter(const ExchangeRouterConfig& config) : config_(config) {
  ShardLinkConfig link_config{config.recv_timeout_ms, config.connect_timeout_ms,
                              config.chunk_payload};
  for (const auto& endpoint : config.partitions) {
    partitions_.push_back(std::make_unique<ShardLink>("exchange partition", endpoint.host,
                                                      endpoint.port, link_config));
  }
}

std::unique_ptr<ExchangeRouter> ExchangeRouter::Connect(const ExchangeRouterConfig& config) {
  if (config.partitions.empty()) {
    return nullptr;
  }
  std::unique_ptr<ExchangeRouter> router(new ExchangeRouter(config));
  for (auto& partition : router->partitions_) {
    if (!partition->ConnectStrict()) {
      return nullptr;
    }
  }
  return router;
}

void ExchangeRouter::FanOut(const std::vector<size_t>& shards,
                            const std::function<void(size_t)>& fn) {
  FanOutShards(partitions_.size(), shards, fn);
}

namespace {

// A round's requests serialized on the calling thread into one flat buffer,
// grouped by owning shard: shard s's slice is items [begin[s], begin[s + 1]),
// in round-batch order, and order[k] is the request item k came from. The
// fan-out threads send views of their slices and allocate nothing for them.
struct ShardSlices {
  util::Batch items;
  std::vector<util::ByteSpan> views;
  std::vector<uint32_t> order;
  std::vector<uint32_t> begin;

  std::span<const util::ByteSpan> Slice(size_t shard) const {
    return std::span<const util::ByteSpan>(views).subspan(begin[shard],
                                                          begin[shard + 1] - begin[shard]);
  }
};

template <typename Request, typename ShardOf>
ShardSlices SliceByShard(std::span<const Request> requests, size_t item_size, size_t num_shards,
                         ShardOf shard_of) {
  ShardSlices slices;
  slices.begin.assign(num_shards + 1, 0);
  std::vector<uint32_t> shard(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    shard[i] = static_cast<uint32_t>(shard_of(requests[i]));
    slices.begin[shard[i] + 1]++;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    slices.begin[s + 1] += slices.begin[s];
  }
  slices.items = util::Batch(requests.size(), item_size);
  slices.order.resize(requests.size());
  std::vector<uint32_t> next(slices.begin.begin(), slices.begin.end() - 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    uint32_t k = next[shard[i]]++;
    slices.order[k] = static_cast<uint32_t>(i);
    requests[i].SerializeInto(slices.items[k]);
  }
  slices.views = slices.items.Views();
  return slices;
}

}  // namespace

deaddrop::ExchangeOutcome ExchangeRouter::ExchangeConversation(
    uint64_t round, std::span<const wire::ExchangeRequest> requests) {
  size_t num_shards = partitions_.size();
  ShardSlices slices =
      SliceByShard(requests, wire::kExchangeRequestSize, num_shards,
                   [&](const wire::ExchangeRequest& request) {
                     return deaddrop::ShardOfDeadDrop(request.dead_drop, num_shards);
                   });
  // Only partitions that own requests this round are contacted: a round whose
  // dead drops all live on surviving shards completes even while another
  // partition is down.
  std::vector<size_t> touched;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!slices.Slice(s).empty()) {
      touched.push_back(s);
    }
  }

  deaddrop::ExchangeOutcome out;
  out.results.resize(requests.size());
  std::vector<deaddrop::AccessHistogram> histograms(num_shards);
  std::vector<uint64_t> exchanged(num_shards, 0);

  FanOut(touched, [&](size_t shard) {
    ExchangeConversationHeader header{static_cast<uint32_t>(shard),
                                      static_cast<uint32_t>(num_shards)};
    std::span<const util::ByteSpan> slice = slices.Slice(shard);
    BatchMessage reply = partitions_[shard]->Call(net::FrameType::kExchangeConversation, round,
                                                  EncodeExchangeConversationHeader(header), slice);
    wire::Reader r(reply.header);
    auto histogram = ReadHistogram(r);
    if (!histogram || !r.AtEnd()) {
      partitions_[shard]->Fail("truncated exchange histogram");
    }
    if (reply.items.size() != slice.size()) {
      partitions_[shard]->Fail("response envelope count mismatch");
    }
    for (size_t j = 0; j < reply.items.size(); ++j) {
      util::ByteSpan envelope = reply.items[j];
      if (envelope.size() != wire::kEnvelopeSize) {
        partitions_[shard]->Fail("ragged response envelope");
      }
      std::copy(envelope.begin(), envelope.end(),
                out.results[slices.order[slices.begin[shard] + j]].begin());
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
  ShardSlices slices = SliceByShard(
      std::span<const wire::DialRequest>(deposits), wire::kDialRequestSize, num_shards,
      [&](const wire::DialRequest& deposit) {
        return deaddrop::ShardOfInvitationDrop(deposit.dead_drop_index, num_drops, num_shards);
      });

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
  FanOut(touched, [&](size_t shard) {
    ExchangeDialingHeader header{static_cast<uint32_t>(shard), static_cast<uint32_t>(num_shards),
                                 num_drops};
    BatchMessage reply = partitions_[shard]->Call(net::FrameType::kExchangeDialing, round,
                                                  EncodeExchangeDialingHeader(header),
                                                  slices.Slice(shard));
    // Reply items are the shard's owned drop range in increasing index order.
    deaddrop::InvitationDropRange range =
        deaddrop::InvitationDropsOfShard(shard, num_drops, num_shards);
    if (reply.items.size() != range.end - range.begin) {
      partitions_[shard]->Fail("response drop count mismatch");
    }
    std::lock_guard<std::mutex> lock(table_mutex);
    for (size_t j = 0; j < reply.items.size(); ++j) {
      util::ByteSpan packed = reply.items[j];
      if (packed.size() % wire::kInvitationSize != 0) {
        partitions_[shard]->Fail("ragged invitation drop");
      }
      for (size_t offset = 0; offset < packed.size(); offset += wire::kInvitationSize) {
        wire::Invitation invitation;
        std::copy(packed.begin() + offset, packed.begin() + offset + wire::kInvitationSize,
                  invitation.begin());
        table.Add(range.begin + static_cast<uint32_t>(j), invitation);
      }
    }
  });
  return table;
}

void ExchangeRouter::SendShutdown() {
  for (auto& partition : partitions_) {
    partition->SendShutdown();
  }
}

}  // namespace vuvuzela::transport

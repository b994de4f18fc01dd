#include "src/deaddrop/conversation_table.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "src/util/thread_pool.h"

namespace vuvuzela::deaddrop {

namespace {

// Pairs the requests named by `indices`, writing each partner at its
// request's global position. Both the sequential and the sharded path funnel
// through here, so their pairing semantics cannot drift apart. Sorting one
// flat array of (ID, input position) puts each drop's accesses next to each
// other in input order, so the table needs no heap node per drop. The order
// of the drops themselves changes no output: partners are positional and the
// histogram and exchange count are sums.
void ExchangeSubset(std::span<const util::ByteSpan> requests, std::span<const uint32_t> indices,
                    std::vector<uint32_t>& partner, AccessHistogram& histogram,
                    uint64_t& messages_exchanged) {
  struct Access {
    uint64_t id_high;
    uint64_t id_low;
    uint32_t index;
    bool SameDrop(const Access& other) const {
      return id_high == other.id_high && id_low == other.id_low;
    }
  };
  std::vector<Access> accesses;
  accesses.reserve(indices.size());
  for (uint32_t i : indices) {
    Access access{0, 0, i};
    std::memcpy(&access.id_high, requests[i].data(), 8);
    std::memcpy(&access.id_low, requests[i].data() + 8, 8);
    accesses.push_back(access);
  }
  std::sort(accesses.begin(), accesses.end(), [](const Access& a, const Access& b) {
    return std::tie(a.id_high, a.id_low, a.index) < std::tie(b.id_high, b.id_low, b.index);
  });

  for (size_t first = 0; first < accesses.size();) {
    size_t end = first + 1;
    while (end < accesses.size() && accesses[end].SameDrop(accesses[first])) {
      ++end;
    }
    if (end - first == 1) {
      histogram.singles++;
    } else if (end - first == 2) {
      histogram.pairs++;
    } else {
      histogram.crowded++;
    }
    // Pair consecutive accesses; an odd trailing access is its own partner.
    size_t i = first;
    for (; i + 1 < end; i += 2) {
      partner[accesses[i].index] = accesses[i + 1].index;
      partner[accesses[i + 1].index] = accesses[i].index;
      messages_exchanged += 2;
    }
    if (i < end) {
      partner[accesses[i].index] = accesses[i].index;
    }
    first = end;
  }
}

}  // namespace

ExchangeOutcome ExchangeRound(std::span<const util::ByteSpan> requests) {
  return ShardedExchangeRound(requests, 1);
}

ExchangeOutcome ShardedExchangeRound(std::span<const util::ByteSpan> requests,
                                     size_t num_shards) {
  // Partition on the leading 16 bits of the ID so every access to a drop
  // lands in exactly one shard; a round too small to split is one shard.
  if (num_shards == 0 || requests.size() < 2 * num_shards) {
    num_shards = 1;
  }
  num_shards = std::min<size_t>(num_shards, 1u << 16);
  std::vector<std::vector<uint32_t>> buckets(num_shards);
  for (auto& b : buckets) {
    b.reserve(requests.size() / num_shards + 1);
  }
  for (uint32_t i = 0; i < requests.size(); ++i) {
    buckets[ShardOfDeadDrop(requests[i], num_shards)].push_back(i);
  }

  ExchangeOutcome out;
  out.partner.resize(requests.size());
  std::vector<AccessHistogram> histograms(num_shards);
  std::vector<uint64_t> exchanged(num_shards, 0);
  // Shards write disjoint slots of out.partner, so no locking is needed.
  util::GlobalPool().ParallelFor(num_shards, [&](size_t s) {
    ExchangeSubset(requests, buckets[s], out.partner, histograms[s], exchanged[s]);
  });

  for (size_t s = 0; s < num_shards; ++s) {
    out.histogram.singles += histograms[s].singles;
    out.histogram.pairs += histograms[s].pairs;
    out.histogram.crowded += histograms[s].crowded;
    out.messages_exchanged += exchanged[s];
  }
  return out;
}

}  // namespace vuvuzela::deaddrop

// Conversation dead drops (§3.1, Algorithm 2 step 3b).
//
// The last server in the chain collects every exchange request of a round,
// groups them by 128-bit dead-drop ID, and swaps envelopes between the two
// accesses of each drop: the table computes the pairing, and the caller
// hands each request its partner's envelope. Unmatched requests get their
// own envelope back — an
// indistinguishable result from the requester's network vantage point, and
// the signal (after client-side decryption) that the partner was absent.
//
// The per-round histogram of access counts {m1 = drops accessed once,
// m2 = drops accessed twice} is exactly the observable variable pair that
// Vuvuzela's noise must cover (§4.2); it is exposed here for the adversary
// observer used in tests and benches.

#ifndef VUVUZELA_SRC_DEADDROP_CONVERSATION_TABLE_H_
#define VUVUZELA_SRC_DEADDROP_CONVERSATION_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/bytes.h"

namespace vuvuzela::deaddrop {

// The adversary-visible access-count histogram of one conversation round.
struct AccessHistogram {
  uint64_t singles = 0;  // m1: dead drops accessed exactly once
  uint64_t pairs = 0;    // m2: dead drops accessed exactly twice
  uint64_t crowded = 0;  // drops accessed 3+ times (only adversarial clients)
};

struct ExchangeOutcome {
  // partner[i] is the request whose envelope request i receives: the other
  // access of its dead drop, or i itself for a single access or the odd
  // access out. The pairing is an involution (partner[partner[i]] == i), 4
  // bytes per request: the caller reads the envelopes where they already
  // lie, so the exchange itself never copies one.
  std::vector<uint32_t> partner;
  AccessHistogram histogram;
  // Number of requests whose envelope was actually swapped with a partner.
  uint64_t messages_exchanged = 0;
};

// Shard owning dead-drop `id` when the conversation table is partitioned
// `num_shards` ways by leading 16-bit ID prefix. IDs are uniform hash
// outputs, so prefix sharding balances the load. This single function is
// shared by the in-process sharded exchange, the partitioned-exchange router,
// and the shard-server daemons — the three can never disagree about where a
// drop lives, which is what makes the partitioned outcome byte-identical.
// `id` may be a whole serialized exchange request, which starts with its ID.
inline size_t ShardOfDeadDrop(util::ByteSpan id, size_t num_shards) {
  size_t prefix = (static_cast<size_t>(id[0]) << 8) | id[1];
  return prefix * num_shards >> 16;
}

// Executes one round of dead-drop exchanges over views of serialized
// exchange requests (each wire::kExchangeRequestSize bytes; only the
// dead-drop ID is read). Requests with the same ID are paired in input order;
// an odd request out is its own partner.
ExchangeOutcome ExchangeRound(std::span<const util::ByteSpan> requests);

// Same exchange, partitioned by dead-drop ID prefix across `num_shards`
// workers of the global thread pool. IDs are uniform hash outputs, so prefix
// sharding balances the load; all accesses to one drop land in one shard, so
// the outcome (partner, histogram, messages_exchanged) is byte-identical to
// the sequential path. This is what keeps the last-hop server from being
// single-threaded at the dead-drop stage (the one stage §8.2's per-request
// parallelism does not cover). ExchangeRound is the one-shard case.
ExchangeOutcome ShardedExchangeRound(std::span<const util::ByteSpan> requests,
                                     size_t num_shards);

}  // namespace vuvuzela::deaddrop

#endif  // VUVUZELA_SRC_DEADDROP_CONVERSATION_TABLE_H_

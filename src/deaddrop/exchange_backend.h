// Pluggable dead-drop exchange for the last chain server.
//
// The last server's dead-drop stage is the one part of a round that cannot be
// parallelized per request (§8.2): every exchange of a round must meet in one
// logical table. ShardedExchangeRound spreads that table across threads; this
// interface spreads it across *backends* — the in-process sharded table, or a
// router that partitions the table across vuvuzela-exchanged shard-server
// processes (transport::ExchangeRouter). MixServer calls whichever backend it
// is given; everything else about the last hop (onion unwrap, response
// sealing, noise) is backend-independent, so two backends fed the same round
// produce byte-identical rounds. A backend returns the pairing only
// (ExchangeOutcome::partner); the last hop seals each response from its
// partner's envelope where the peeled request already lies.
//
// Dialing noise is pre-generated by the caller (the last server's RNG) and
// passed in as explicit invitations rather than drawn inside the backend:
// a remote backend cannot share the server's RNG, and determinism across
// backends requires the noise bytes to be fixed before the backend runs.

#ifndef VUVUZELA_SRC_DEADDROP_EXCHANGE_BACKEND_H_
#define VUVUZELA_SRC_DEADDROP_EXCHANGE_BACKEND_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/deaddrop/conversation_table.h"
#include "src/deaddrop/invitation_table.h"
#include "src/wire/messages.h"

namespace vuvuzela::deaddrop {

// One pre-generated noise invitation: a drop index (always in range) plus the
// random bytes to deposit there.
struct NoiseInvitation {
  uint32_t drop = 0;
  wire::Invitation invitation{};
};

class ExchangeBackend {
 public:
  virtual ~ExchangeBackend() = default;

  // Dead-drop exchange of one conversation round over views of serialized
  // exchange requests; the pairing is aligned with `requests` (same contract
  // as ExchangeRound). Throws on backend failure — e.g. a dead exchange
  // partition, or one whose answer is not a valid pairing — which fails this
  // round only.
  virtual ExchangeOutcome ExchangeConversation(uint64_t round,
                                               std::span<const util::ByteSpan> requests) = 0;

  // Builds one dialing round's invitation table: deposits `requests` in input
  // order (indices reduced mod num_drops), then `noise` in its given order.
  virtual InvitationTable BuildInvitationTable(uint64_t round, uint32_t num_drops,
                                               std::span<const wire::DialRequest> requests,
                                               std::span<const NoiseInvitation> noise) = 0;
};

// The in-process tables as a backend: ShardedExchangeRound across
// `num_shards` thread-pool workers (<= 1 means the sequential ExchangeRound)
// and a local invitation table.
class InProcessExchangeBackend : public ExchangeBackend {
 public:
  explicit InProcessExchangeBackend(size_t num_shards) : num_shards_(num_shards) {}

  ExchangeOutcome ExchangeConversation(uint64_t round,
                                       std::span<const util::ByteSpan> requests) override;
  InvitationTable BuildInvitationTable(uint64_t round, uint32_t num_drops,
                                       std::span<const wire::DialRequest> requests,
                                       std::span<const NoiseInvitation> noise) override;

 private:
  size_t num_shards_;
};

}  // namespace vuvuzela::deaddrop

#endif  // VUVUZELA_SRC_DEADDROP_EXCHANGE_BACKEND_H_

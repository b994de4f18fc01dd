// Invitation dead drops for the dialing protocol (§5).
//
// A dialing round creates m large dead drops; an invitation for public key pk
// lands in drop H(pk) mod m. Unlike conversation drops, these are
// downloadable by anyone (recipients are linkable to their drop), so every
// server adds noise invitations to every drop (§5.3). The table lives on the
// last server; its per-drop sizes are the round's observable variables.

#ifndef VUVUZELA_SRC_DEADDROP_INVITATION_TABLE_H_
#define VUVUZELA_SRC_DEADDROP_INVITATION_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/crypto/x25519.h"
#include "src/util/batch.h"
#include "src/util/random.h"
#include "src/wire/messages.h"

namespace vuvuzela::deaddrop {

// Maps a recipient's long-term public key to its invitation dead drop index
// (H(pk) mod m, §5.1).
uint32_t InvitationDropForKey(const crypto::X25519PublicKey& pk, uint32_t num_drops);

// Shard owning invitation drop `index` (already reduced mod `num_drops`) when
// the table is partitioned `num_shards` ways into contiguous drop ranges.
// Shared by the partitioned-exchange router and the shard-server daemons so
// both sides agree on drop placement.
inline size_t ShardOfInvitationDrop(uint32_t index, uint32_t num_drops, size_t num_shards) {
  return static_cast<size_t>(static_cast<uint64_t>(index) * num_shards / num_drops);
}

// The contiguous [begin, end) drop range `shard` owns under the same mapping
// (empty when num_shards > num_drops leaves the shard nothing). Closed form
// of ShardOfInvitationDrop's preimage, so enumerating a shard's drops costs
// O(range) instead of scanning all num_drops indices.
struct InvitationDropRange {
  uint32_t begin = 0;
  uint32_t end = 0;
};
inline InvitationDropRange InvitationDropsOfShard(size_t shard, uint32_t num_drops,
                                                  size_t num_shards) {
  auto first_at_least = [&](size_t s) {
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(s) * num_drops + num_shards - 1) / num_shards);
  };
  return {first_at_least(shard), first_at_least(shard + 1)};
}

class InvitationTable {
 public:
  explicit InvitationTable(uint32_t num_drops);

  uint32_t num_drops() const { return static_cast<uint32_t>(drops_.size()); }

  // Deposits one invitation. Out-of-range indices are reduced mod m so a
  // malformed (or adversarial) request cannot fault the server.
  void Add(uint32_t index, const wire::Invitation& invitation);

  // Deposits `counts[i]` random noise invitations into drop i. Noise
  // invitations are random bytes — indistinguishable from sealed boxes
  // addressed to someone else.
  void AddNoise(std::span<const uint64_t> counts, util::Rng& rng);

  const std::vector<wire::Invitation>& Drop(uint32_t index) const;

  // Observable variable of the round: invitation count per drop.
  std::vector<uint64_t> DropSizes() const;

  // Total bytes a client downloading drop `index` transfers (§8.3).
  uint64_t DropBytes(uint32_t index) const;

 private:
  std::vector<std::vector<wire::Invitation>> drops_;
};

// Every drop of `table` in one buffer, drop i as its invitations back to
// back, with one view per drop: the items of a dialing last hop's reply,
// whether the hop daemon or an exchange partition sends them.
util::PackedItems PackDrops(const InvitationTable& table);

// The inverse of PackDrops: deposits the invitations of packed[j] into drop
// first_drop + j of `table`. False, with `table` unchanged, when a drop is
// not a whole number of invitations.
bool UnpackDrops(std::span<const util::ByteSpan> packed, InvitationTable& table,
                 uint32_t first_drop = 0);

}  // namespace vuvuzela::deaddrop

#endif  // VUVUZELA_SRC_DEADDROP_INVITATION_TABLE_H_

#include "src/deaddrop/exchange_backend.h"

namespace vuvuzela::deaddrop {

ExchangeOutcome InProcessExchangeBackend::ExchangeConversation(
    uint64_t /*round*/, std::span<const util::ByteSpan> requests) {
  return ShardedExchangeRound(requests, num_shards_);
}

InvitationTable InProcessExchangeBackend::BuildInvitationTable(
    uint64_t /*round*/, uint32_t num_drops, std::span<const wire::DialRequest> requests,
    std::span<const NoiseInvitation> noise) {
  InvitationTable table(num_drops);
  for (const auto& request : requests) {
    table.Add(request.dead_drop_index, request.invitation);
  }
  for (const auto& fake : noise) {
    table.Add(fake.drop, fake.invitation);
  }
  return table;
}

}  // namespace vuvuzela::deaddrop

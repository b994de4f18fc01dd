#include "src/baseline/strawman.h"

#include <map>

#include "src/util/batch.h"

namespace vuvuzela::baseline {

StrawmanOutcome RunStrawmanRound(std::span<const StrawmanRequest> requests) {
  std::vector<util::Bytes> serialized;
  serialized.reserve(requests.size());
  StrawmanOutcome outcome;
  for (const StrawmanRequest& r : requests) {
    serialized.push_back(r.request.Serialize());
    outcome.view.accesses.emplace_back(r.client, r.request.dead_drop);
  }

  deaddrop::ExchangeOutcome exchange = deaddrop::ExchangeRound(util::ViewsOf(serialized));
  for (uint32_t partner : exchange.partner) {
    outcome.responses.push_back(requests[partner].request.envelope);
  }
  outcome.view.histogram = exchange.histogram;
  return outcome;
}

std::vector<std::pair<ClientId, ClientId>> LinkPartnersByCoAccess(const StrawmanView& view) {
  std::map<wire::DeadDropId, std::vector<ClientId>> by_drop;
  for (const auto& [client, drop] : view.accesses) {
    by_drop[drop].push_back(client);
  }
  std::vector<std::pair<ClientId, ClientId>> partners;
  for (const auto& [drop, clients] : by_drop) {
    if (clients.size() == 2) {
      partners.emplace_back(std::min(clients[0], clients[1]),
                            std::max(clients[0], clients[1]));
    }
  }
  return partners;
}

int64_t DisconnectionSignal(const deaddrop::AccessHistogram& with_suspect,
                            const deaddrop::AccessHistogram& without_suspect) {
  return static_cast<int64_t>(with_suspect.pairs) - static_cast<int64_t>(without_suspect.pairs);
}

}  // namespace vuvuzela::baseline

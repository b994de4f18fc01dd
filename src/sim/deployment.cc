#include "src/sim/deployment.h"

namespace vuvuzela::sim {

namespace {

mixnet::ChainConfig ToChainConfig(const DeploymentConfig& config) {
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = config.num_servers;
  chain_config.conversation_noise = config.conversation_noise;
  chain_config.dialing_noise = config.dialing_noise;
  chain_config.non_mixing_positions = config.non_mixing_positions;
  return chain_config;
}

}  // namespace

Deployment::Deployment(const DeploymentConfig& config)
    : config_(config),
      seed_rng_(config.seed),
      chain_(mixnet::Chain::Create(ToChainConfig(config), seed_rng_)),
      entry_(&chain_),
      dial_config_{.num_real_drops = config.num_real_dial_drops} {}

size_t Deployment::AddClient() {
  client::ClientConfig client_config;
  crypto::ChaCha20Key key_seed;
  seed_rng_.Fill(key_seed);
  crypto::ChaChaRng key_rng(key_seed);
  client_config.keys = crypto::X25519KeyPair::Generate(key_rng);
  client_config.chain = chain_.public_keys();
  client_config.max_conversations = config_.max_conversations_per_client;

  crypto::ChaCha20Key client_seed;
  seed_rng_.Fill(client_seed);
  clients_.push_back(std::make_unique<client::VuvuzelaClient>(client_config, client_seed));
  return clients_.size() - 1;
}

mixnet::Chain::ConversationResult Deployment::RunConversationRound() {
  uint64_t round = next_conversation_round_++;

  // Entry server: collect every online client's onions, remembering slot
  // ranges. Offline clients simply miss the round (§3.1).
  std::vector<std::pair<size_t, size_t>> slots(clients_.size(), {0, 0});  // [first, count]
  for (size_t c = 0; c < clients_.size(); ++c) {
    if (!IsClientOnline(c)) {
      continue;
    }
    std::vector<util::Bytes> onions = clients_[c]->PrepareConversationOnions(round);
    size_t first = 0;
    for (size_t i = 0; i < onions.size(); ++i) {
      size_t slot = entry_.Submit(round, std::move(onions[i]));
      if (i == 0) {
        first = slot;
      }
    }
    slots[c] = {first, onions.size()};
  }

  mixnet::Chain::ConversationResult result = entry_.CloseConversationRound(round);

  for (size_t c = 0; c < clients_.size(); ++c) {
    if (slots[c].second == 0) {
      continue;
    }
    std::vector<util::Bytes> responses;
    responses.reserve(slots[c].second);
    for (size_t i = 0; i < slots[c].second; ++i) {
      responses.push_back(entry_.TakeResponse(round, slots[c].first + i));
    }
    clients_[c]->HandleConversationResponses(round, responses);
  }
  return result;
}

Deployment::DialingRoundOutcome Deployment::RunDialingRound() {
  uint64_t round = next_dialing_round_++;

  for (size_t c = 0; c < clients_.size(); ++c) {
    if (IsClientOnline(c)) {
      entry_.Submit(round, clients_[c]->PrepareDialOnion(round, dial_config_));
    }
  }
  mixnet::Chain::DialingResult result =
      entry_.CloseDialingRound(round, dial_config_.total_drops());
  distribution_->Publish(round, std::move(result.table));

  // Every online client downloads its whole invitation bucket each dialing
  // round (§3.1, §5.5) — through whichever distribution backend is wired in.
  for (size_t c = 0; c < clients_.size(); ++c) {
    if (!IsClientOnline(c)) {
      continue;
    }
    const auto& drop = distribution_->Fetch(round, clients_[c]->InvitationDrop(dial_config_));
    clients_[c]->HandleInvitationDrop(drop);
  }
  return DialingRoundOutcome{round, std::move(result.stats)};
}

}  // namespace vuvuzela::sim

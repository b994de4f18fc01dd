#include "src/sim/deployment.h"

#include "src/transport/hop_chain.h"

namespace vuvuzela::sim {

namespace {

mixnet::ChainConfig ToChainConfig(const DeploymentConfig& config) {
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = config.num_servers;
  chain_config.conversation_noise = config.conversation_noise;
  chain_config.dialing_noise = config.dialing_noise;
  return chain_config;
}

}  // namespace

Deployment::Deployment(const DeploymentConfig& config)
    : config_(config),
      seed_rng_(config.seed),
      chain_(mixnet::Chain::Create(ToChainConfig(config), seed_rng_)),
      scheduler_(MakeScheduler()),
      dial_config_{.num_real_drops = config.num_real_dial_drops} {}

std::unique_ptr<engine::RoundScheduler> Deployment::MakeScheduler() {
  return std::make_unique<engine::RoundScheduler>(
      transport::MakeLocalTransports(chain_.servers()),
      engine::SchedulerConfig{.max_in_flight = 1, .distribution = distribution_});
}

void Deployment::SetDistributionBackend(coord::DistributionBackend* backend) {
  distribution_ = backend != nullptr ? backend : &distributor_;
  scheduler_ = MakeScheduler();
}

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

  // Entry-server role: concatenate every online client's onions into one
  // batch, remembering slot ranges. Offline clients simply miss the round
  // (§3.1).
  std::vector<util::Bytes> batch;
  std::vector<std::pair<size_t, size_t>> slots(clients_.size(), {0, 0});  // [first, count]
  for (size_t c = 0; c < clients_.size(); ++c) {
    if (!IsClientOnline(c)) {
      continue;
    }
    std::vector<util::Bytes> onions = clients_[c]->PrepareConversationOnions(round);
    slots[c] = {batch.size(), onions.size()};
    for (auto& onion : onions) {
      batch.push_back(std::move(onion));
    }
  }

  mixnet::Chain::ConversationResult result =
      scheduler_->SubmitConversation(round, std::move(batch)).get();

  std::span<const util::Bytes> responses = result.responses;
  for (size_t c = 0; c < clients_.size(); ++c) {
    auto [first, count] = slots[c];
    if (count != 0) {
      clients_[c]->HandleConversationResponses(round, responses.subspan(first, count));
    }
  }
  return result;
}

Deployment::DialingRoundOutcome Deployment::RunDialingRound() {
  uint64_t round = next_dialing_round_++;

  std::vector<util::Bytes> batch;
  for (size_t c = 0; c < clients_.size(); ++c) {
    if (IsClientOnline(c)) {
      batch.push_back(clients_[c]->PrepareDialOnion(round, dial_config_));
    }
  }
  // The scheduler's Distribute stage publishes the table into distribution_.
  mixnet::Chain::DialingResult result =
      scheduler_->SubmitDialing(round, std::move(batch), dial_config_.total_drops()).get();

  // The round completed: every online client's dial is acknowledged, and
  // each downloads its whole invitation bucket (§3.1, §5.5) — through
  // whichever distribution backend is wired in.
  for (size_t c = 0; c < clients_.size(); ++c) {
    if (!IsClientOnline(c)) {
      continue;
    }
    clients_[c]->HandleDialAck(round);
    const auto& drop = distribution_->Fetch(round, clients_[c]->InvitationDrop(dial_config_));
    clients_[c]->HandleInvitationDrop(drop);
  }
  return DialingRoundOutcome{round, std::move(result.stats)};
}

}  // namespace vuvuzela::sim

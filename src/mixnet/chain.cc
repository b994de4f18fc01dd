#include "src/mixnet/chain.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "src/util/stats.h"

namespace vuvuzela::mixnet {

using util::SecondsSince;

uint64_t RoundStats::total_dh_ops() const {
  uint64_t total = 0;
  for (const auto& s : forward) {
    total += s.dh_ops;
  }
  for (const auto& s : backward) {
    total += s.dh_ops;
  }
  return total;
}

uint64_t RoundStats::total_bytes() const {
  uint64_t total = 0;
  for (const auto& s : forward) {
    total += s.bytes_in + s.bytes_out;
  }
  for (const auto& s : backward) {
    total += s.bytes_in + s.bytes_out;
  }
  return total;
}

Chain Chain::Create(const ChainConfig& config, util::Rng& rng) {
  if (config.num_servers == 0) {
    throw std::invalid_argument("Chain: need at least one server");
  }
  Chain chain;

  std::vector<crypto::X25519KeyPair> key_pairs;
  key_pairs.reserve(config.num_servers);
  for (size_t i = 0; i < config.num_servers; ++i) {
    key_pairs.push_back(crypto::X25519KeyPair::Generate(rng));
    chain.public_keys_.push_back(key_pairs.back().public_key);
  }

  for (size_t i = 0; i < config.num_servers; ++i) {
    MixServerConfig server_config;
    server_config.position = i;
    server_config.chain_length = config.num_servers;
    server_config.conversation_noise = config.conversation_noise;
    server_config.dialing_noise = config.dialing_noise;
    server_config.exchange_shards = config.exchange_shards;
    server_config.mix = std::find(config.non_mixing_positions.begin(),
                                  config.non_mixing_positions.end(),
                                  i) == config.non_mixing_positions.end();
    crypto::ChaCha20Key seed;
    rng.Fill(seed);
    chain.servers_.push_back(
        std::make_unique<MixServer>(server_config, key_pairs[i], chain.public_keys_, seed));
  }
  return chain;
}

Chain::ConversationResult Chain::RunConversationRound(uint64_t round,
                                                      std::vector<util::Bytes> onions) {
  ConversationResult result;
  result.stats.forward.resize(servers_.size());
  result.stats.backward.resize(servers_.size() > 0 ? servers_.size() - 1 : 0);

  auto forward_start = std::chrono::steady_clock::now();
  std::vector<util::Bytes> batch = std::move(onions);
  for (size_t i = 0; i + 1 < servers_.size(); ++i) {
    std::vector<util::Bytes> input_copy;
    if (observer_) {
      input_copy = batch;
    }
    batch = servers_[i]->ForwardConversation(round, std::move(batch), &result.stats.forward[i]);
    if (observer_) {
      observer_->OnForwardPass(i, round, input_copy, batch);
    }
  }

  size_t last = servers_.size() - 1;
  std::vector<util::Bytes> last_input;
  if (observer_) {
    last_input = batch;
  }
  MixServer::LastServerResult last_result = servers_[last]->ProcessConversationLastHop(
      round, std::move(batch), &result.stats.forward[last]);
  result.histogram = last_result.histogram;
  result.messages_exchanged = last_result.messages_exchanged;
  if (observer_) {
    observer_->OnForwardPass(last, round, last_input, last_result.responses);
    observer_->OnDeadDrops(round, last_result.histogram);
  }
  result.stats.forward_seconds = SecondsSince(forward_start);

  auto backward_start = std::chrono::steady_clock::now();
  std::vector<util::Bytes> responses = std::move(last_result.responses);
  for (size_t i = servers_.size() - 1; i-- > 0;) {
    responses =
        servers_[i]->BackwardConversation(round, std::move(responses), &result.stats.backward[i]);
  }
  result.stats.backward_seconds = SecondsSince(backward_start);

  result.responses = std::move(responses);
  return result;
}

Chain::DialingResult Chain::RunDialingRound(uint64_t round, std::vector<util::Bytes> onions,
                                            uint32_t num_drops) {
  RoundStats stats;
  stats.forward.resize(servers_.size());

  auto start = std::chrono::steady_clock::now();
  std::vector<util::Bytes> batch = std::move(onions);
  for (size_t i = 0; i + 1 < servers_.size(); ++i) {
    std::vector<util::Bytes> input_copy;
    if (observer_) {
      input_copy = batch;
    }
    batch = servers_[i]->ForwardDialing(round, std::move(batch), num_drops, &stats.forward[i]);
    if (observer_) {
      observer_->OnForwardPass(i, round, input_copy, batch);
    }
  }
  size_t last = servers_.size() - 1;
  deaddrop::InvitationTable table = servers_[last]->ProcessDialingLastHop(
      round, std::move(batch), num_drops, &stats.forward[last]);
  stats.forward_seconds = SecondsSince(start);

  return DialingResult{std::move(table), std::move(stats)};
}

}  // namespace vuvuzela::mixnet

#include "src/mixnet/chain.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "src/util/stats.h"

namespace vuvuzela::mixnet {

using util::SecondsSince;

namespace {

// The observer's owned copy of a pass input.
std::vector<util::Bytes> ToVectors(std::span<const util::ByteSpan> items) {
  std::vector<util::Bytes> copies;
  copies.reserve(items.size());
  for (util::ByteSpan item : items) {
    copies.emplace_back(item.begin(), item.end());
  }
  return copies;
}

}  // namespace

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

  // Between hops the batch stays flat: each pass reads views of the previous
  // pass's output. Only the observer and the result take owned vectors.
  auto forward_start = std::chrono::steady_clock::now();
  util::Batch batch;
  std::vector<util::ByteSpan> input = util::ViewsOf(onions);
  for (size_t i = 0; i + 1 < servers_.size(); ++i) {
    util::Batch output =
        servers_[i]->ForwardConversation(round, input, &result.stats.forward[i]);
    if (observer_) {
      observer_->OnForwardPass(i, round, ToVectors(input), output.ToVectors());
    }
    batch = std::move(output);
    input = batch.Views();
  }

  size_t last = servers_.size() - 1;
  MixServer::LastHopOutput last_result =
      servers_[last]->ProcessConversationLastHop(round, input, &result.stats.forward[last]);
  result.histogram = last_result.histogram;
  result.messages_exchanged = last_result.messages_exchanged;
  if (observer_) {
    observer_->OnForwardPass(last, round, ToVectors(input), last_result.responses.ToVectors());
    observer_->OnDeadDrops(round, last_result.histogram);
  }
  result.stats.forward_seconds = SecondsSince(forward_start);

  auto backward_start = std::chrono::steady_clock::now();
  util::Batch responses = std::move(last_result.responses);
  for (size_t i = servers_.size() - 1; i-- > 0;) {
    responses =
        servers_[i]->BackwardConversation(round, responses.Views(), &result.stats.backward[i]);
  }
  result.stats.backward_seconds = SecondsSince(backward_start);

  result.responses = responses.ToVectors();
  return result;
}

Chain::DialingResult Chain::RunDialingRound(uint64_t round, std::vector<util::Bytes> onions,
                                            uint32_t num_drops) {
  RoundStats stats;
  stats.forward.resize(servers_.size());

  auto start = std::chrono::steady_clock::now();
  util::Batch batch;
  std::vector<util::ByteSpan> input = util::ViewsOf(onions);
  for (size_t i = 0; i + 1 < servers_.size(); ++i) {
    util::Batch output = servers_[i]->ForwardDialing(round, input, num_drops, &stats.forward[i]);
    if (observer_) {
      observer_->OnForwardPass(i, round, ToVectors(input), output.ToVectors());
    }
    batch = std::move(output);
    input = batch.Views();
  }
  size_t last = servers_.size() - 1;
  deaddrop::InvitationTable table =
      servers_[last]->ProcessDialingLastHop(round, input, num_drops, &stats.forward[last]);
  stats.forward_seconds = SecondsSince(start);

  return DialingResult{std::move(table), std::move(stats)};
}

}  // namespace vuvuzela::mixnet

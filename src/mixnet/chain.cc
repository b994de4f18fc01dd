#include "src/mixnet/chain.h"

#include <algorithm>
#include <stdexcept>

namespace vuvuzela::mixnet {

MixServerConfig ChainServerConfig(const ChainConfig& config, size_t position) {
  MixServerConfig server_config;
  server_config.position = position;
  server_config.chain_length = config.num_servers;
  server_config.conversation_noise = config.conversation_noise;
  server_config.dialing_noise = config.dialing_noise;
  server_config.mix = std::find(config.non_mixing_positions.begin(),
                                config.non_mixing_positions.end(),
                                position) == config.non_mixing_positions.end();
  return server_config;
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
    crypto::ChaCha20Key seed;
    rng.Fill(seed);
    chain.servers_.push_back(std::make_unique<MixServer>(ChainServerConfig(config, i),
                                                         key_pairs[i], chain.public_keys_, seed));
  }
  return chain;
}

}  // namespace vuvuzela::mixnet

#include "src/mixnet/chain.h"

#include <stdexcept>
#include <utility>

namespace vuvuzela::mixnet {

MixServerConfig ChainServerConfig(const ChainConfig& config, size_t position) {
  MixServerConfig server_config;
  server_config.position = position;
  server_config.chain_length = config.num_servers;
  server_config.conversation_noise = config.conversation_noise;
  server_config.dialing_noise = config.dialing_noise;
  return server_config;
}

ChainKeyMaterial DrawChainKeys(size_t num_servers, util::Rng& rng) {
  ChainKeyMaterial keys;
  keys.key_pairs.resize(num_servers);
  for (crypto::X25519KeyPair& key_pair : keys.key_pairs) {
    rng.Fill(key_pair.secret_key);
    key_pair.public_key = crypto::X25519BasePoint(key_pair.secret_key);
    keys.public_keys.push_back(key_pair.public_key);
  }
  keys.rng_seeds.resize(num_servers);
  for (auto& seed : keys.rng_seeds) {
    rng.Fill(seed);
  }
  return keys;
}

std::unique_ptr<MixServer> BuildMixServer(const ChainConfig& config, const ChainKeyMaterial& keys,
                                          size_t position) {
  return std::make_unique<MixServer>(ChainServerConfig(config, position), keys.key_pairs[position],
                                     keys.public_keys, keys.rng_seeds[position]);
}

std::vector<std::unique_ptr<MixServer>> BuildMixServers(const ChainConfig& config,
                                                        const ChainKeyMaterial& keys) {
  std::vector<std::unique_ptr<MixServer>> servers;
  servers.reserve(keys.key_pairs.size());
  for (size_t i = 0; i < keys.key_pairs.size(); ++i) {
    servers.push_back(BuildMixServer(config, keys, i));
  }
  return servers;
}

Chain Chain::Create(const ChainConfig& config, util::Rng& rng) {
  if (config.num_servers == 0) {
    throw std::invalid_argument("Chain: need at least one server");
  }
  ChainKeyMaterial keys = DrawChainKeys(config.num_servers, rng);
  Chain chain;
  chain.servers_ = BuildMixServers(config, keys);
  chain.public_keys_ = std::move(keys.public_keys);
  return chain;
}

}  // namespace vuvuzela::mixnet

// vuvuzela-hopd — one chain hop as a standalone process (§7).
//
//   $ vuvuzela-hopd --position 0 --servers 3 --port 7341 --seed 42 --mu 50
//
// Serves the hop RPC protocol (transport::HopDaemon) until the coordinator
// sends kShutdown. Two key ceremonies:
//
//  * Real (--key-file + --key-dir): the hop reads its own secret and noise
//    seed from a vuvuzela-keygen key file and everyone's public keys from
//    the shared directory file — this process never holds another hop's
//    private material. Position and chain length come from the files.
//  * Shared seed (--seed, test/demo fallback): every process derives the
//    full chain deterministically (src/transport/hop_chain.h).
//
// The last hop can partition its dead-drop exchange across
// vuvuzela-exchanged shard servers:
//
//   $ vuvuzela-exchanged --shard 0 --shards 2 --port 7351
//   $ vuvuzela-exchanged --shard 1 --shards 2 --port 7352
//   $ vuvuzela-hopd --position 2 --servers 3 --port 7343 --seed 42 \
//       --exchange 127.0.0.1:7351,127.0.0.1:7352
//
// On orderly shutdown the hop forwards kShutdown to its partitions.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/coord/keydir.h"
#include "src/noise/laplace.h"
#include "src/obs/daemon_process.h"
#include "src/transport/hop_chain.h"
#include "src/transport/hop_daemon.h"
#include "src/util/flags.h"

using namespace vuvuzela;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--position I --servers N] [--port P] [--mu M] [--dial-mu D]\n"
               "          [--seed S | --key-file HOP.key --key-dir CHAIN.pub]\n"
               "          [--exchange host:port[,host:port...]]\n"
               "          [--metrics-port P]\n"
               "Runs one Vuvuzela chain hop; port 0 picks an ephemeral port and prints it.\n"
               "--key-file/--key-dir load vuvuzela-keygen output (the hop holds only its\n"
               "own secret; position and chain length come from the files). --seed is the\n"
               "shared-seed test ceremony and needs --position/--servers.\n"
               "--exchange partitions the last hop's dead-drop exchange across\n"
               "vuvuzela-exchanged shard servers (endpoint i serves shard i).\n"
               "--mu/--dial-mu must be finite and non-negative (0 adds no cover traffic).\n"
               "Cover traffic is deterministic (the paper's evaluation mode): every pass\n"
               "adds exactly mu (rounded) cover messages, not a Laplace sample, so this\n"
               "hop gives no differential-privacy guarantee.\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  size_t position = 0;
  bool have_position = false;
  size_t servers = 3;
  bool have_servers = false;
  uint64_t seed = 1;
  std::string key_file;
  std::string key_dir;
  double mu = 50.0;
  double dial_mu = 10.0;
  transport::HopDaemonConfig daemon_config;
  util::FlagSet flags;
  obs::DaemonProcess process("vuvuzela-hopd", flags);
  flags.Value("--position", [&](const char* value) {
    have_position = true;
    return util::ParseUnsigned(value, UINT64_MAX, &position);
  });
  flags.Value("--servers", [&](const char* value) {
    have_servers = true;
    return util::ParseUnsigned(value, UINT64_MAX, &servers);
  });
  flags.String("--key-file", &key_file);
  flags.String("--key-dir", &key_dir);
  flags.Unsigned("--port", 65535, &daemon_config.port);
  flags.Unsigned("--seed", UINT64_MAX, &seed);
  flags.NonNegative("--mu", &mu);
  flags.NonNegative("--dial-mu", &dial_mu);
  flags.Value("--exchange", [&](const char* value) {
    return net::ParseEndpointList(value, &daemon_config.exchange.shards);
  });
  // Key files carry the hop's position and the directory its chain length;
  // either ceremony must end with a coherent (position, servers) pair. The
  // two key files travel together, and the shared-seed ceremony needs an
  // explicit position.
  if (!flags.Parse(argc, argv) || key_file.empty() != key_dir.empty() ||
      (key_file.empty() && !have_position)) {
    Usage(argv[0]);
    return 2;
  }

  // Resolve the key ceremony: every path ends with this hop's key pair and
  // noise seed plus the whole chain's public keys.
  crypto::X25519KeyPair key_pair;
  crypto::ChaCha20Key noise_seed;
  std::vector<crypto::X25519PublicKey> public_keys;
  if (!key_file.empty()) {
    auto hop_key = coord::ReadHopKeyFile(key_file);
    if (!hop_key) {
      std::fprintf(stderr, "vuvuzela-hopd: cannot read key file %s\n", key_file.c_str());
      return 1;
    }
    auto directory = coord::KeyDirectory::LoadFromFile(key_dir);
    if (!directory) {
      std::fprintf(stderr, "vuvuzela-hopd: cannot read key directory %s\n", key_dir.c_str());
      return 1;
    }
    size_t chain_length = directory->ChainLength();
    auto chain_keys = directory->ChainPublicKeys(chain_length);
    if (chain_length == 0 || !chain_keys) {
      std::fprintf(stderr, "vuvuzela-hopd: key directory %s has no hop0..hopN chain\n",
                   key_dir.c_str());
      return 1;
    }
    position = have_position ? position : hop_key->position;
    servers = have_servers ? servers : chain_length;
    key_pair = hop_key->key_pair;
    noise_seed = hop_key->noise_seed;
    public_keys = std::move(*chain_keys);
    if (position != hop_key->position || servers != chain_length || position >= servers) {
      std::fprintf(stderr, "vuvuzela-hopd: flags disagree with key files (position %zu/%zu)\n",
                   position, servers);
      return 1;
    }
    if (public_keys[position] != key_pair.public_key) {
      std::fprintf(stderr, "vuvuzela-hopd: key file secret does not match directory entry\n");
      return 1;
    }
  } else {
    mixnet::ChainKeyMaterial keys = transport::DeriveChainKeys(seed, servers);
    if (servers == 0 || position >= servers) {
      Usage(argv[0]);
      return 2;
    }
    key_pair = keys.key_pairs[position];
    noise_seed = keys.rng_seeds[position];
    public_keys = keys.public_keys;
  }
  if (!daemon_config.exchange.shards.empty() && position + 1 != servers) {
    std::fprintf(stderr, "vuvuzela-hopd: only the last hop hosts the dead drops\n");
    return 2;
  }

  // Deterministic noise: a fixed µ per pass, not a Laplace sample (see the
  // usage text).
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = servers;
  chain_config.conversation_noise = {.params = noise::HopNoise(mu), .deterministic = true};
  chain_config.dialing_noise = {.params = noise::HopNoise(dial_mu), .deterministic = true};

  process.SetTraceLabel("hopd-" + std::to_string(position));
  auto daemon = transport::HopDaemon::Create(
      daemon_config,
      std::make_unique<mixnet::MixServer>(mixnet::ChainServerConfig(chain_config, position),
                                          key_pair, public_keys, noise_seed));
  if (!daemon) {
    std::fprintf(stderr,
                 "vuvuzela-hopd: cannot listen on port %u (or an exchange partition is "
                 "unreachable)\n",
                 daemon_config.port);
    return 1;
  }

  std::string status = "position " + std::to_string(position) + "/" + std::to_string(servers) +
                       " listening on 127.0.0.1:" + std::to_string(daemon->port());
  if (daemon->exchange_router()) {
    status += " (exchange partitioned " +
              std::to_string(daemon->exchange_router()->num_shards()) + " ways)";
  }
  if (!process.Ready(status)) {
    return 1;
  }
  daemon->Serve();
  // Orderly shutdown cascades to the exchange partitions: the coordinator
  // stops the hops, the last hop stops its shard servers.
  if (daemon->exchange_router()) {
    daemon->exchange_router()->SendShutdown();
  }
  std::printf("vuvuzela-hopd: position %zu served %llu RPCs, exiting\n", position,
              static_cast<unsigned long long>(daemon->rpcs_served()));
  process.PrintSnapshot();
  return 0;
}

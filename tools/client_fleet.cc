// client_fleet — §8.1's simulated users as one process of real clients
// (sim::RunClientFleet: one seeded client::VuvuzelaClient per user, paired
// into silent conversations, each pair's first client dialing the second
// once) for a vuvuzela-coordd started with --clients N:
//
//   $ client_fleet --coord 127.0.0.1:7331 --users 40 --hops 3 --seed 42
//         [--dist 127.0.0.1:7361,127.0.0.1:7362]
//
// --key-dir CHAIN.pub takes the chain keys from vuvuzela-keygen output
// instead of the shared seed, which then seeds only the clients. --dist
// names the vuvuzela-distd shards coordd publishes to (coordd's --dist);
// after every dialing round each client downloads its own invitation
// bucket, H(pk) mod m, from them. Exits 0 once coordd shuts the clients
// down, iff every bucket fetch was answered and every placed call was
// received.

#include <cstdio>
#include <string>
#include <vector>

#include "src/coord/keydir.h"
#include "src/sim/client_fleet.h"
#include "src/transport/hop_chain.h"
#include "src/util/flags.h"

using namespace vuvuzela;

int main(int argc, char** argv) {
  std::vector<net::Endpoint> coordinator;
  sim::ClientFleetConfig config;
  size_t hops = 0;
  std::string key_dir;
  util::FlagSet flags;
  flags.Value("--coord",
              [&](const char* value) { return net::ParseEndpointList(value, &coordinator); });
  flags.Value("--dist",
              [&](const char* value) { return net::ParseEndpointList(value, &config.dist); });
  flags.Unsigned("--users", UINT64_MAX, &config.users);
  flags.Unsigned("--hops", UINT64_MAX, &hops);
  flags.Unsigned("--seed", UINT64_MAX, &config.seed);
  flags.String("--key-dir", &key_dir);
  if (!flags.Parse(argc, argv) || coordinator.size() != 1 || config.users == 0 ||
      (hops == 0) == key_dir.empty()) {
    std::fprintf(stderr,
                 "usage: %s --coord host:port --users N [--dist host:port[,host:port...]]\n"
                 "          (--hops H --seed S | --key-dir CHAIN.pub [--seed S])\n",
                 argv[0]);
    return 2;
  }
  config.coordinator = coordinator[0];
  if (key_dir.empty()) {
    config.chain = transport::DeriveChainKeys(config.seed, hops).public_keys;
  } else if (auto directory = coord::KeyDirectory::LoadFromFile(key_dir)) {
    config.chain = directory->ChainPublicKeys(directory->ChainLength()).value_or(config.chain);
  }
  if (config.chain.empty()) {
    std::fprintf(stderr, "client_fleet: cannot read chain keys from %s\n", key_dir.c_str());
    return 1;
  }

  auto result = sim::RunClientFleet(config);
  if (!result) {
    std::fprintf(stderr, "client_fleet: cannot connect %llu clients\n",
                 static_cast<unsigned long long>(config.users));
    return 1;
  }
  std::printf("client_fleet: dialing downloads: %llu/%llu bucket fetches, %llu bytes\n",
              static_cast<unsigned long long>(result->dialing_fetches),
              static_cast<unsigned long long>(result->dialing_fetches_expected),
              static_cast<unsigned long long>(result->dialing_fetch_bytes));
  std::printf("client_fleet: calls: %llu/%llu received\n",
              static_cast<unsigned long long>(result->calls_received),
              static_cast<unsigned long long>(result->calls_placed));
  return result->dialing_fetches == result->dialing_fetches_expected &&
                 result->calls_received == result->calls_placed
             ? 0
             : 1;
}

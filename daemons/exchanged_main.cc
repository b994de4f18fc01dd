// vuvuzela-exchanged — one exchange partition as a standalone process.
//
//   $ vuvuzela-exchanged --shard 0 --shards 2 --port 7351
//
// Owns shard 0 of a 2-way partition of the last hop's dead-drop table
// (conversation + invitation) and serves the exchange-partition RPCs
// (transport::ExchangedDaemon) until the last hop's router sends kShutdown.
// The daemon holds no key material and no cross-round state: it sees only
// the already-unwrapped exchange requests the last chain server routes to
// it, and a restarted instance rejoins the next round automatically.

#include <cstdio>
#include <string>

#include "src/obs/daemon_process.h"
#include "src/transport/exchange_daemon.h"
#include "src/util/flags.h"

using namespace vuvuzela;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --shard I --shards N [--port P] [--metrics-port P]\n"
               "Runs one exchange partition (shard I of N); port 0 picks an ephemeral port\n"
               "and prints it.\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  transport::ExchangedConfig config;
  util::FlagSet flags;
  obs::DaemonProcess process("vuvuzela-exchanged", flags);
  flags.Unsigned("--shard", UINT32_MAX, &config.shard_index);
  flags.Unsigned("--shards", UINT32_MAX, &config.num_shards);
  // Without them a launcher that forgot one would start another shard 0 of 1.
  flags.Require("--shard");
  flags.Require("--shards");
  flags.Unsigned("--port", 65535, &config.port);
  if (!flags.Parse(argc, argv) || config.shard_index >= config.num_shards) {
    Usage(argv[0]);
    return 2;
  }

  process.SetTraceLabel("exchanged-" + std::to_string(config.shard_index));
  auto daemon = transport::ExchangedDaemon::Create(config);
  if (!daemon) {
    std::fprintf(stderr, "vuvuzela-exchanged: cannot listen on port %u\n", config.port);
    return 1;
  }

  if (!process.Ready("shard " + std::to_string(config.shard_index) + "/" +
                     std::to_string(config.num_shards) + " listening on 127.0.0.1:" +
                     std::to_string(daemon->port()))) {
    return 1;
  }
  daemon->Serve();
  std::printf("vuvuzela-exchanged: shard %u served %llu RPCs, exiting\n", config.shard_index,
              static_cast<unsigned long long>(daemon->rpcs_served()));
  process.PrintSnapshot();
  return 0;
}

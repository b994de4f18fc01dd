// vuvuzela-distd — one invitation-distribution shard as a standalone process.
//
//   $ vuvuzela-distd --shard 0 --shards 2 --port 7361
//
// Owns the contiguous bucket range of shard 0 in a 2-way split of every
// dialing round's invitation table (§5.5's CDN tier). The coordinator's
// DistRouter pushes each round's slice over kInvitationPublish; clients
// download their bucket over kInvitationFetch, any number of them
// concurrently. The daemon holds no key material — invitations are sealed
// boxes only their recipients can open — and no cross-round obligations: a
// restarted instance simply misses the rounds published during its outage
// and repopulates off the next publish.

#include <cstdio>
#include <string>

#include "src/obs/daemon_process.h"
#include "src/transport/dist_daemon.h"
#include "src/util/flags.h"

using namespace vuvuzela;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --shard I --shards N [--port P] [--max-rounds R]\n"
               "          [--metrics-port P]\n"
               "Runs one invitation-distribution shard (shard I of N); port 0 picks an\n"
               "ephemeral port and prints it. --max-rounds caps retained publications\n"
               "(each publish also carries the coordinator's expiry horizon).\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  transport::DistDaemonConfig config;
  util::FlagSet flags;
  obs::DaemonProcess process("vuvuzela-distd", flags);
  flags.Unsigned("--shard", UINT32_MAX, &config.shard_index);
  flags.Unsigned("--shards", UINT32_MAX, &config.num_shards);
  // Without them a launcher that forgot one would start another shard 0 of 1.
  flags.Require("--shard");
  flags.Require("--shards");
  flags.Unsigned("--port", 65535, &config.port);
  flags.Unsigned("--max-rounds", UINT64_MAX, &config.max_rounds);
  if (!flags.Parse(argc, argv) || config.shard_index >= config.num_shards ||
      config.max_rounds == 0) {
    Usage(argv[0]);
    return 2;
  }

  process.SetTraceLabel("distd-" + std::to_string(config.shard_index));
  auto daemon = transport::DistDaemon::Create(config);
  if (!daemon) {
    std::fprintf(stderr, "vuvuzela-distd: cannot listen on port %u\n", config.port);
    return 1;
  }

  if (!process.Ready("shard " + std::to_string(config.shard_index) + "/" +
                     std::to_string(config.num_shards) + " listening on 127.0.0.1:" +
                     std::to_string(daemon->port()))) {
    return 1;
  }
  daemon->Serve();
  std::printf("vuvuzela-distd: shard %u stored %llu publishes, served %llu bucket fetches "
              "(%llu bytes), exiting\n",
              config.shard_index, static_cast<unsigned long long>(daemon->publishes_stored()),
              static_cast<unsigned long long>(daemon->fetches_served()),
              static_cast<unsigned long long>(daemon->bytes_served()));
  process.PrintSnapshot();
  return 0;
}

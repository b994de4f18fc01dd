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

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/transport/dist_daemon.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

using namespace vuvuzela;

namespace {

struct Flags {
  uint16_t port = 0;
  uint32_t shard = 0;
  uint32_t shards = 1;
  size_t max_rounds = 64;
  int metrics_port = -1;  // /metrics + /trace (-1 = disabled, 0 = ephemeral)
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --shard I --shards N [--port P] [--max-rounds R]\n"
               "          [--metrics-port P]\n"
               "Runs one invitation-distribution shard (shard I of N); port 0 picks an\n"
               "ephemeral port and prints it. --max-rounds caps retained publications\n"
               "(each publish also carries the coordinator's expiry horizon).\n",
               argv0);
}

bool Parse(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (arg == "--shard" && (value = next())) {
      if (!util::ParseUnsigned(value, UINT32_MAX, &flags->shard)) {
        return false;
      }
    } else if (arg == "--shards" && (value = next())) {
      if (!util::ParseUnsigned(value, UINT32_MAX, &flags->shards)) {
        return false;
      }
    } else if (arg == "--port" && (value = next())) {
      if (!util::ParseUnsigned(value, 65535, &flags->port)) {
        return false;
      }
    } else if (arg == "--max-rounds" && (value = next())) {
      if (!util::ParseUnsigned(value, UINT64_MAX, &flags->max_rounds)) {
        return false;
      }
    } else if (arg == "--metrics-port" && (value = next())) {
      if (!util::ParseUnsigned(value, 65535, &flags->metrics_port)) {
        return false;
      }
    } else {
      return false;
    }
  }
  return flags->shards > 0 && flags->shard < flags->shards && flags->max_rounds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!Parse(argc, argv, &flags)) {
    Usage(argv[0]);
    return 2;
  }

  obs::TraceJournal::Global().SetProcess("distd-" + std::to_string(flags.shard));
  transport::DistDaemonConfig config;
  config.port = flags.port;
  config.shard_index = flags.shard;
  config.num_shards = flags.shards;
  config.max_rounds = flags.max_rounds;
  config.metrics_port = flags.metrics_port;
  auto daemon = transport::DistDaemon::Create(config);
  if (!daemon) {
    std::fprintf(stderr, "vuvuzela-distd: cannot listen on port %u\n", flags.port);
    return 1;
  }

  std::printf("vuvuzela-distd: shard %u/%u listening on 127.0.0.1:%u", flags.shard,
              flags.shards, daemon->port());
  if (daemon->metrics_port() != 0) {
    std::printf(" (metrics on http://127.0.0.1:%u/metrics)", daemon->metrics_port());
  }
  std::printf("\n");
  std::fflush(stdout);
  daemon->Serve();
  std::printf("vuvuzela-distd: shard %u stored %llu publishes, served %llu bucket fetches "
              "(%llu bytes), exiting\n",
              flags.shard, static_cast<unsigned long long>(daemon->publishes_stored()),
              static_cast<unsigned long long>(daemon->fetches_served()),
              static_cast<unsigned long long>(daemon->bytes_served()));
  // The final registry snapshot, one line: what smoke runs assert on, since
  // the fleet can finish before any scrape sees this daemon's last pass.
  std::printf("vuvuzela-distd: metrics %s\n", obs::Registry::Global().SnapshotJson().c_str());
  return 0;
}

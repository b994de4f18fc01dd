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

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/transport/exchange_daemon.h"
#include "src/util/flags.h"
#include "src/util/logging.h"

using namespace vuvuzela;

namespace {

struct Flags {
  uint16_t port = 0;
  uint32_t shard = 0;
  uint32_t shards = 1;
  size_t local_shards = 1;
  int metrics_port = -1;  // /metrics + /trace (-1 = disabled, 0 = ephemeral)
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --shard I --shards N [--port P] [--local-shards K]\n"
               "          [--metrics-port P]\n"
               "Runs one exchange partition (shard I of N); port 0 picks an ephemeral port\n"
               "and prints it.\n",
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
    } else if (arg == "--local-shards" && (value = next())) {
      if (!util::ParseUnsigned(value, UINT64_MAX, &flags->local_shards)) {
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
  return flags->shards > 0 && flags->shard < flags->shards && flags->local_shards > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!Parse(argc, argv, &flags)) {
    Usage(argv[0]);
    return 2;
  }

  obs::TraceJournal::Global().SetProcess("exchanged-" + std::to_string(flags.shard));
  transport::ExchangedConfig config;
  config.port = flags.port;
  config.shard_index = flags.shard;
  config.num_shards = flags.shards;
  config.local_shards = flags.local_shards;
  config.metrics_port = flags.metrics_port;
  auto daemon = transport::ExchangedDaemon::Create(config);
  if (!daemon) {
    std::fprintf(stderr, "vuvuzela-exchanged: cannot listen on port %u\n", flags.port);
    return 1;
  }

  std::printf("vuvuzela-exchanged: shard %u/%u listening on 127.0.0.1:%u", flags.shard,
              flags.shards, daemon->port());
  if (daemon->metrics_port() != 0) {
    std::printf(" (metrics on http://127.0.0.1:%u/metrics)", daemon->metrics_port());
  }
  std::printf("\n");
  std::fflush(stdout);
  daemon->Serve();
  std::printf("vuvuzela-exchanged: shard %u served %llu RPCs, exiting\n", flags.shard,
              static_cast<unsigned long long>(daemon->rpcs_served()));
  // The final registry snapshot, one line: what smoke runs assert on, since
  // the fleet can finish before any scrape sees this daemon's last pass.
  std::printf("vuvuzela-exchanged: metrics %s\n",
              obs::Registry::Global().SnapshotJson().c_str());
  return 0;
}

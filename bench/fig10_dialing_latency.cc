// FIG10 — Figure 10: dialing-protocol end-to-end latency vs number of online
// users, µ=13000, 5% of users dialing per round (§8.2: "13 seconds with ten
// users to 50 seconds with two million users").
//
// DIST section: invitation-bucket download fan-out throughput vs the number
// of vuvuzela-distd shard *processes* (forked children of this bench) — the
// §5.5 CDN axis the latency figure does not cover. A fleet is published one
// dialing round's invitation table through transport::DistRouter, then a
// fleet of client-side DialingFetchers (each its own connections, as real
// clients would be) downloads buckets as fast as the shards serve them.
// VUVUZELA_FIG10_SECTION=latency|dist runs one section alone.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/forked_fleet.h"
#include "bench/round_runner.h"
#include "src/client/dialing_fetcher.h"
#include "src/coord/distributor.h"
#include "src/sim/cost_model.h"
#include "src/transport/dist_daemon.h"
#include "src/transport/dist_router.h"

using namespace vuvuzela;

namespace {

// Forks one vuvuzela-distd-equivalent process per shard (the child runs
// transport::DistDaemon directly; same serving loop as the binary).
std::vector<bench::ForkedServer> SpawnDistFleet(uint32_t num_shards) {
  return bench::SpawnForkedFleet(num_shards, [](uint32_t shard, uint32_t shards) {
    transport::DistDaemonConfig config;
    config.shard_index = shard;
    config.num_shards = shards;
    return transport::DistDaemon::Create(config);
  });
}

deaddrop::InvitationTable MakeRoundTable(uint32_t num_drops, uint64_t per_bucket,
                                         uint64_t seed) {
  deaddrop::InvitationTable table(num_drops);
  util::Xoshiro256Rng rng(seed);
  std::vector<uint64_t> counts(num_drops, per_bucket);
  table.AddNoise(counts, rng);
  return table;
}

struct FanOutResult {
  double seconds = 0.0;
  uint64_t fetches = 0;
  uint64_t bytes = 0;
  uint64_t failures = 0;
};

// One whole-bucket download; returns the bytes transferred, throws on
// failure.
using BucketFetchFn = std::function<uint64_t(uint32_t bucket)>;

// `num_fetchers` concurrent clients perform `total_fetches` whole-bucket
// downloads (buckets round-robin — every bucket polled equally, the uniform
// download pattern the dialing protocol requires). Each fetcher thread gets
// its own fetch function from `make_fetcher` (its own connections, as real
// clients would hold). One harness serves both the in-process baseline and
// the sharded rows, so the printed vs-local ratios always compare the
// identical fan-out plan. A failed download is counted, not fatal: a shard
// dying mid-bench must not terminate the bench from a fetcher thread, and
// only completed downloads count toward throughput.
FanOutResult TimeFetchFanOut(const std::function<BucketFetchFn()>& make_fetcher,
                             uint32_t num_drops, size_t total_fetches, size_t num_fetchers) {
  std::vector<std::thread> fetchers;
  std::vector<uint64_t> bytes(num_fetchers, 0);
  std::vector<uint64_t> failures(num_fetchers, 0);
  auto start = std::chrono::steady_clock::now();
  for (size_t f = 0; f < num_fetchers; ++f) {
    fetchers.emplace_back([&, f] {
      BucketFetchFn fetch = make_fetcher();
      for (size_t i = f; i < total_fetches; i += num_fetchers) {
        try {
          bytes[f] += fetch(static_cast<uint32_t>(i % num_drops));
        } catch (const std::exception&) {
          ++failures[f];
        }
      }
    });
  }
  for (auto& fetcher : fetchers) {
    fetcher.join();
  }
  FanOutResult out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (uint64_t b : bytes) {
    out.bytes += b;
  }
  for (uint64_t f : failures) {
    out.failures += f;
  }
  out.fetches = total_fetches - out.failures;
  return out;
}

void RunDistSection(const std::vector<uint32_t>& shard_counts,
                    std::vector<std::vector<bench::ForkedServer>> fleets) {
  const uint32_t kNumDrops = 4;
  const uint64_t kPerBucket = bench::SmokeScale() ? 500 : 5000;  // invitations per bucket
  const size_t kFetches = bench::SmokeScale() ? 400 : 4000;      // bucket downloads
  const size_t kFetchers = 8;                                    // concurrent clients
  const uint64_t kRound = 1;
  std::printf("\n  DIST: invitation-bucket download fan-out vs dist-shard processes\n"
              "  (%u buckets x %llu invitations, %zu whole-bucket downloads from %zu\n"
              "  concurrent clients; sharded rows cross loopback TCP to forked\n"
              "  vuvuzela-distd processes):\n",
              kNumDrops, static_cast<unsigned long long>(kPerBucket), kFetches, kFetchers);
  std::printf("  %-22s %-12s %-14s %-12s %-10s\n", "backend", "seconds", "buckets/sec",
              "MB/sec", "vs local");

  // In-process baseline: the identical fan-out plan against the seed's
  // InvitationDistributor (memory copies, no wire).
  coord::InvitationDistributor local;
  local.Publish(kRound, MakeRoundTable(kNumDrops, kPerBucket, 42));
  FanOutResult local_result = TimeFetchFanOut(
      [&] {
        return [&](uint32_t bucket) -> uint64_t {
          return local.Fetch(kRound, bucket).size() * wire::kInvitationSize;
        };
      },
      kNumDrops, kFetches, kFetchers);
  double local_seconds = local_result.seconds;
  double local_mb = static_cast<double>(local_result.bytes) / 1e6;
  std::printf("  %-22s %-12.3f %-14s %-12.1f %-10s\n", "in-process", local_seconds,
              bench::Human(local_result.fetches / local_seconds).c_str(),
              local_mb / local_seconds, "1.00x");
  bench::EmitJson("fig10_dist_inprocess",
                  {{"seconds", local_seconds},
                   {"buckets_per_sec", local_result.fetches / local_seconds},
                   {"mb_per_sec", local_mb / local_seconds}});

  for (size_t i = 0; i < shard_counts.size(); ++i) {
    transport::DistRouterConfig config;
    for (const auto& shard : fleets[i]) {
      config.shards.push_back({"127.0.0.1", shard.port});
    }
    auto router = transport::DistRouter::Connect(config);
    if (!router) {
      std::fprintf(stderr, "cannot reach dist fleet of %u\n", shard_counts[i]);
      bench::ShutdownForkedFleet(nullptr, fleets[i]);
      continue;
    }
    try {
      router->Publish(kRound, MakeRoundTable(kNumDrops, kPerBucket, 42));
      FanOutResult result = TimeFetchFanOut(
          [&] {
            auto fetcher = std::make_shared<client::DialingFetcher>(config);
            return [fetcher](uint32_t bucket) -> uint64_t {
              return fetcher->FetchBucket(kRound, bucket, kNumDrops).size() *
                     wire::kInvitationSize;
            };
          },
          kNumDrops, kFetches, kFetchers);
      if (result.failures > 0) {
        std::fprintf(stderr, "dist fleet of %u: %llu/%zu downloads failed\n", shard_counts[i],
                     static_cast<unsigned long long>(result.failures), kFetches);
      }
      double mb = static_cast<double>(result.bytes) / 1e6;
      char label[32];
      std::snprintf(label, sizeof(label), "%u distd procs", shard_counts[i]);
      std::printf("  %-22s %-12.3f %-14s %-12.1f %.2fx\n", label, result.seconds,
                  bench::Human(result.fetches / result.seconds).c_str(), mb / result.seconds,
                  local_seconds / result.seconds);
      char section[48];
      std::snprintf(section, sizeof(section), "fig10_dist_%u_procs", shard_counts[i]);
      bench::EmitJson(section, {{"seconds", result.seconds},
                                {"buckets_per_sec", result.fetches / result.seconds},
                                {"mb_per_sec", mb / result.seconds},
                                {"failed_downloads", static_cast<double>(result.failures)},
                                {"vs_local", local_seconds / result.seconds}});
      bench::ShutdownForkedFleet([&] { router->SendShutdown(); }, fleets[i]);
    } catch (const std::exception& e) {
      // A shard died or stalled mid-bench: report, reap the fleet by force
      // (an orderly shutdown may no longer reach it), keep benching.
      std::fprintf(stderr, "dist fleet of %u failed: %s\n", shard_counts[i], e.what());
      bench::KillForkedFleet(fleets[i]);
    }
  }
  std::printf("  Each dist shard owns a contiguous bucket range and serves any number of\n"
              "  downloads concurrently (thread per connection); the in-process row moves\n"
              "  memory, the sharded rows pay loopback wire + serialization per download.\n"
              "  What sharding buys is aggregate egress: per-machine bandwidth is the §5.5\n"
              "  bottleneck at scale, and shards add egress the way a CDN adds edges.\n");
}

}  // namespace

int main() {
  const char* section = std::getenv("VUVUZELA_FIG10_SECTION");
  bool run_latency = section == nullptr || std::strcmp(section, "latency") == 0;
  bool run_dist = section == nullptr || std::strcmp(section, "dist") == 0;

  // Fork the dist fleets before anything starts a thread (the latency
  // section's parallel workloads spin up the global pool).
  const std::vector<uint32_t> kShardCounts = {1, 2, 4};
  std::vector<std::vector<bench::ForkedServer>> fleets;
  if (run_dist) {
    for (uint32_t count : kShardCounts) {
      fleets.push_back(SpawnDistFleet(count));
      if (fleets.back().empty()) {
        std::fprintf(stderr, "failed to fork dist fleet of %u\n", count);
        for (const auto& fleet : fleets) {
          bench::KillForkedFleet(fleet);  // don't orphan the earlier fleets
        }
        return 1;
      }
    }
  }

  bench::PrintHeader("FIG10", "dialing latency vs number of users (mu=13K, 5% dialing)");

  if (run_dist) {
    RunDistSection(kShardCounts, std::move(fleets));
  }
  if (!run_latency) {
    return 0;
  }

  const double kScale = 100.0;
  const double kMu = 13000;
  const uint64_t user_points[] = {10, 500000, 1000000, 1500000, 2000000};
  // §7: at experimental scale the optimal number of invitation dead drops is
  // one (plus the no-op drop).
  const uint32_t kTotalDrops = 2;

  std::printf("\n  REAL rounds at 1/100 scale (mu=%g, users/100):\n", kMu / kScale);
  std::printf("  %-12s %-10s %-14s\n", "users/100", "seconds", "reqs@last");
  for (uint64_t users : user_points) {
    uint64_t scaled_users = std::max<uint64_t>(10, users / 100);
    bench::RealRound round =
        bench::RunRealDialingRound(scaled_users, 3, kMu / kScale, kTotalDrops, 0.05, users ^ 3);
    std::printf("  %-12llu %-10.3f %-14llu\n", static_cast<unsigned long long>(scaled_users),
                round.seconds, static_cast<unsigned long long>(round.requests_at_last_server));
  }

  sim::CostModel model = sim::CostModel::Measure();
  std::printf("\n  MODEL at paper scale:\n");
  std::printf("  %-12s %-10s   (paper Fig 10: 13 s @10 users, 50 s @2M)\n", "users", "seconds");
  for (uint64_t users : user_points) {
    double latency = model.DialingRoundLatency(users, 3, kMu, kTotalDrops);
    std::printf("  %-12s %-10.1f\n", bench::Human(static_cast<double>(users)).c_str(), latency);
  }
  bench::PrintNote("dialing runs concurrently with conversations in the paper's setup; the"
                   " model reports the dialing chain pass alone, hence a lower floor.");
  return 0;
}

// FIG11 — Figure 11: conversation latency vs the number of servers in the
// chain (1–6), 1M users, µ=300K. §8.2: "Performance scales roughly
// quadratically with the number of servers ... each of the s servers must
// decrypt cover traffic from all previous servers, with O(s) work for all
// O(s) servers, leading to O(s²) scaling."
//
// PARTITION section: dead-drop exchange throughput vs the number of
// vuvuzela-exchanged shard-server *processes* (forked children of this
// bench), the horizontal-scaling axis the chain-length figure does not cover.
// VUVUZELA_FIG11_SECTION=latency|partition runs one section alone.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "bench/forked_fleet.h"
#include "bench/round_runner.h"
#include "src/deaddrop/exchange_backend.h"
#include "src/sim/cost_model.h"
#include "src/transport/exchange_daemon.h"
#include "src/transport/exchange_router.h"
#include "src/util/batch.h"
#include "src/util/random.h"

using namespace vuvuzela;

namespace {

// Forks one vuvuzela-exchanged-equivalent process per shard (the child runs
// transport::ExchangedDaemon directly; same serving loop as the binary).
std::vector<bench::ForkedServer> SpawnExchangeFleet(uint32_t num_shards) {
  return bench::SpawnForkedFleet(num_shards, [](uint32_t shard, uint32_t shards) {
    transport::ExchangedConfig config;
    config.shard_index = shard;
    config.num_shards = shards;
    return transport::ExchangedDaemon::Create(config);
  });
}

// `count` serialized exchange requests in one batch, as the last hop holds
// them after peeling: consecutive pairs share a drop, an odd one is alone.
util::Batch PairedRequests(size_t count, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  util::Batch requests(count, wire::kExchangeRequestSize);
  for (size_t i = 0; i < count; ++i) {
    wire::ExchangeRequest request;
    if (i % 2 == 1) {
      std::copy_n(requests[i - 1].data(), wire::kDeadDropIdSize, request.dead_drop.begin());
    } else {
      rng.Fill(request.dead_drop);
    }
    rng.Fill(request.envelope);
    request.SerializeInto(requests[i]);
  }
  return requests;
}

double TimeExchange(deaddrop::ExchangeBackend& backend, size_t iterations,
                    const util::Batch& requests) {
  std::vector<util::ByteSpan> views = requests.Views();
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iterations; ++i) {
    auto outcome = backend.ExchangeConversation(i + 1, views);
    if (outcome.partner.size() != requests.size()) {
      // Report but keep going — exiting here would orphan the forked fleets
      // (the conformance suite is where correctness is enforced).
      std::fprintf(stderr, "exchange returned wrong result count\n");
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void RunPartitionSection(const std::vector<uint32_t>& shard_counts,
                         std::vector<std::vector<bench::ForkedServer>> fleets) {
  const size_t kRequests =
      bench::FullScale() ? 2200000 : (bench::SmokeScale() ? 20000 : 200000);
  const size_t kIterations = bench::SmokeScale() ? 2 : 3;
  std::printf("\n  PARTITION: dead-drop exchange throughput vs shard-server processes\n"
              "  (%zu requests/round, %zu rounds per point; partitioned rows cross\n"
              "  loopback TCP to forked vuvuzela-exchanged processes):\n",
              kRequests, kIterations);
  std::printf("  %-22s %-14s %-14s %-10s\n", "backend", "sec/round", "requests/sec", "vs local");

  util::Batch requests = PairedRequests(kRequests, 1137);
  deaddrop::InProcessExchangeBackend local(1);
  double local_seconds = TimeExchange(local, kIterations, requests) / kIterations;
  std::printf("  %-22s %-14.3f %-14s %-10s\n", "in-process x1", local_seconds,
              bench::Human(kRequests / local_seconds).c_str(), "1.00x");
  bench::EmitJson("fig11_partition_inprocess_x1",
                  {{"sec_per_round", local_seconds},
                   {"requests_per_sec", kRequests / local_seconds}});
  for (uint32_t count : shard_counts) {
    deaddrop::InProcessExchangeBackend sharded(count);
    double seconds = TimeExchange(sharded, kIterations, requests) / kIterations;
    char label[32];
    std::snprintf(label, sizeof(label), "in-process x%u", count);
    std::printf("  %-22s %-14.3f %-14s %.2fx\n", label, seconds,
                bench::Human(kRequests / seconds).c_str(), local_seconds / seconds);
  }

  for (size_t i = 0; i < shard_counts.size(); ++i) {
    transport::ShardFleetConfig config;
    for (const auto& partition : fleets[i]) {
      config.shards.push_back({"127.0.0.1", partition.port});
    }
    auto router = transport::ExchangeRouter::Connect(config);
    if (!router) {
      std::fprintf(stderr, "cannot reach exchange fleet of %u\n", shard_counts[i]);
      bench::ShutdownForkedFleet(nullptr, fleets[i]);
      continue;
    }
    try {
      double seconds = TimeExchange(*router, kIterations, requests) / kIterations;
      char label[32];
      std::snprintf(label, sizeof(label), "%u exchanged procs", shard_counts[i]);
      std::printf("  %-22s %-14.3f %-14s %.2fx\n", label, seconds,
                  bench::Human(kRequests / seconds).c_str(), local_seconds / seconds);
      char section[48];
      std::snprintf(section, sizeof(section), "fig11_partition_%u_procs", shard_counts[i]);
      bench::EmitJson(section, {{"sec_per_round", seconds},
                                {"requests_per_sec", kRequests / seconds},
                                {"vs_local", local_seconds / seconds}});
      bench::ShutdownForkedFleet([&] { router->SendShutdown(); }, fleets[i]);
    } catch (const std::exception& e) {
      // A shard server died or stalled mid-bench: report, reap the fleet by
      // force (an orderly shutdown may no longer reach it), keep benching.
      std::fprintf(stderr, "exchange fleet of %u failed: %s\n", shard_counts[i], e.what());
      bench::KillForkedFleet(fleets[i]);
    }
  }
  std::printf("  Each shard server owns one ID-prefix slice of the dead-drop table and runs\n"
              "  single-threaded; the router fans slices out concurrently, so with one core\n"
              "  per shard the wire+serialization cost overlaps across processes and the\n"
              "  table work scales with the process count. On fewer cores than shards the\n"
              "  partitioned rows mostly price the loopback wire — what partitioning buys\n"
              "  is the per-machine memory/CPU ceiling, not single-box speed (cf. Atom).\n");
}

}  // namespace

int main() {
  const char* section = std::getenv("VUVUZELA_FIG11_SECTION");
  bool run_latency = section == nullptr || std::strcmp(section, "latency") == 0;
  bool run_partition = section == nullptr || std::strcmp(section, "partition") == 0;

  // Fork the shard-server fleets before anything starts a thread (the
  // latency section below spins up the global pool).
  const std::vector<uint32_t> kShardCounts = {2, 4};
  std::vector<std::vector<bench::ForkedServer>> fleets;
  if (run_partition) {
    for (uint32_t count : kShardCounts) {
      fleets.push_back(SpawnExchangeFleet(count));
      if (fleets.back().empty()) {
        std::fprintf(stderr, "failed to fork exchange fleet of %u\n", count);
        for (const auto& fleet : fleets) {
          bench::KillForkedFleet(fleet);  // don't orphan the earlier fleets
        }
        return 1;
      }
    }
  }

  bench::PrintHeader("FIG11", "conversation latency vs chain length (1M users, mu=300K)");

  if (run_partition) {
    RunPartitionSection(kShardCounts, std::move(fleets));
  }
  if (!run_latency) {
    return 0;
  }

  const double kScale = 100.0;
  std::printf("\n  REAL rounds at 1/100 scale (10K users, mu=3K), driven through the\n"
              "  pipelined engine (K=3, 3 rounds per point):\n");
  std::printf("  %-9s %-14s %-12s\n", "servers", "latency (s)", "msgs/sec");
  for (size_t servers = 1; servers <= 6; ++servers) {
    bench::MultiRound run = bench::RunPipelinedConversationRounds(
        1000000 / 100, servers, 300000 / kScale, /*rounds=*/3, /*max_in_flight=*/3,
        servers * 11);
    std::printf("  %-9zu %-14.3f %-12.0f\n", servers, run.mean_round_seconds,
                run.messages_per_second);
  }
  std::printf("  Latency grows ~quadratically with chain length (each server decrypts all\n"
              "  previous servers' noise) while pipelining holds throughput closer to flat:\n"
              "  with K rounds in flight every server stays busy on some round.\n");

  sim::CostModel model = sim::CostModel::Measure();
  std::printf("\n  MODEL at paper scale (paper Fig 11: ~25 s @1 server ... ~135 s @6 servers):\n");
  std::printf("  %-9s %-10s %-22s\n", "servers", "seconds", "vs quadratic fit");
  double first = 0.0;
  for (size_t servers = 1; servers <= 6; ++servers) {
    double latency = model.ConversationRoundLatency(1000000, servers, 300000);
    if (servers == 1) {
      first = latency;
    }
    // Fit: latency(s) ≈ a + c·s² normalized to the 1-server point.
    std::printf("  %-9zu %-10.1f %.2fx of 1-server\n", servers, latency, latency / first);
  }
  return 0;
}

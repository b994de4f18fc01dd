// Shared driver: run real protocol rounds at a given scale and time them.
// Workload (client-side onion wrapping) is generated outside the timed
// region, mirroring §8.1 ("to ensure that clients are not the bottleneck").
//
// Every driver runs its rounds through engine::RoundScheduler over the
// chain's LocalTransports, on one workload shape:
//  * the lock-step driver submits at K = 1 and waits on each round's future
//    before the next collection window, so each round occupies the chain
//    for its whole duration;
//  * the pipelined driver pushes the same rounds with K rounds in flight
//    (§8.3), which is how the deployed system reaches its throughput
//    numbers.

#ifndef VUVUZELA_BENCH_ROUND_RUNNER_H_
#define VUVUZELA_BENCH_ROUND_RUNNER_H_

#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/noise/laplace.h"
#include "src/sim/workload.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace vuvuzela::bench {

struct RealRound {
  double seconds = 0.0;
  mixnet::RoundStats stats;
  uint64_t requests_at_last_server = 0;
  uint64_t messages_exchanged = 0;
};

// Multi-round run through either driver.
struct MultiRound {
  uint64_t rounds = 0;
  uint64_t messages_exchanged = 0;
  double wall_seconds = 0.0;
  double messages_per_second = 0.0;
  // Mean submit→complete latency of one round (pipelined: rounds overlap, so
  // this exceeds wall_seconds / rounds; that gap is the pipelining win).
  double mean_round_seconds = 0.0;
  // Latency distribution tails (same submit→complete metric; the pipelined
  // drivers record per-round latencies, the lock-step driver derives them
  // from each round's stats). What BENCH_engine.json tracks per commit.
  double p50_round_seconds = 0.0;
  double p99_round_seconds = 0.0;
};

inline mixnet::Chain MakeBenchChain(size_t servers, double mu, uint64_t seed,
                                    double dial_mu = 0.0) {
  mixnet::ChainConfig config;
  config.num_servers = servers;
  // §8.1: "we configure servers to always add exactly µ noise, rather than
  // sampling the Laplace distribution" — same mean, less variance.
  config.conversation_noise = {.params = noise::HopNoise(mu), .deterministic = true};
  config.dialing_noise = {.params = noise::HopNoise(dial_mu), .deterministic = true};
  util::Xoshiro256Rng rng(seed);
  return mixnet::Chain::Create(config, rng);
}

// Pre-wraps `rounds` per-round onion batches (round numbers 1..rounds).
// With a key ring, each user's onions use their static key every round, so
// the servers' secret caches hit (the steady-state §8.1 shape).
inline std::vector<std::vector<util::Bytes>> MakeConversationBatches(
    uint64_t users, std::span<const crypto::X25519PublicKey> chain_keys, uint64_t rounds,
    uint64_t seed, const sim::ClientKeyRing* key_ring = nullptr) {
  std::vector<std::vector<util::Bytes>> batches;
  batches.reserve(rounds);
  for (uint64_t round = 1; round <= rounds; ++round) {
    sim::WorkloadConfig workload{.num_users = users,
                                 .pairing_fraction = 1.0,
                                 .seed = seed + round,
                                 .key_ring = key_ring};
    batches.push_back(sim::GenerateConversationWorkload(workload, chain_keys, round));
  }
  return batches;
}

inline RealRound RunRealConversationRound(uint64_t users, size_t servers, double mu,
                                          uint64_t seed) {
  mixnet::Chain chain = MakeBenchChain(servers, mu, seed);
  sim::WorkloadConfig workload{.num_users = users, .pairing_fraction = 1.0, .seed = seed};
  std::vector<util::Bytes> onions =
      sim::GenerateConversationWorkload(workload, chain.public_keys(), 1);

  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()),
                                   {.max_in_flight = 1});

  auto start = std::chrono::steady_clock::now();
  auto result = scheduler.SubmitConversation(1, std::move(onions)).get();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  RealRound out;
  out.seconds = seconds;
  out.stats = std::move(result.stats);
  out.requests_at_last_server = out.stats.forward.back().requests_in;
  out.messages_exchanged = result.messages_exchanged;
  return out;
}

// Lock-step baseline: one round at a time, the whole chain per round.
// `collection_window_seconds` models the per-round client-submission epoch
// (§3.1: the first server "announces the round and collects requests" for a
// fixed window before closing the batch); the lock-step chain sits idle for
// it, which is exactly the §8.3 motivation for pipelining.
inline MultiRound RunLockStepConversationRounds(uint64_t users, size_t servers, double mu,
                                                uint64_t rounds, uint64_t seed,
                                                double collection_window_seconds = 0.0) {
  mixnet::Chain chain = MakeBenchChain(servers, mu, seed);
  sim::ClientKeyRing key_ring(users, seed);
  chain.PrimeSecretCaches(key_ring.public_keys());  // key ceremony, untimed
  auto batches = MakeConversationBatches(users, chain.public_keys(), rounds, seed, &key_ring);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()),
                                   {.max_in_flight = 1});

  MultiRound out;
  out.rounds = rounds;
  std::vector<double> latencies;
  latencies.reserve(rounds);
  auto start = std::chrono::steady_clock::now();
  for (uint64_t round = 1; round <= rounds; ++round) {
    if (collection_window_seconds > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(collection_window_seconds));
    }
    auto result = scheduler.SubmitConversation(round, std::move(batches[round - 1])).get();
    out.messages_exchanged += result.messages_exchanged;
    out.mean_round_seconds += result.stats.total_seconds();
    latencies.push_back(result.stats.total_seconds());
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out.messages_per_second = out.messages_exchanged / out.wall_seconds;
  out.mean_round_seconds /= rounds;
  out.p50_round_seconds = Percentile(latencies, 50);
  out.p99_round_seconds = Percentile(std::move(latencies), 99);
  return out;
}

// Shared body of the pipelined drivers: feed pre-wrapped per-round batches
// through a scheduler with the per-round collection window, drain, and
// aggregate throughput/latency.
inline MultiRound DrivePipelinedRounds(engine::RoundScheduler& scheduler,
                                       std::vector<std::vector<util::Bytes>> batches,
                                       double collection_window_seconds) {
  MultiRound out;
  out.rounds = batches.size();
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  futures.reserve(batches.size());
  auto start = std::chrono::steady_clock::now();
  for (uint64_t round = 1; round <= batches.size(); ++round) {
    if (collection_window_seconds > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(collection_window_seconds));
    }
    futures.push_back(scheduler.SubmitConversation(round, std::move(batches[round - 1])));
  }
  scheduler.Drain();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (auto& f : futures) {
    out.messages_exchanged += f.get().messages_exchanged;
  }
  out.messages_per_second = out.messages_exchanged / out.wall_seconds;
  auto stats = scheduler.stats();
  out.mean_round_seconds =
      stats.conversation_rounds_completed > 0
          ? stats.total_conversation_latency_seconds / stats.conversation_rounds_completed
          : 0.0;
  out.p50_round_seconds = Percentile(stats.conversation_latencies, 50);
  out.p99_round_seconds = Percentile(std::move(stats.conversation_latencies), 99);
  return out;
}

// Pipelined driver: same chain configuration, workload shape, and per-round
// collection window, K rounds in flight through the engine. The window
// overlaps with earlier rounds' processing — "while the first server is
// collecting messages for one round, other servers process previous rounds"
// (§8.3).
inline MultiRound RunPipelinedConversationRounds(uint64_t users, size_t servers, double mu,
                                                 uint64_t rounds, size_t max_in_flight,
                                                 uint64_t seed,
                                                 double collection_window_seconds = 0.0) {
  mixnet::Chain chain = MakeBenchChain(servers, mu, seed);
  sim::ClientKeyRing key_ring(users, seed);
  chain.PrimeSecretCaches(key_ring.public_keys());  // key ceremony, untimed
  auto batches = MakeConversationBatches(users, chain.public_keys(), rounds, seed, &key_ring);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()),
                                   {.max_in_flight = max_in_flight, .record_latencies = true});
  return DrivePipelinedRounds(scheduler, std::move(batches), collection_window_seconds);
}

// TCP-transport driver: the same engine and workload shape, but every stage
// is a ReconnectingTransport speaking to a loopback HopDaemon — the wire cost of the
// multi-process (§7) deployment, isolated from network latency. Mirrors
// RunPipelinedConversationRounds so the two are directly comparable.
inline MultiRound RunTcpPipelinedConversationRounds(uint64_t users, size_t servers, double mu,
                                                    uint64_t rounds, size_t max_in_flight,
                                                    uint64_t seed,
                                                    double collection_window_seconds = 0.0) {
  mixnet::ChainConfig config;
  config.num_servers = servers;
  config.conversation_noise = {.params = noise::HopNoise(mu), .deterministic = true};
  auto chain = transport::LoopbackChain::Start(config, seed);
  if (!chain) {
    return {};
  }

  sim::ClientKeyRing key_ring(users, seed);
  chain->PrimeSecretCaches(key_ring.public_keys());  // key ceremony, untimed
  auto batches = MakeConversationBatches(users, chain->public_keys(), rounds, seed, &key_ring);

  auto transports = chain->ConnectTransports();
  if (transports.empty()) {
    return {};
  }
  engine::RoundScheduler scheduler(std::move(transports),
                                   {.max_in_flight = max_in_flight, .record_latencies = true});
  return DrivePipelinedRounds(scheduler, std::move(batches), collection_window_seconds);
}

inline RealRound RunRealDialingRound(uint64_t users, size_t servers, double mu,
                                     uint32_t total_drops, double dial_fraction, uint64_t seed) {
  mixnet::Chain chain = MakeBenchChain(servers, /*mu=*/1.0, seed, /*dial_mu=*/mu);
  dialing::RoundConfig dial_config{.num_real_drops = total_drops - 1};
  sim::WorkloadConfig workload{.num_users = users, .pairing_fraction = 1.0, .seed = seed};
  std::vector<util::Bytes> onions =
      sim::GenerateDialingWorkload(workload, chain.public_keys(), 1, dial_config, dial_fraction);

  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()),
                                   {.max_in_flight = 1});

  auto start = std::chrono::steady_clock::now();
  auto result = scheduler.SubmitDialing(1, std::move(onions), total_drops).get();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  RealRound out;
  out.seconds = seconds;
  out.stats = std::move(result.stats);
  out.requests_at_last_server = out.stats.forward.back().requests_in;
  return out;
}

}  // namespace vuvuzela::bench

#endif  // VUVUZELA_BENCH_ROUND_RUNNER_H_

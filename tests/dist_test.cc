// Invitation-distribution subsystem tests (§5.5): conformance between the
// in-process InvitationDistributor and the sharded DistRouter →
// vuvuzela-distd path (byte-identical buckets for shard counts {1,2,4}),
// wire-header robustness, the engine's Distribute stage, the client-side
// DialingFetcher end to end, a coordinator-driven client fleet downloading
// from the shards, failure injection (a dead dist shard costs only the
// dialing rounds routed to it and rejoins after restart), concurrent bucket
// downloads against one shard fleet, and /metrics on the reactor daemons.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <utility>

#include "src/client/dialing_fetcher.h"
#include "src/coord/coordinator.h"
#include "src/coord/distributor.h"
#include "src/crypto/onion.h"
#include "src/engine/round_lifecycle.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/obs/http.h"
#include "src/sim/client_fleet.h"
#include "src/sim/deployment.h"
#include "src/sim/workload.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/dist_router.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::transport {
namespace {

// A table with structured per-bucket contents: counts[i] invitations in
// bucket i, each unique (derived from round/bucket/slot), so a byte-level
// comparison catches misrouted, reordered, or truncated buckets.
deaddrop::InvitationTable MakeTable(uint32_t num_drops, const std::vector<uint64_t>& counts,
                                    uint64_t seed) {
  deaddrop::InvitationTable table(num_drops);
  util::Xoshiro256Rng rng(seed);
  for (uint32_t drop = 0; drop < num_drops; ++drop) {
    for (uint64_t j = 0; j < counts[drop]; ++j) {
      wire::Invitation invitation;
      rng.Fill(invitation);
      table.Add(drop, invitation);
    }
  }
  return table;
}

deaddrop::InvitationTable CopyTable(const deaddrop::InvitationTable& table) {
  deaddrop::InvitationTable copy(table.num_drops());
  for (uint32_t drop = 0; drop < table.num_drops(); ++drop) {
    for (const auto& invitation : table.Drop(drop)) {
      copy.Add(drop, invitation);
    }
  }
  return copy;
}

TEST(DistConformance, RouterByteIdenticalToInProcessForShardCounts124) {
  const uint32_t kNumDrops = 7;
  for (size_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    auto group = StartDistShards(num_shards);
    ASSERT_NE(group, nullptr);
    auto router = DistRouter::Connect({group->fleet()});
    ASSERT_NE(router, nullptr);
    coord::InvitationDistributor local;

    // Two rounds with distinct shapes, including an empty bucket (size zero
    // is an observable variable and must round-trip).
    const std::vector<std::vector<uint64_t>> shapes = {{3, 0, 5, 1, 2, 7, 4},
                                                       {1, 2, 3, 4, 5, 6, 0}};
    for (size_t r = 0; r < shapes.size(); ++r) {
      uint64_t round = coord::kDialingRoundBase + r;
      deaddrop::InvitationTable table = MakeTable(kNumDrops, shapes[r], 1000 + r);
      local.Publish(round, CopyTable(table));
      router->Publish(round, std::move(table));
      EXPECT_TRUE(local.HasRound(round));
      EXPECT_TRUE(router->HasRound(round));
    }

    for (size_t r = 0; r < shapes.size(); ++r) {
      uint64_t round = coord::kDialingRoundBase + r;
      for (uint32_t drop = 0; drop < kNumDrops; ++drop) {
        std::vector<wire::Invitation> expect = local.Fetch(round, drop);
        std::vector<wire::Invitation> got = router->Fetch(round, drop);
        ASSERT_EQ(got.size(), expect.size()) << "round " << r << " bucket " << drop;
        EXPECT_EQ(got, expect) << "round " << r << " bucket " << drop;
      }
    }
    // Identical downloads cost identical bytes on both backends.
    EXPECT_EQ(router->bytes_served(), local.bytes_served());
    EXPECT_EQ(router->downloads_served(), local.downloads_served());

    // Unknown rounds fail identically.
    EXPECT_THROW(local.Fetch(42, 0), std::out_of_range);
    EXPECT_THROW(router->Fetch(42, 0), std::out_of_range);
    EXPECT_FALSE(router->HasRound(42));

    router->SendShutdown();
  }
}

TEST(DistConformance, PublishOverExistingRoundReplacesOnBothBackends) {
  auto group = StartDistShards(2);
  ASSERT_NE(group, nullptr);
  auto router = DistRouter::Connect({group->fleet()});
  ASSERT_NE(router, nullptr);
  coord::InvitationDistributor local;

  const uint64_t round = coord::kDialingRoundBase;
  deaddrop::InvitationTable first = MakeTable(4, {2, 2, 2, 2}, 7);
  deaddrop::InvitationTable second = MakeTable(4, {1, 3, 0, 5}, 8);
  local.Publish(round, CopyTable(first));
  router->Publish(round, std::move(first));
  local.Publish(round, CopyTable(second));
  router->Publish(round, CopyTable(second));

  for (uint32_t drop = 0; drop < 4; ++drop) {
    EXPECT_EQ(local.Fetch(round, drop), second.Drop(drop));
    EXPECT_EQ(router->Fetch(round, drop), second.Drop(drop));
  }
}

TEST(DistConformance, ExpiryDropsOldRoundsOnRouterAndShards) {
  auto group = StartDistShards(2);
  ASSERT_NE(group, nullptr);
  DistRouterConfig config{group->fleet()};
  config.keep_rounds = 2;  // shards hold at most 2 publications
  auto router = DistRouter::Connect(config);
  ASSERT_NE(router, nullptr);

  for (uint64_t r = 0; r < 4; ++r) {
    router->Publish(coord::kDialingRoundBase + r, MakeTable(4, {1, 1, 1, 1}, r));
    router->Expire(2);  // what the engine's Distribute stage drives
  }
  // Router-side map: only the newest two rounds route.
  EXPECT_FALSE(router->HasRound(coord::kDialingRoundBase + 1));
  EXPECT_THROW(router->Fetch(coord::kDialingRoundBase + 1, 0), std::out_of_range);
  EXPECT_TRUE(router->HasRound(coord::kDialingRoundBase + 3));
  EXPECT_EQ(router->Fetch(coord::kDialingRoundBase + 3, 0).size(), 1u);

  // Shard-side: a direct fetch (no router map in the way) confirms the
  // publish-piggybacked horizon evicted the old slice.
  client::DialingFetcher fetcher(group->fleet());
  EXPECT_THROW(fetcher.FetchBucket(coord::kDialingRoundBase + 1, 0, 4), HopRemoteError);
  EXPECT_EQ(fetcher.FetchBucket(coord::kDialingRoundBase + 2, 0, 4).size(), 1u);
}

// The reactor serve path against the in-process reference, at the wire
// level: every bucket fetched over a raw connection as a multi-chunk batch
// message must equal the published table's bucket item for item, every
// error-reply class must carry its report, and the served counters must add
// up to what was fetched.
TEST(DistConformance, ReactorServesBucketsIdenticalToInProcessTable) {
  const uint32_t kNumDrops = 6;
  const uint64_t kRound = coord::kDialingRoundBase;
  // A small chunk budget forces multi-chunk replies.
  const size_t kChunk = 256;

  DistDaemonConfig daemon_config;
  daemon_config.chunk_payload = kChunk;
  auto daemon = DistDaemon::Create(daemon_config);
  ASSERT_NE(daemon, nullptr);
  std::thread serve([&] { daemon->Serve(); });

  deaddrop::InvitationTable table = MakeTable(kNumDrops, {3, 0, 5, 1, 2, 7}, 99);
  {
    DistRouterConfig config;
    config.shards.push_back({"127.0.0.1", daemon->port()});
    config.chunk_payload = kChunk;
    auto router = DistRouter::Connect(config);
    ASSERT_NE(router, nullptr);
    router->Publish(kRound, CopyTable(table));
  }
  ASSERT_EQ(daemon->rounds_held(), 1u);

  auto conn = net::TcpConnection::Connect("127.0.0.1", daemon->port());
  ASSERT_TRUE(conn.has_value());
  conn->SetRecvTimeout(10000);

  // Every bucket — including the empty one — on one persistent connection
  // (the fetcher's access pattern).
  uint64_t items_fetched = 0;
  for (uint32_t drop = 0; drop < kNumDrops; ++drop) {
    util::Bytes header =
        EncodeInvitationFetchHeader({/*shard_index=*/0, /*num_shards=*/1, kNumDrops, drop});
    BatchMessage reply = CallBatchRpc(*conn, "shard", net::FrameType::kInvitationFetch, kRound,
                                      header, {}, kChunk);
    EXPECT_EQ(reply.op, net::FrameType::kInvitationFetch) << "bucket " << drop;
    EXPECT_EQ(reply.round, kRound) << "bucket " << drop;
    EXPECT_TRUE(reply.header.empty()) << "bucket " << drop;
    const std::vector<wire::Invitation>& expected = table.Drop(drop);
    std::vector<util::Bytes> items = reply.CopyItems();
    ASSERT_EQ(items.size(), expected.size()) << "bucket " << drop;
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i], util::Bytes(expected[i].begin(), expected[i].end()))
          << "bucket " << drop << " item " << i;
    }
    items_fetched += items.size();
  }
  // The largest bucket really does span several chunks.
  EXPECT_GT(table.Drop(kNumDrops - 1).size() * wire::kInvitationSize, 2 * kChunk);
  EXPECT_EQ(daemon->fetches_served(), kNumDrops);
  EXPECT_EQ(daemon->bytes_served(), items_fetched * wire::kInvitationSize);

  // Error replies: unknown round, a partition-shape mismatch, and a non-dist
  // op as the opening frame.
  auto remote_error = [&](net::FrameType op, uint64_t round, util::ByteSpan header) {
    try {
      CallBatchRpc(*conn, "shard", op, round, header, {}, kChunk);
    } catch (const HopRemoteError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  util::Bytes fetch0 = EncodeInvitationFetchHeader({0, 1, kNumDrops, 0});
  EXPECT_NE(remote_error(net::FrameType::kInvitationFetch, kRound + 7, fetch0)
                .find(kDistUnknownRoundError),
            std::string::npos);
  util::Bytes mismatched = EncodeInvitationFetchHeader({1, 2, kNumDrops, kNumDrops - 1});
  EXPECT_NE(remote_error(net::FrameType::kInvitationFetch, kRound, mismatched)
                .find("dist partition map mismatch"),
            std::string::npos);
  EXPECT_NE(remote_error(net::FrameType::kDialAck, kRound, {}).find("unsupported dist op"),
            std::string::npos);
  // Refused requests are not served fetches.
  EXPECT_EQ(daemon->fetches_served(), kNumDrops);

  daemon->Stop();
  serve.join();
}

TEST(DistWire, HeaderCodecsRejectMalformedInput) {
  InvitationPublishHeader publish{1, 2, 8, 4};
  util::Bytes publish_bytes = EncodeInvitationPublishHeader(publish);
  auto publish_parsed = ParseInvitationPublishHeader(publish_bytes);
  ASSERT_TRUE(publish_parsed.has_value());
  EXPECT_EQ(publish_parsed->shard_index, 1u);
  EXPECT_EQ(publish_parsed->keep_latest, 4u);

  util::Bytes truncated(publish_bytes.begin(), publish_bytes.end() - 1);
  EXPECT_FALSE(ParseInvitationPublishHeader(truncated).has_value());
  util::Bytes trailing = publish_bytes;
  trailing.push_back(0);
  EXPECT_FALSE(ParseInvitationPublishHeader(trailing).has_value());
  EXPECT_FALSE(ParseInvitationPublishHeader(
                   EncodeInvitationPublishHeader({2, 2, 8, 4}))  // shard out of range
                   .has_value());
  EXPECT_FALSE(ParseInvitationPublishHeader(
                   EncodeInvitationPublishHeader({0, 0, 8, 4}))  // zero shards
                   .has_value());
  EXPECT_FALSE(ParseInvitationPublishHeader(
                   EncodeInvitationPublishHeader({0, 1, 0, 4}))  // zero drops
                   .has_value());
  EXPECT_FALSE(ParseInvitationPublishHeader(
                   EncodeInvitationPublishHeader({0, 1, 8, 0}))  // keep_latest zero
                   .has_value());

  InvitationFetchHeader fetch{0, 2, 8, 5};
  util::Bytes fetch_bytes = EncodeInvitationFetchHeader(fetch);
  auto fetch_parsed = ParseInvitationFetchHeader(fetch_bytes);
  ASSERT_TRUE(fetch_parsed.has_value());
  EXPECT_EQ(fetch_parsed->drop_index, 5u);
  EXPECT_FALSE(ParseInvitationFetchHeader(
                   EncodeInvitationFetchHeader({0, 2, 8, 8}))  // bucket out of range
                   .has_value());
  EXPECT_FALSE(
      ParseInvitationFetchHeader(util::Bytes(fetch_bytes.begin(), fetch_bytes.end() - 2))
          .has_value());
}

// --- Engine Distribute stage -------------------------------------------------

mixnet::Chain MakeChain(util::Rng& rng, size_t servers = 3) {
  mixnet::ChainConfig config;
  config.num_servers = servers;
  config.conversation_noise = {.params = {3.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  return mixnet::Chain::Create(config, rng);
}

std::vector<util::Bytes> DialBatch(const mixnet::Chain& chain, uint64_t round, uint64_t users,
                                   uint64_t seed) {
  sim::WorkloadConfig workload{
      .num_users = users, .pairing_fraction = 1.0, .seed = seed};
  dialing::RoundConfig dial_config{.num_real_drops = 3};
  return sim::GenerateDialingWorkload(workload, chain.public_keys(), round, dial_config, 0.5);
}

std::vector<util::Bytes> ConversationBatch(const mixnet::Chain& chain, uint64_t round,
                                           uint64_t users, uint64_t seed) {
  sim::WorkloadConfig workload{
      .num_users = users, .pairing_fraction = 1.0, .seed = seed};
  return sim::GenerateConversationWorkload(workload, chain.public_keys(), round);
}

TEST(EngineDistribute, DistributeStagePublishesTableAndCompletesRound) {
  util::Xoshiro256Rng rng(31);
  mixnet::Chain chain = MakeChain(rng);
  coord::InvitationDistributor distributor;
  engine::RoundLifecycle lifecycle;
  std::vector<engine::RoundPhase> phases;
  std::mutex phases_mutex;
  engine::RoundLifecycle observed([&](const engine::RoundStatus& status) {
    std::lock_guard<std::mutex> lock(phases_mutex);
    phases.push_back(status.phase);
  });

  engine::SchedulerConfig config;
  config.max_in_flight = 2;
  config.distribution = &distributor;
  config.distribution_keep = 2;
  config.lifecycle = &observed;
  engine::RoundScheduler scheduler(MakeLocalTransports(chain.servers()), config);

  uint64_t round = coord::kDialingRoundBase;
  auto future = scheduler.SubmitDialing(round, DialBatch(chain, round, 8, 5), /*num_drops=*/4);
  mixnet::Chain::DialingResult result = future.get();

  // The invitations moved into the backend; the result keeps the bucket
  // count only.
  EXPECT_EQ(result.table.num_drops(), 4u);
  for (uint32_t drop = 0; drop < 4; ++drop) {
    EXPECT_TRUE(result.table.Drop(drop).empty());
  }
  ASSERT_TRUE(distributor.HasRound(round));
  uint64_t published = 0;
  for (uint32_t drop = 0; drop < 4; ++drop) {
    published += distributor.Fetch(round, drop).size();
  }
  EXPECT_GT(published, 0u);  // noise alone guarantees deposits
  EXPECT_EQ(scheduler.stats().invitation_tables_distributed, 1u);

  // The round crossed the Distributing phase on its way to Complete.
  std::lock_guard<std::mutex> lock(phases_mutex);
  EXPECT_NE(std::find(phases.begin(), phases.end(), engine::RoundPhase::kDistributing),
            phases.end());
  EXPECT_EQ(phases.back(), engine::RoundPhase::kComplete);
}

TEST(EngineDistribute, PublishedTableByteIdenticalToUndistributedRun) {
  // Two chains from the same seed run the same dialing round; one engine
  // returns the table in the result (no backend), the other publishes it
  // through the Distribute stage. Bucket-for-bucket the bytes must match —
  // distribution must not perturb the round.
  util::Xoshiro256Rng rng_a(77);
  mixnet::Chain chain_a = MakeChain(rng_a);
  util::Xoshiro256Rng rng_b(77);
  mixnet::Chain chain_b = MakeChain(rng_b);

  uint64_t round = coord::kDialingRoundBase + 3;
  std::vector<util::Bytes> batch = DialBatch(chain_a, round, 10, 9);

  engine::RoundScheduler plain(MakeLocalTransports(chain_a.servers()), {.max_in_flight = 1});
  deaddrop::InvitationTable expect = plain.SubmitDialing(round, batch, 4).get().table;

  coord::InvitationDistributor distributor;
  engine::SchedulerConfig config;
  config.max_in_flight = 1;
  config.distribution = &distributor;
  engine::RoundScheduler distributed(MakeLocalTransports(chain_b.servers()), config);
  distributed.SubmitDialing(round, batch, 4).get();

  for (uint32_t drop = 0; drop < 4; ++drop) {
    EXPECT_EQ(distributor.Fetch(round, drop), expect.Drop(drop)) << "bucket " << drop;
  }
}

// --- Failure injection -------------------------------------------------------

TEST(DistFailure, DeadShardFailsOnlyDialingRoundsAndRejoinsAfterRestart) {
  util::Xoshiro256Rng rng(513);
  mixnet::Chain chain = MakeChain(rng);
  auto group = StartDistShards(2);
  ASSERT_NE(group, nullptr);
  DistRouterConfig router_config{group->fleet(/*recv_timeout_ms=*/2000)};
  router_config.connect_timeout_ms = 1000;
  auto router = DistRouter::Connect(router_config);
  ASSERT_NE(router, nullptr);

  engine::SchedulerConfig config;
  config.max_in_flight = 2;
  config.distribution = router.get();
  engine::RoundScheduler scheduler(MakeLocalTransports(chain.servers()), config);

  // Healthy baseline: one dialing round distributes fine.
  uint64_t dial0 = coord::kDialingRoundBase;
  scheduler.SubmitDialing(dial0, DialBatch(chain, dial0, 6, 1), 4).get();
  ASSERT_TRUE(router->HasRound(dial0));

  group->Kill(1);

  // A dialing round now fails in its Distribute stage (shard 1 owns buckets
  // 2..3 of 4) — and only dialing: conversation rounds never touch the dist
  // tier.
  uint64_t dial1 = dial0 + 1;
  auto failed = scheduler.SubmitDialing(dial1, DialBatch(chain, dial1, 6, 2), 4);
  EXPECT_THROW(failed.get(), HopError);
  EXPECT_FALSE(router->HasRound(dial1));

  auto conversation = scheduler.SubmitConversation(1, ConversationBatch(chain, 1, 6, 3));
  EXPECT_NO_THROW(conversation.get());

  // Buckets of the already-published round split by ownership: the live
  // shard keeps serving its half, the dead shard's half fails.
  EXPECT_NO_THROW(router->Fetch(dial0, 0));
  EXPECT_THROW(router->Fetch(dial0, 3), HopError);

  // The restarted shard rejoins on the next dialing round with no recovery
  // protocol (it comes back empty; the next publish repopulates it).
  ASSERT_TRUE(group->Restart(1));
  uint64_t dial2 = dial0 + 2;
  EXPECT_NO_THROW(scheduler.SubmitDialing(dial2, DialBatch(chain, dial2, 6, 4), 4).get());
  EXPECT_TRUE(router->HasRound(dial2));
  EXPECT_NO_THROW(router->Fetch(dial2, 3));

  router->SendShutdown();
}

// --- Client-side DialingFetcher ---------------------------------------------

TEST(DialingFetcher, BucketsByteIdenticalToRouterFetch) {
  auto group = StartDistShards(4);
  ASSERT_NE(group, nullptr);
  auto router = DistRouter::Connect({group->fleet()});
  ASSERT_NE(router, nullptr);

  const uint32_t kNumDrops = 6;
  uint64_t round = coord::kDialingRoundBase + 9;
  router->Publish(round, MakeTable(kNumDrops, {4, 1, 0, 9, 2, 3}, 21));

  client::DialingFetcher fetcher(group->fleet());
  uint64_t expect_bytes = 0;
  for (uint32_t drop = 0; drop < kNumDrops; ++drop) {
    std::vector<wire::Invitation> bucket = fetcher.FetchBucket(round, drop, kNumDrops);
    EXPECT_EQ(bucket, router->Fetch(round, drop)) << "bucket " << drop;
    // bytes_fetched counts true wire bytes, framing included. Each bucket
    // reply here fits one chunk: length prefix + frame header, then the
    // chunk payload — flags byte, header_len (empty header), item_count,
    // and a length-prefixed invitation per item.
    expect_bytes += 4 + net::kFrameHeaderBytes + 1 + 4 + 4 +
                    bucket.size() * (4 + wire::kInvitationSize);
  }
  EXPECT_EQ(fetcher.buckets_fetched(), kNumDrops);
  EXPECT_EQ(fetcher.bytes_fetched(), expect_bytes);
}

TEST(DialingFetcher, SurfacesIncomingCallEndToEnd) {
  // Full stack: a caller dials through the mixnet, the deployment publishes
  // the round's table through the sharded backend, and the callee — offline
  // during the round — downloads its bucket with the client fetcher and
  // discovers the call.
  auto group = StartDistShards(2);
  ASSERT_NE(group, nullptr);
  auto router = DistRouter::Connect({group->fleet()});
  ASSERT_NE(router, nullptr);

  sim::DeploymentConfig config;
  config.num_servers = 2;
  config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  config.seed = 99;
  sim::Deployment deployment(config);
  deployment.SetDistributionBackend(router.get());
  size_t alice = deployment.AddClient();
  size_t bob = deployment.AddClient();

  deployment.client(alice).Dial(deployment.client(bob).public_key());
  deployment.SetClientOnline(bob, false);  // bob misses the round's delivery
  auto outcome = deployment.RunDialingRound();

  client::DialingFetcher fetcher(group->fleet());
  std::vector<wire::Invitation> scanned =
      fetcher.FetchFor(deployment.client(bob), outcome.round, deployment.dial_config());
  EXPECT_GT(scanned.size(), 0u);
  auto calls = deployment.client(bob).TakeIncomingCalls();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].caller, deployment.client(alice).public_key());
}

// The one client download path, end to end: coordd drives three loopback
// hops and publishes each dialing round to a two-shard distd fleet, and
// after every kDialAck each fleet client downloads its own bucket,
// H(pk) mod m, straight from the shards. Every fetch is answered, every
// bucket is byte-identical to what an in-process InvitationDistributor fed
// the published tables serves for that client's drop, and every scripted
// call reaches its callee.
TEST(ClientFleet, DownloadsEveryAckedBucketFromTheDistShards) {
  const uint64_t kSeed = 4242;
  constexpr uint64_t kUsers = 6;
  constexpr uint32_t kDrops = 4;  // buckets 0-1 on shard 0, 2-3 on shard 1
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = 3;
  chain_config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
  chain_config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  auto chain = LoopbackChain::Start(chain_config, kSeed);
  auto group = StartDistShards(2);
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(group, nullptr);

  CoordDaemonConfig config;
  config.hops = chain->endpoints();
  config.dist = group->endpoints();
  config.scheduler.max_in_flight = 2;
  config.schedule.conversation_rounds_per_dialing_round = 1;  // alternate C/D
  config.schedule.dial_dead_drops = kDrops;
  config.total_rounds = 5;  // 3 conversation + 2 dialing
  config.admission_window_seconds = 2.0;  // closes once every client submitted
  config.num_clients = kUsers;
  CoordinatorDaemon coordinator(config);
  ASSERT_TRUE(coordinator.Start());

  sim::ClientFleetConfig fleet_config;
  fleet_config.coordinator.port = coordinator.client_port();
  fleet_config.dist = config.dist;
  fleet_config.chain = chain->public_keys();
  fleet_config.users = kUsers;
  fleet_config.seed = kSeed;
  auto fleet = std::async(std::launch::async, sim::RunClientFleet, fleet_config);
  CoordDaemonResult result = coordinator.Run();
  std::optional<sim::ClientFleetResult> downloads = fleet.get();
  ASSERT_TRUE(downloads.has_value());
  EXPECT_EQ(result.dialing_rounds_completed, 2u);
  EXPECT_EQ(result.rounds_abandoned, 0u);
  EXPECT_EQ(downloads->dialing_fetches_expected, 2 * kUsers);
  EXPECT_EQ(downloads->dialing_fetches, downloads->dialing_fetches_expected);
  EXPECT_GT(downloads->dialing_fetch_bytes, 0u);
  EXPECT_EQ(downloads->calls_placed, kUsers / 2);
  EXPECT_EQ(downloads->calls_received, kUsers / 2);

  // The published tables, read back whole from the shards (the coordinator
  // leaves them running), feed the in-process reference.
  coord::InvitationDistributor reference;
  client::DialingFetcher reader(group->fleet());
  ASSERT_EQ(downloads->buckets[0].size(), 2u);
  for (const auto& [round, bucket] : downloads->buckets[0]) {
    deaddrop::InvitationTable table(kDrops);
    for (uint32_t drop = 0; drop < kDrops; ++drop) {
      for (const wire::Invitation& invitation : reader.FetchBucket(round, drop, kDrops)) {
        table.Add(drop, invitation);
      }
    }
    reference.Publish(round, std::move(table));
  }
  // coordd announces every drop; the last is the no-op drop.
  const dialing::RoundConfig dial_config{.num_real_drops = kDrops - 1};
  for (uint64_t i = 0; i < kUsers; ++i) {
    ASSERT_EQ(downloads->buckets[i].size(), 2u) << "client " << i;
    const uint32_t drop = dialing::DropForRecipient(dial_config, downloads->keys[i]);
    for (const auto& [round, bucket] : downloads->buckets[i]) {
      // Deterministic noise fills every bucket.
      EXPECT_FALSE(bucket.empty()) << "client " << i << " round " << round;
      EXPECT_EQ(bucket, reference.Fetch(round, drop))
          << "client " << i << " round " << round << " drop " << drop;
    }
  }
  // Both shards served, and nothing but these downloads reached them.
  EXPECT_GT(group->daemon(0)->fetches_served(), 0u);
  EXPECT_GT(group->daemon(1)->fetches_served(), 0u);
  EXPECT_EQ(group->daemon(0)->fetches_served() + group->daemon(1)->fetches_served(),
            2 * kUsers + 2 * kDrops);
}

// --- /metrics beside the reactor ---------------------------------------------

// One GET over a plain socket: the whole response, or what arrived within
// 5 s.
std::string HttpGet(uint16_t port, const std::string& path) {
  auto conn = net::TcpConnection::Connect("127.0.0.1", port);
  if (!conn) {
    return "";
  }
  int fd = conn->ReleaseFd();
  timeval timeout{/*tv_sec=*/5, /*tv_usec=*/0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::string response;
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(request.size())) {
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      response.append(buffer, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

// Scrapes go through the process's acceptor beside the reactor (what
// vuvuzela-distd's shell starts), so they are answered while a connection on
// the reactor sits on a half-sent batch message.
TEST(DistDaemon, ServesMetricsWhileAConnectionHoldsAHalfSentBatch) {
  const size_t kChunk = 256;
  DistDaemonConfig config;
  config.chunk_payload = kChunk;
  auto daemon = DistDaemon::Create(config);
  ASSERT_NE(daemon, nullptr);
  auto metrics_server = obs::MetricsHttpServer::Start(/*port=*/0);
  ASSERT_NE(metrics_server, nullptr);
  std::thread serve([&] { daemon->Serve(); });

  std::vector<util::Bytes> items(8, util::Bytes(100, 0x11));
  auto frames = EncodeBatchChunks(net::FrameType::kInvitationPublish, coord::kDialingRoundBase,
                                  EncodeInvitationPublishHeader({0, 1, 4, 4}),
                                  util::ViewsOf(items), kChunk);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 1u);
  auto conn = net::TcpConnection::Connect("127.0.0.1", daemon->port());
  ASSERT_TRUE(conn.has_value());
  ASSERT_TRUE(conn->SendFrame(frames->front()));

  std::string metrics = HttpGet(metrics_server->port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("vuvuzela_dist_fetches_total"), std::string::npos);
  EXPECT_NE(HttpGet(metrics_server->port(), "/trace").find("200 OK"), std::string::npos);
  EXPECT_EQ(daemon->publishes_stored(), 0u);  // the batch is still half-sent

  daemon->Stop();
  serve.join();
}

TEST(CoordinatorDaemon, ClientModeServesMetrics) {
  mixnet::ChainConfig chain_config;
  chain_config.num_servers = 2;
  auto chain = LoopbackChain::Start(chain_config, /*seed=*/77);
  ASSERT_NE(chain, nullptr);

  CoordDaemonConfig config;
  config.hops = chain->endpoints();
  config.num_clients = 1;
  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  ASSERT_NE(coordinator.client_port(), 0u);
  auto metrics_server = obs::MetricsHttpServer::Start(/*port=*/0);
  ASSERT_NE(metrics_server, nullptr);
  std::string metrics = HttpGet(metrics_server->port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("vuvuzela_reactor_accepts_total"), std::string::npos);
}

TEST(DistDaemon, ServesConcurrentDownloadersWhilePublishing) {
  // A dist shard is a broadcast server: the router's publish connection and
  // many client downloads run concurrently. Hammer one fleet from several
  // fetchers while new rounds publish, and require every download to be
  // internally consistent (all-or-nothing bucket bytes).
  auto group = StartDistShards(2);
  ASSERT_NE(group, nullptr);
  DistRouterConfig router_config{group->fleet()};
  router_config.keep_rounds = 16;  // keep the hammered round resident throughout
  auto router = DistRouter::Connect(router_config);
  ASSERT_NE(router, nullptr);

  const uint32_t kNumDrops = 4;
  const uint64_t base = coord::kDialingRoundBase + 50;
  router->Publish(base, MakeTable(kNumDrops, {5, 5, 5, 5}, 1));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> fetched{0};
  std::vector<std::thread> downloaders;
  for (int t = 0; t < 4; ++t) {
    downloaders.emplace_back([&, t] {
      client::DialingFetcher fetcher(group->fleet());
      uint32_t drop = static_cast<uint32_t>(t) % kNumDrops;
      while (!stop.load()) {
        std::vector<wire::Invitation> bucket = fetcher.FetchBucket(base, drop, kNumDrops);
        ASSERT_EQ(bucket.size(), 5u);
        fetched.fetch_add(1);
      }
    });
  }
  // Start publishing only once the downloaders are fetching, so the
  // publishes overlap live downloads however fast they complete.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fetched.load() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(fetched.load(), 4u);
  for (uint64_t r = 1; r <= 8; ++r) {
    router->Publish(base + r, MakeTable(kNumDrops, {r, r, r, r}, r));
    router->Expire(16);
  }
  stop.store(true);
  for (auto& thread : downloaders) {
    thread.join();
  }
  EXPECT_GT(fetched.load(), 0u);
  router->SendShutdown();
}

}  // namespace
}  // namespace vuvuzela::transport

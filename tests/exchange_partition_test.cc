// Exchange-partition conformance and robustness.
//
// The partitioned last-hop exchange (ExchangeRouter over vuvuzela-exchanged
// shard servers) must be byte-identical to the in-process paths it replaces:
// the sequential ExchangeRound, the thread-sharded ShardedExchangeRound, and
// a full chain run whose last server uses the default backend. The suite
// proves that for shard counts {1, 2, 4, 7} on mixed conversation and
// invitation workloads, then fuzzes the new exchange-partition wire messages
// (malformed partition maps, mid-chunk truncation, oversized reassembly) in
// the style of tests/wire_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <thread>

#include "src/crypto/onion.h"
#include "src/deaddrop/exchange_backend.h"
#include "src/engine/round_scheduler.h"
#include "src/sim/workload.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::transport {
namespace {

// --- Workloads ---------------------------------------------------------------

// Mixed conversation-exchange workload: paired drops, unmatched singles, one
// crowded (3-access) drop, and clusters hugging the prefix-space boundaries
// (first byte 0x00 / 0xff) so edge shards see traffic at every shard count.
std::vector<wire::ExchangeRequest> MixedExchangeRequests(uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<wire::ExchangeRequest> requests;
  auto random_request = [&] {
    wire::ExchangeRequest request;
    rng.Fill(request.dead_drop);
    rng.Fill(request.envelope);
    return request;
  };
  for (int i = 0; i < 40; ++i) {  // 40 pairs
    wire::ExchangeRequest first = random_request();
    wire::ExchangeRequest second = random_request();
    second.dead_drop = first.dead_drop;
    requests.push_back(first);
    requests.push_back(second);
  }
  for (int i = 0; i < 17; ++i) {  // 17 singles
    requests.push_back(random_request());
  }
  wire::ExchangeRequest crowded = random_request();
  for (int i = 0; i < 3; ++i) {  // one crowded drop
    wire::ExchangeRequest access = random_request();
    access.dead_drop = crowded.dead_drop;
    requests.push_back(access);
  }
  for (uint8_t edge : {uint8_t{0x00}, uint8_t{0xff}}) {  // boundary clusters
    for (int i = 0; i < 5; ++i) {
      wire::ExchangeRequest request = random_request();
      request.dead_drop[0] = edge;
      requests.push_back(request);
    }
  }
  // Deterministic shuffle: pairing is input-order sensitive, so the shuffle
  // itself is part of the fixture.
  for (size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[rng.UniformUint64(i)]);
  }
  return requests;
}

std::vector<util::Bytes> Serialized(const std::vector<wire::ExchangeRequest>& requests) {
  std::vector<util::Bytes> serialized;
  for (const wire::ExchangeRequest& request : requests) {
    serialized.push_back(request.Serialize());
  }
  return serialized;
}

std::vector<wire::DialRequest> MixedDialRequests(uint32_t num_drops, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<wire::DialRequest> requests;
  for (int i = 0; i < 60; ++i) {
    wire::DialRequest request;
    // Mostly in range, some adversarially far out of range (reduced mod m).
    request.dead_drop_index = static_cast<uint32_t>(
        i % 7 == 0 ? rng.UniformUint64(1ull << 32) : rng.UniformUint64(num_drops));
    rng.Fill(request.invitation);
    requests.push_back(request);
  }
  return requests;
}

std::vector<deaddrop::NoiseInvitation> MixedNoise(uint32_t num_drops, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<deaddrop::NoiseInvitation> noise;
  for (uint32_t d = 0; d < num_drops; ++d) {
    for (uint64_t j = 0; j < 2 + rng.UniformUint64(3); ++j) {
      deaddrop::NoiseInvitation fake;
      fake.drop = d;
      rng.Fill(fake.invitation);
      noise.push_back(fake);
    }
  }
  return noise;
}

// --- Cross-backend conformance ----------------------------------------------

class ExchangePartitionConformance : public ::testing::TestWithParam<size_t> {};

TEST_P(ExchangePartitionConformance, ConversationByteIdenticalToInProcessPaths) {
  size_t num_shards = GetParam();
  std::vector<util::Bytes> serialized = Serialized(MixedExchangeRequests(101));
  std::vector<util::ByteSpan> requests = util::ViewsOf(serialized);

  deaddrop::ExchangeOutcome sequential = deaddrop::ExchangeRound(requests);
  deaddrop::ExchangeOutcome sharded = deaddrop::ShardedExchangeRound(requests, num_shards);

  auto group = StartExchangePartitions(num_shards);
  ASSERT_NE(group, nullptr);
  auto router = ExchangeRouter::Connect(group->fleet());
  ASSERT_NE(router, nullptr);
  deaddrop::ExchangeOutcome partitioned = router->ExchangeConversation(7, requests);

  // The three paths must agree byte for byte: the pairing (which envelope
  // each request receives), the adversary-observable histogram, and the
  // exchange count.
  EXPECT_EQ(sequential.partner, sharded.partner);
  EXPECT_EQ(sequential.partner, partitioned.partner);
  for (const deaddrop::ExchangeOutcome* outcome : {&sharded, &partitioned}) {
    EXPECT_EQ(outcome->histogram.singles, sequential.histogram.singles);
    EXPECT_EQ(outcome->histogram.pairs, sequential.histogram.pairs);
    EXPECT_EQ(outcome->histogram.crowded, sequential.histogram.crowded);
    EXPECT_EQ(outcome->messages_exchanged, sequential.messages_exchanged);
  }
}

TEST_P(ExchangePartitionConformance, InvitationTableByteIdenticalToInProcess) {
  size_t num_shards = GetParam();
  constexpr uint32_t kDrops = 5;
  std::vector<wire::DialRequest> requests = MixedDialRequests(kDrops, 202);
  std::vector<deaddrop::NoiseInvitation> noise = MixedNoise(kDrops, 203);

  deaddrop::InProcessExchangeBackend in_process(1);
  deaddrop::InvitationTable local = in_process.BuildInvitationTable(9, kDrops, requests, noise);

  auto group = StartExchangePartitions(num_shards);
  ASSERT_NE(group, nullptr);
  auto router = ExchangeRouter::Connect(group->fleet());
  ASSERT_NE(router, nullptr);
  deaddrop::InvitationTable partitioned = router->BuildInvitationTable(9, kDrops, requests, noise);

  ASSERT_EQ(partitioned.num_drops(), local.num_drops());
  EXPECT_EQ(partitioned.DropSizes(), local.DropSizes());
  for (uint32_t drop = 0; drop < kDrops; ++drop) {
    EXPECT_EQ(partitioned.Drop(drop), local.Drop(drop)) << "drop " << drop;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ExchangePartitionConformance,
                         ::testing::Values(1, 2, 4, 7),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Shards" + std::to_string(info.param);
                         });

// --- Full-chain conformance --------------------------------------------------
//
// The same pipelined multi-round workload as the transport conformance suite,
// run three ways: in-process servers with the default exchange, in-process
// servers whose last hop routes to exchange partitions, and a loopback-TCP
// chain whose last hop daemon routes to exchange partitions. All three must
// produce byte-identical rounds.

mixnet::ChainConfig PartitionChainConfig() {
  mixnet::ChainConfig config;
  config.num_servers = 3;
  config.conversation_noise = {.params = {3.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  return config;
}

constexpr uint64_t kKeySeed = 0xfeed;
constexpr uint64_t kConversationRounds = 3;
constexpr uint64_t kUsers = 10;
constexpr uint32_t kDialDrops = 3;
// Force multi-chunk streaming on the partition wire too.
constexpr size_t kTestChunkPayload = 2048;

struct RunOutcome {
  std::vector<std::vector<util::Bytes>> responses;
  std::vector<uint64_t> singles, pairs, exchanged;
  std::vector<uint64_t> dial_drop_sizes;
  std::vector<std::vector<wire::Invitation>> dial_drops;
};

RunOutcome RunThroughScheduler(std::vector<std::unique_ptr<HopTransport>> hops) {
  auto keys = DeriveChainKeys(kKeySeed, PartitionChainConfig().num_servers);
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 3});
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  for (uint64_t round = 1; round <= kConversationRounds; ++round) {
    sim::WorkloadConfig config{
        .num_users = kUsers, .pairing_fraction = 1.0, .seed = 31 + round};
    futures.push_back(scheduler.SubmitConversation(
        round, sim::GenerateConversationWorkload(config, keys.public_keys, round)));
  }
  sim::WorkloadConfig config{
      .num_users = kUsers, .pairing_fraction = 1.0, .seed = 77};
  dialing::RoundConfig dial_config{.num_real_drops = kDialDrops - 1};
  auto dial_future = scheduler.SubmitDialing(
      coord::kDialingRoundBase,
      sim::GenerateDialingWorkload(config, keys.public_keys, coord::kDialingRoundBase,
                                   dial_config, 0.5),
      kDialDrops);
  scheduler.Drain();

  RunOutcome outcome;
  for (auto& future : futures) {
    mixnet::Chain::ConversationResult result = future.get();
    outcome.responses.push_back(std::move(result.responses));
    outcome.singles.push_back(result.histogram.singles);
    outcome.pairs.push_back(result.histogram.pairs);
    outcome.exchanged.push_back(result.messages_exchanged);
  }
  mixnet::Chain::DialingResult dial_result = dial_future.get();
  outcome.dial_drop_sizes = dial_result.table.DropSizes();
  for (uint32_t i = 0; i < dial_result.table.num_drops(); ++i) {
    outcome.dial_drops.push_back(dial_result.table.Drop(i));
  }
  return outcome;
}

enum class ChainMode { kInProcess, kPartitionedLocal, kPartitionedTcp };

RunOutcome RunChain(ChainMode mode, size_t num_partitions) {
  mixnet::ChainConfig config = PartitionChainConfig();
  if (mode == ChainMode::kInProcess) {
    auto servers = BuildMixServers(config, DeriveChainKeys(kKeySeed, config.num_servers));
    return RunThroughScheduler(MakeLocalTransports(servers));
  }
  auto group = StartExchangePartitions(num_partitions, kTestChunkPayload);
  EXPECT_NE(group, nullptr);
  if (mode == ChainMode::kPartitionedLocal) {
    auto servers = BuildMixServers(config, DeriveChainKeys(kKeySeed, config.num_servers));
    auto router = ExchangeRouter::Connect(group->fleet());
    EXPECT_NE(router, nullptr);
    servers.back()->SetExchangeBackend(router.get());
    return RunThroughScheduler(MakeLocalTransports(servers));
  }
  auto chain = LoopbackChain::Start(config, kKeySeed, kTestChunkPayload, group->fleet());
  EXPECT_NE(chain, nullptr);
  auto transports = chain->ConnectTransports();
  EXPECT_EQ(transports.size(), config.num_servers);
  return RunThroughScheduler(std::move(transports));
}

TEST(ExchangePartitionChain, FullChainByteIdenticalAcrossBackends) {
  RunOutcome in_process = RunChain(ChainMode::kInProcess, 0);
  RunOutcome partitioned = RunChain(ChainMode::kPartitionedLocal, 2);
  RunOutcome partitioned_tcp = RunChain(ChainMode::kPartitionedTcp, 2);

  for (const RunOutcome* other : {&partitioned, &partitioned_tcp}) {
    EXPECT_EQ(in_process.responses, other->responses);
    EXPECT_EQ(in_process.singles, other->singles);
    EXPECT_EQ(in_process.pairs, other->pairs);
    EXPECT_EQ(in_process.exchanged, other->exchanged);
    EXPECT_EQ(in_process.dial_drop_sizes, other->dial_drop_sizes);
    EXPECT_EQ(in_process.dial_drops, other->dial_drops);
  }
}

// --- Wire: headers -----------------------------------------------------------

TEST(ExchangeWire, ConversationHeaderRoundTrip) {
  ExchangeConversationHeader header{3, 7};
  auto parsed = ParseExchangeConversationHeader(EncodeExchangeConversationHeader(header));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->shard_index, 3u);
  EXPECT_EQ(parsed->num_shards, 7u);
}

TEST(ExchangeWire, ConversationHeaderRejectsMalformedMaps) {
  // Shard index out of range — a prefix map naming a shard that cannot exist.
  EXPECT_FALSE(
      ParseExchangeConversationHeader(EncodeExchangeConversationHeader({7, 7})).has_value());
  EXPECT_FALSE(
      ParseExchangeConversationHeader(EncodeExchangeConversationHeader({0, 0})).has_value());
  // Truncation and trailing bytes.
  util::Bytes good = EncodeExchangeConversationHeader({0, 2});
  EXPECT_FALSE(
      ParseExchangeConversationHeader(util::ByteSpan(good).first(good.size() - 1)).has_value());
  good.push_back(0);
  EXPECT_FALSE(ParseExchangeConversationHeader(good).has_value());
}

TEST(ExchangeWire, DialingHeaderRejectsMalformedMaps) {
  EXPECT_TRUE(ParseExchangeDialingHeader(EncodeExchangeDialingHeader({1, 2, 5})).has_value());
  EXPECT_FALSE(ParseExchangeDialingHeader(EncodeExchangeDialingHeader({2, 2, 5})).has_value());
  EXPECT_FALSE(ParseExchangeDialingHeader(EncodeExchangeDialingHeader({0, 0, 5})).has_value());
  EXPECT_FALSE(ParseExchangeDialingHeader(EncodeExchangeDialingHeader({0, 2, 0})).has_value());
  EXPECT_FALSE(ParseExchangeDialingHeader({}).has_value());
}

TEST(ExchangeWire, FuzzedHeadersNeverCrash) {
  util::Xoshiro256Rng rng(55);
  for (int i = 0; i < 2000; ++i) {
    util::Bytes data = rng.RandomBytes(rng.UniformUint64(20));
    (void)ParseExchangeConversationHeader(data);
    (void)ParseExchangeDialingHeader(data);
  }
}

// --- Wire: chunked exchange messages ----------------------------------------

std::vector<util::Bytes> SerializedExchangeItems(size_t count, uint64_t seed) {
  std::vector<util::Bytes> items;
  util::Xoshiro256Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    wire::ExchangeRequest request;
    rng.Fill(request.dead_drop);
    rng.Fill(request.envelope);
    items.push_back(request.Serialize());
  }
  return items;
}

TEST(ExchangeWire, PartitionMessageStreamsAcrossChunks) {
  auto items = SerializedExchangeItems(64, 5);  // ~17 KB across 2 KB chunks
  util::Bytes header = EncodeExchangeConversationHeader({1, 4});
  auto frames = EncodeBatchChunks(net::FrameType::kExchangeConversation, 12, header,
                                  util::ViewsOf(items), 2048);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 4u);

  BatchAssembler assembler;
  BatchAssembler::Status status = BatchAssembler::Status::kNeedMore;
  for (const auto& frame : *frames) {
    status = assembler.Consume(frame);
    if (status != BatchAssembler::Status::kNeedMore) {
      break;
    }
  }
  ASSERT_EQ(status, BatchAssembler::Status::kDone) << assembler.error();
  BatchMessage message = assembler.Take();
  EXPECT_EQ(message.op, net::FrameType::kExchangeConversation);
  EXPECT_EQ(message.round, 12u);
  EXPECT_EQ(message.header, header);
  EXPECT_EQ(message.CopyItems(), items);
  EXPECT_LE(assembler.peak_frame_bytes(), 2048u);
}

TEST(ExchangeWire, MidChunkTruncationRejected) {
  auto items = SerializedExchangeItems(16, 6);
  auto frames = EncodeBatchChunks(net::FrameType::kExchangeConversation, 1,
                                  EncodeExchangeConversationHeader({0, 2}),
                                  util::ViewsOf(items), 2048);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 1u);
  // Cut a continuation chunk mid-item: the assembler must fail cleanly, never
  // decode a partial exchange request.
  net::Frame cut = (*frames)[1];
  cut.payload.resize(cut.payload.size() / 2);
  BatchAssembler assembler;
  ASSERT_EQ(assembler.Consume((*frames)[0]), BatchAssembler::Status::kNeedMore);
  EXPECT_EQ(assembler.Consume(cut), BatchAssembler::Status::kError);
}

TEST(ExchangeWire, DroppedFinalChunkStaysIncomplete) {
  auto items = SerializedExchangeItems(16, 7);
  auto frames = EncodeBatchChunks(net::FrameType::kExchangeDialing, 2,
                                  EncodeExchangeDialingHeader({0, 2, 4}),
                                  util::ViewsOf(items), 2048);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 2u);
  BatchAssembler assembler;
  BatchAssembler::Status status = BatchAssembler::Status::kNeedMore;
  for (size_t i = 0; i + 1 < frames->size(); ++i) {
    status = assembler.Consume((*frames)[i]);
  }
  EXPECT_EQ(status, BatchAssembler::Status::kNeedMore);
}

TEST(ExchangeWire, OversizedReassemblyHitsCeiling) {
  auto items = SerializedExchangeItems(64, 8);  // ~17 KB of items
  auto frames = EncodeBatchChunks(net::FrameType::kExchangeConversation, 3,
                                  EncodeExchangeConversationHeader({0, 1}),
                                  util::ViewsOf(items), 2048);
  ASSERT_TRUE(frames.has_value());
  BatchAssembler assembler(/*max_message_bytes=*/8 * 1024);
  BatchAssembler::Status status = BatchAssembler::Status::kNeedMore;
  for (const auto& frame : *frames) {
    status = assembler.Consume(frame);
    if (status != BatchAssembler::Status::kNeedMore) {
      break;
    }
  }
  EXPECT_EQ(status, BatchAssembler::Status::kError);
}

// --- Router: checking a partition's pairing -----------------------------------
//
// A partition answers with partner indices only, so the router checks them
// before it maps them back: a partition that names a request outside its
// slice, answers with something that is not a pairing, or pairs requests of
// different dead drops fails the round, and the last hop seals no response.

// A stand-in exchange partition (shard 0 of 1) that answers every
// conversation exchange with the partner indices `answer` computes from the
// request's items, and a histogram whose exchange count matches them.
class FakePartition {
 public:
  using Answer = std::function<std::vector<uint32_t>(std::span<const util::ByteSpan>)>;

  explicit FakePartition(Answer answer)
      : listener_(std::move(*net::TcpListener::Listen(0))), answer_(std::move(answer)) {
    thread_ = std::thread([this] { Serve(); });
  }
  ~FakePartition() {
    listener_.Shutdown();
    thread_.join();
  }

  ShardFleetConfig fleet() const {
    ShardFleetConfig config;
    config.shards.push_back({"127.0.0.1", listener_.port()});
    return config;
  }

 private:
  void Serve() {
    while (auto conn = listener_.Accept()) {
      while (auto frame = conn->RecvFrame()) {
        auto request = ReadBatchMessage(*conn, std::move(*frame));
        if (!request) {
          break;
        }
        std::vector<uint32_t> partner = answer_(request->items);
        uint64_t paired = 0;
        for (size_t j = 0; j < partner.size(); ++j) {
          paired += partner[j] != j ? 1 : 0;
        }
        wire::Writer header(32);
        WriteHistogram(header, {}, paired);
        util::PackedItems items = EncodePartnerIndices(partner);
        if (!SendBatchMessage(*conn, request->op, request->round, header.Take(), items.items)) {
          break;
        }
      }
    }
  }

  net::TcpListener listener_;
  Answer answer_;
  std::thread thread_;
};

// One last-hop server (a chain of one) and a round of onions for it carrying
// `requests`.
struct LastHop {
  std::unique_ptr<mixnet::MixServer> server;
  std::vector<util::Bytes> onions;
};

LastHop MakeLastHop(uint64_t round, const std::vector<wire::ExchangeRequest>& requests) {
  util::Xoshiro256Rng rng(61);
  crypto::X25519KeyPair key_pair = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {key_pair.public_key};
  mixnet::MixServerConfig config;
  crypto::ChaCha20Key seed;
  rng.Fill(seed);
  LastHop hop;
  hop.server = std::make_unique<mixnet::MixServer>(config, key_pair, chain, seed);
  for (const wire::ExchangeRequest& request : requests) {
    hop.onions.push_back(crypto::OnionWrap(chain, round, request.Serialize(), rng).data);
  }
  return hop;
}

// Runs one last-hop round through a fake partition that answers `answer`.
// Returns the responses, or throws what the round threw.
std::vector<util::Bytes> RunThroughFakePartition(const FakePartition::Answer& answer) {
  std::vector<wire::ExchangeRequest> requests = MixedExchangeRequests(505);
  LastHop hop = MakeLastHop(3, requests);
  FakePartition partition(answer);
  auto router = ExchangeRouter::Connect(partition.fleet());
  EXPECT_NE(router, nullptr);
  hop.server->SetExchangeBackend(router.get());
  mixnet::MixServer::LastHopOutput output =
      hop.server->ProcessConversationLastHop(3, util::MutableViewsOf(hop.onions));
  return output.responses.ToVectors();
}

// Expects the round to fail with a HopError naming `reason`.
void ExpectRoundFails(const FakePartition::Answer& answer, const std::string& reason) {
  try {
    std::vector<util::Bytes> responses = RunThroughFakePartition(answer);
    ADD_FAILURE() << "round sealed " << responses.size() << " responses; expected: " << reason;
  } catch (const HopError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
  }
}

TEST(ExchangeRouterPairingCheck, HonestFakePartitionMatchesInProcessExchange) {
  // The harness itself: a fake that answers the true pairing completes the
  // round with the in-process exchange's bytes.
  std::vector<util::Bytes> routed = RunThroughFakePartition(
      [](std::span<const util::ByteSpan> items) { return deaddrop::ExchangeRound(items).partner; });
  LastHop hop = MakeLastHop(3, MixedExchangeRequests(505));
  std::vector<util::Bytes> in_process =
      hop.server->ProcessConversationLastHop(3, util::MutableViewsOf(hop.onions))
          .responses.ToVectors();
  EXPECT_EQ(routed, in_process);
}

TEST(ExchangeRouterPairingCheck, OutOfRangeIndexFailsTheRound) {
  ExpectRoundFails(
      [](std::span<const util::ByteSpan> items) {
        std::vector<uint32_t> partner = deaddrop::ExchangeRound(items).partner;
        partner.back() = static_cast<uint32_t>(items.size());
        return partner;
      },
      "partner index out of range");
}

TEST(ExchangeRouterPairingCheck, NonPairingFailsTheRound) {
  // Every index in range, but a rotation: partner[partner[i]] != i.
  ExpectRoundFails(
      [](std::span<const util::ByteSpan> items) {
        std::vector<uint32_t> partner(items.size());
        for (size_t j = 0; j < items.size(); ++j) {
          partner[j] = static_cast<uint32_t>((j + 1) % items.size());
        }
        return partner;
      },
      "partner indices are not a pairing");
}

TEST(ExchangeRouterPairingCheck, PairingAcrossDeadDropsFailsTheRound) {
  // A valid involution, but two single accesses of different drops swapped:
  // each would receive a stranger's envelope.
  ExpectRoundFails(
      [](std::span<const util::ByteSpan> items) {
        deaddrop::ExchangeOutcome outcome = deaddrop::ExchangeRound(items);
        std::vector<uint32_t> singles;
        for (uint32_t j = 0; j < items.size(); ++j) {
          if (outcome.partner[j] == j) {
            singles.push_back(j);
          }
        }
        EXPECT_GE(singles.size(), 2u);
        outcome.partner[singles[0]] = singles[1];
        outcome.partner[singles[1]] = singles[0];
        return outcome.partner;
      },
      "paired requests in different dead drops");
}

TEST(ExchangeRouterPairingCheck, MissingIndicesFailTheRound) {
  ExpectRoundFails(
      [](std::span<const util::ByteSpan> items) {
        std::vector<uint32_t> partner = deaddrop::ExchangeRound(items).partner;
        partner.pop_back();
        return partner;
      },
      "partner index count mismatch");
}

// --- Daemon robustness -------------------------------------------------------

TEST(ExchangedDaemonRobustness, RejectsMismatchedPartitionMapAndKeepsServing) {
  auto group = StartExchangePartitions(2);
  ASSERT_NE(group, nullptr);

  {
    auto raw = net::TcpConnection::Connect("127.0.0.1", group->port(0));
    ASSERT_TRUE(raw.has_value());
    // A well-formed message routed under the wrong map: shard 1 of 3, sent to
    // the daemon serving shard 0 of 2.
    auto items = SerializedExchangeItems(2, 9);
    ASSERT_TRUE(SendBatchMessage(*raw, net::FrameType::kExchangeConversation, 5,
                                 EncodeExchangeConversationHeader({1, 3}), util::ViewsOf(items)));
    auto reply = raw->RecvFrame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, net::FrameType::kHopError);

    // Garbage chunk content on the same connection: reported, not fatal.
    ASSERT_TRUE(raw->SendFrame(
        net::Frame{net::FrameType::kExchangeConversation, 6, {0xff, 0xff, 0xff}}));
    reply = raw->RecvFrame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, net::FrameType::kHopError);
  }

  // The daemon accepts a fresh connection and serves a real exchange.
  auto router = ExchangeRouter::Connect(group->fleet());
  ASSERT_NE(router, nullptr);
  std::vector<util::Bytes> requests = Serialized(MixedExchangeRequests(404));
  deaddrop::ExchangeOutcome outcome = router->ExchangeConversation(8, util::ViewsOf(requests));
  EXPECT_EQ(outcome.partner.size(), requests.size());
  EXPECT_GT(outcome.messages_exchanged, 0u);
}

TEST(ExchangedDaemonRobustness, RejectsRequestOutsidePartition) {
  auto group = StartExchangePartitions(2);
  ASSERT_NE(group, nullptr);
  auto raw = net::TcpConnection::Connect("127.0.0.1", group->port(0));
  ASSERT_TRUE(raw.has_value());

  // An ID whose prefix belongs to shard 1, shipped to shard 0 under a correct
  // map: the daemon must refuse rather than host a drop it does not own.
  wire::ExchangeRequest request;
  request.dead_drop.fill(0xff);
  request.envelope.fill(0xaa);
  ASSERT_TRUE(SendBatchMessage(*raw, net::FrameType::kExchangeConversation, 5,
                               EncodeExchangeConversationHeader({0, 2}),
                               util::ViewsOf({request.Serialize()})));
  auto reply = raw->RecvFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::FrameType::kHopError);
}

}  // namespace
}  // namespace vuvuzela::transport

// Hop transport subsystem tests: backend conformance (LocalTransport vs
// loopback ReconnectingTransport must produce byte-identical rounds),
// dead-hop timeout behavior, the peer link's one failure rule against
// scripted peers, daemon robustness, and the multi-process coordinator.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "src/crypto/onion.h"
#include "src/engine/round_scheduler.h"
#include "src/obs/registry.h"
#include "src/sim/client_fleet.h"
#include "src/sim/workload.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::transport {
namespace {

mixnet::ChainConfig TestChainConfig() {
  mixnet::ChainConfig config;
  config.num_servers = 3;
  config.conversation_noise = {.params = {3.0, 1.0}, .deterministic = true};
  config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
  return config;
}

constexpr uint64_t kKeySeed = 0x5eed;
constexpr uint64_t kConversationRounds = 4;
constexpr uint64_t kUsers = 10;
constexpr uint32_t kDialDrops = 2;
// Small chunk budget so the conformance workload exercises multi-chunk
// streaming on every pass, not just the single-frame fast path.
constexpr size_t kTestChunkPayload = 2048;

struct Workload {
  std::vector<std::vector<util::Bytes>> conversation_batches;
  std::vector<util::Bytes> dial_batch;
};

Workload MakeWorkload() {
  Workload workload;
  auto keys = DeriveChainKeys(kKeySeed, TestChainConfig().num_servers);
  for (uint64_t round = 1; round <= kConversationRounds; ++round) {
    sim::WorkloadConfig config{
        .num_users = kUsers, .pairing_fraction = 1.0, .seed = 7 + round};
    workload.conversation_batches.push_back(
        sim::GenerateConversationWorkload(config, keys.public_keys, round));
  }
  sim::WorkloadConfig config{
      .num_users = kUsers, .pairing_fraction = 1.0, .seed = 99};
  dialing::RoundConfig dial_config{.num_real_drops = kDialDrops - 1};
  workload.dial_batch = sim::GenerateDialingWorkload(
      config, keys.public_keys, coord::kDialingRoundBase, dial_config, 0.5);
  return workload;
}

// Everything adversary- and client-visible about a run: used to assert two
// backends are byte-identical.
struct RunOutcome {
  std::vector<std::vector<util::Bytes>> responses;
  std::vector<uint64_t> singles, pairs, exchanged;
  std::vector<uint64_t> dial_drop_sizes;
  std::vector<std::vector<wire::Invitation>> dial_drops;
};

RunOutcome RunThroughScheduler(std::vector<std::unique_ptr<HopTransport>> hops,
                               const Workload& workload) {
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 3});
  std::vector<std::future<mixnet::Chain::ConversationResult>> futures;
  for (uint64_t round = 1; round <= kConversationRounds; ++round) {
    futures.push_back(
        scheduler.SubmitConversation(round, workload.conversation_batches[round - 1]));
  }
  auto dial_future =
      scheduler.SubmitDialing(coord::kDialingRoundBase, workload.dial_batch, kDialDrops);
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

enum class Backend { kLocal, kTcp };

RunOutcome RunBackend(Backend backend, const Workload& workload) {
  if (backend == Backend::kLocal) {
    auto servers = BuildMixServers(TestChainConfig(), DeriveChainKeys(kKeySeed, 3));
    return RunThroughScheduler(MakeLocalTransports(servers), workload);
  }
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed, kTestChunkPayload);
  EXPECT_NE(chain, nullptr);
  auto transports = chain->ConnectTransports(/*recv_timeout_ms=*/10000);
  EXPECT_EQ(transports.size(), 3u);
  return RunThroughScheduler(std::move(transports), workload);
}

class TransportConformanceTest : public ::testing::TestWithParam<Backend> {};

TEST_P(TransportConformanceTest, RunsPipelinedWorkload) {
  Workload workload = MakeWorkload();
  RunOutcome outcome = RunBackend(GetParam(), workload);
  ASSERT_EQ(outcome.responses.size(), kConversationRounds);
  for (uint64_t round = 0; round < kConversationRounds; ++round) {
    // Every client gets exactly one onion-sealed response back.
    EXPECT_EQ(outcome.responses[round].size(), kUsers);
    // All users are paired, so at least every real message is exchanged
    // (colliding noise requests can add to the count).
    EXPECT_GE(outcome.exchanged[round], kUsers);
    EXPECT_GE(outcome.pairs[round], kUsers / 2);
  }
  EXPECT_EQ(outcome.dial_drop_sizes.size(), kDialDrops);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values(Backend::kLocal, Backend::kTcp),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kLocal ? "Local" : "LoopbackTcp";
                         });

TEST(TransportConformance, BackendsAreByteIdentical) {
  Workload workload = MakeWorkload();
  RunOutcome local = RunBackend(Backend::kLocal, workload);
  RunOutcome tcp = RunBackend(Backend::kTcp, workload);

  // Same key ceremony, same noise-RNG seeds, same stage ordering: the TCP
  // chain must reproduce the in-process chain bit for bit — responses,
  // observable histograms, exchange counts, and invitation drops.
  EXPECT_EQ(local.responses, tcp.responses);
  EXPECT_EQ(local.singles, tcp.singles);
  EXPECT_EQ(local.pairs, tcp.pairs);
  EXPECT_EQ(local.exchanged, tcp.exchanged);
  EXPECT_EQ(local.dial_drop_sizes, tcp.dial_drop_sizes);
  EXPECT_EQ(local.dial_drops, tcp.dial_drops);
}

// A hop that accepts the connection and consumes requests but never answers:
// the transport's receive deadline must fail the stage (and the round) with
// HopTimeoutError instead of wedging the stage worker forever.
TEST(TcpTransportFailure, DeadHopTimesOutTheRound) {
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::thread black_hole([&] {
    auto conn = listener->Accept();
    if (!conn) {
      return;
    }
    while (conn->RecvFrame()) {
    }
  });

  TcpTransportConfig config;
  config.port = listener->port();
  config.recv_timeout_ms = 100;
  auto transport =
      std::make_unique<ReconnectingTransport>(config, ReconnectPolicy{.max_call_attempts = 1});
  ASSERT_TRUE(transport->Connect());

  std::vector<std::unique_ptr<HopTransport>> hops;
  hops.push_back(std::move(transport));
  engine::RoundScheduler scheduler(std::move(hops), {.max_in_flight = 2});
  auto future = scheduler.SubmitConversation(1, {util::Bytes(16, 0xab)});
  try {
    future.get();
    FAIL() << "round against a dead hop completed";
  } catch (const HopTimeoutError&) {
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().rounds_failed, 1u);
  // Shutdown (not Close) is the only listener call safe while the black-hole
  // thread may still be inside Accept; the destructor closes after the join.
  listener->Shutdown();
  black_hole.join();
}

// A hop that disappears (EOF) is a different error from one that stalls.
TEST(TcpTransportFailure, ClosedHopIsNotATimeout) {
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.has_value());
  std::thread closer([&] {
    auto conn = listener->Accept();
    // Close immediately: the transport sees EOF, not a deadline.
  });

  TcpTransportConfig config;
  config.port = listener->port();
  config.recv_timeout_ms = 2000;
  auto transport =
      std::make_unique<ReconnectingTransport>(config, ReconnectPolicy{.max_call_attempts = 1});
  ASSERT_TRUE(transport->Connect());
  closer.join();
  try {
    transport->ForwardConversation(1, {util::Bytes(16, 0xcd)}, nullptr);
    FAIL() << "forward pass against a closed hop succeeded";
  } catch (const HopTimeoutError&) {
    FAIL() << "EOF misreported as a timeout";
  } catch (const HopError&) {
  }
  // The connection is poisoned: later calls fail fast.
  EXPECT_FALSE(transport->connected());
}

// --- The peer link's one failure rule -------------------------------------
//
// A scripted loopback peer stands in for a hop daemon: it accepts one
// connection at a time, reassembles each request and handles it as the
// script says — answer it, close the connection, report kHopError, or stay
// silent. It records every request's frames as they arrived.

class ScriptedPeer {
 public:
  enum class Action { kAnswer, kClose, kRemoteError, kSilent };

  explicit ScriptedPeer(std::function<Action(size_t request)> script, uint16_t port = 0)
      : script_(std::move(script)), listener_(*net::TcpListener::Listen(port)) {
    thread_ = std::thread([this] { Serve(); });
  }
  ~ScriptedPeer() {
    listener_.Shutdown();
    thread_.join();
  }

  uint16_t port() const { return listener_.port(); }
  size_t accepted() const { return accepted_.load(); }
  size_t shutdowns() const { return shutdowns_.load(); }
  size_t num_requests() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return requests_.size();
  }
  // Request i's frames, each as (type, round, payload).
  std::vector<std::tuple<net::FrameType, uint64_t, util::Bytes>> frames(size_t i) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return requests_.at(i).frames;
  }
  util::Bytes header(size_t i) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return requests_.at(i).header;
  }

 private:
  struct Request {
    std::vector<std::tuple<net::FrameType, uint64_t, util::Bytes>> frames;
    util::Bytes header;
  };

  void Serve() {
    while (auto conn = listener_.Accept()) {
      ++accepted_;
      while (ServeRequest(*conn)) {
      }
    }
  }

  // False once the connection is done with.
  bool ServeRequest(net::TcpConnection& conn) {
    Request request;
    BatchAssembler assembler;
    auto status = BatchAssembler::Status::kNeedMore;
    while (status == BatchAssembler::Status::kNeedMore) {
      auto frame = conn.RecvFrame();
      if (!frame) {
        return false;
      }
      if (frame->type == net::FrameType::kShutdown) {
        ++shutdowns_;
        return false;
      }
      request.frames.emplace_back(frame->type, frame->round, frame->payload);
      status = assembler.Consume(std::move(*frame));
    }
    if (status != BatchAssembler::Status::kDone) {
      return false;
    }
    BatchMessage message = assembler.Take();
    request.header = message.header;
    size_t index;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      index = requests_.size();
      requests_.push_back(std::move(request));
    }
    switch (script_(index)) {
      case Action::kAnswer: {
        // Echoes the items behind an empty stats header: a valid reply to
        // a forward pass.
        wire::Writer reply_header(64);
        WriteStats(reply_header, mixnet::ServerRoundStats{});
        return SendBatchMessage(conn, message.op, message.round, reply_header.Take(),
                                message.items);
      }
      case Action::kClose:
        return false;
      case Action::kRemoteError:
        return SendRpcError(conn, message.round, "scripted failure");
      case Action::kSilent:
        return true;
    }
    return false;
  }

  std::function<Action(size_t)> script_;
  net::TcpListener listener_;
  std::thread thread_;
  std::atomic<size_t> accepted_{0};
  std::atomic<size_t> shutdowns_{0};
  mutable std::mutex mutex_;
  std::vector<Request> requests_;
};

// Polls `done` for up to two seconds.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TcpTransportConfig PeerConfig(uint16_t port, int recv_timeout_ms = 2000) {
  TcpTransportConfig config;
  config.port = port;
  config.recv_timeout_ms = recv_timeout_ms;
  return config;
}

util::Bytes ExpiryHeader(uint64_t newest_round, uint64_t keep) {
  wire::Writer header(16);
  header.U64(newest_round);
  header.U64(keep);
  return header.Take();
}

const std::vector<util::Bytes> kLinkBatch = {util::Bytes(40, 0x11), util::Bytes(40, 0x22),
                                             util::Bytes(40, 0x33)};

// A peer that reads the request and closes: the link reconnects once and
// re-sends the same frames, the piggybacked expiry included, and the
// record is cleared only once that call succeeded.
TEST(PeerLink, ResendsTheSameFramesOnceOnANewConnection) {
  ScriptedPeer peer([](size_t request) {
    return request == 0 ? ScriptedPeer::Action::kClose : ScriptedPeer::Action::kAnswer;
  });
  ReconnectingTransport hop(PeerConfig(peer.port()), {.backoff_initial_ms = 10});
  ASSERT_TRUE(hop.Connect());
  hop.ExpireRounds(7, 3);
  EXPECT_EQ(hop.ForwardConversation(9, kLinkBatch, nullptr), kLinkBatch);
  EXPECT_EQ(hop.reconnects(), 1u);
  EXPECT_EQ(peer.accepted(), 2u);
  ASSERT_EQ(peer.num_requests(), 2u);
  EXPECT_EQ(peer.frames(1), peer.frames(0));
  EXPECT_EQ(peer.header(0), ExpiryHeader(7, 3));

  hop.ForwardConversation(10, kLinkBatch, nullptr);
  ASSERT_EQ(peer.num_requests(), 3u);
  EXPECT_EQ(peer.header(2), ExpiryHeader(0, 0));
  EXPECT_EQ(hop.reconnects(), 1u);
}

// With no re-send left, a failed call keeps the expiry record for the next
// forward request.
TEST(PeerLink, FailedCallKeepsThePendingExpiry) {
  ScriptedPeer peer([](size_t request) {
    return request == 0 ? ScriptedPeer::Action::kClose : ScriptedPeer::Action::kAnswer;
  });
  ReconnectingTransport hop(PeerConfig(peer.port()),
                            {.max_call_attempts = 1, .backoff_initial_ms = 10});
  ASSERT_TRUE(hop.Connect());
  hop.ExpireRounds(7, 3);
  EXPECT_THROW(hop.ForwardConversation(9, kLinkBatch, nullptr), HopError);
  EXPECT_FALSE(hop.connected());
  EXPECT_EQ(hop.ForwardConversation(9, kLinkBatch, nullptr), kLinkBatch);
  ASSERT_EQ(peer.num_requests(), 2u);
  EXPECT_EQ(peer.header(1), ExpiryHeader(7, 3));
}

// The peer ran the request and reported failure: the same request would
// fail the same way, so it is not re-sent, and the connection stays up.
TEST(PeerLink, RemoteErrorIsNotResent) {
  ScriptedPeer peer([](size_t) { return ScriptedPeer::Action::kRemoteError; });
  ReconnectingTransport hop(PeerConfig(peer.port()));
  ASSERT_TRUE(hop.Connect());
  EXPECT_THROW(hop.ForwardConversation(9, kLinkBatch, nullptr), HopRemoteError);
  EXPECT_EQ(peer.num_requests(), 1u);
  EXPECT_TRUE(hop.connected());
  EXPECT_EQ(hop.reconnects(), 0u);
}

// A peer that never answers costs one receive deadline per send.
TEST(PeerLink, BlackHoleTimesOutEverySend) {
  ScriptedPeer peer([](size_t) { return ScriptedPeer::Action::kSilent; });
  ReconnectingTransport hop(PeerConfig(peer.port(), /*recv_timeout_ms=*/100),
                            {.max_call_attempts = 2, .backoff_initial_ms = 10});
  ASSERT_TRUE(hop.Connect());
  EXPECT_THROW(hop.ForwardConversation(9, kLinkBatch, nullptr), HopTimeoutError);
  EXPECT_TRUE(WaitFor([&] { return peer.num_requests() >= 2; }));
  EXPECT_EQ(peer.num_requests(), 2u);
  EXPECT_EQ(peer.accepted(), 2u);
  EXPECT_EQ(hop.reconnects(), 1u);
}

// No listener: every attempt is one connect, each after the backoff the
// previous failure armed (40 ms, then 80 ms), and the call reports the peer
// unreachable.
TEST(PeerLink, UnreachablePeerFailsAfterEveryAttemptConnected) {
  uint16_t port = net::TcpListener::Listen(0)->port();  // closed again at once
  PeerLink link("exchange partition", PeerConfig(port),
                {.max_call_attempts = 3, .backoff_initial_ms = 40});
  const auto start = std::chrono::steady_clock::now();
  try {
    link.Call(net::FrameType::kExchangeConversation, 1, {}, {});
    FAIL() << "call to a closed port succeeded";
  } catch (const HopTimeoutError&) {
    FAIL() << "refused connect misreported as a timeout";
  } catch (const HopError& e) {
    EXPECT_NE(std::string(e.what()).find("exchange partition 127.0.0.1:"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(": unreachable"), std::string::npos);
  }
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(120));
  EXPECT_FALSE(link.connected());
  EXPECT_EQ(link.reconnects(), 0u);
}

// A supervisor's Probe() inside the backoff window does not connect; once
// the window has passed it reconnects.
TEST(PeerLink, ProbeHonoursTheBackoffWindow) {
  ScriptedPeer peer([](size_t) { return ScriptedPeer::Action::kClose; });
  PeerLink link("hop", PeerConfig(peer.port()),
                {.max_call_attempts = 1, .backoff_initial_ms = 300});
  ASSERT_TRUE(link.Connect());
  EXPECT_THROW(link.Call(net::FrameType::kHopBackwardConversation, 1, {}, {}), HopError);
  EXPECT_FALSE(link.connected());
  EXPECT_FALSE(link.Probe());
  EXPECT_FALSE(link.connected());
  EXPECT_EQ(peer.accepted(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  EXPECT_TRUE(link.Probe());
  EXPECT_EQ(link.reconnects(), 1u);
  EXPECT_TRUE(WaitFor([&] { return peer.accepted() == 2; }));
}

// A link whose peer died reconnects once to deliver kShutdown, so a peer
// restarted on the same port is not exempt from the shutdown cascade.
TEST(PeerLink, ShutdownReachesAPeerRestartedOnTheSamePort) {
  auto first = std::make_unique<ScriptedPeer>(
      [](size_t) { return ScriptedPeer::Action::kClose; });
  const uint16_t port = first->port();
  PeerLink link("dist shard", PeerConfig(port), {.max_call_attempts = 1});
  ASSERT_TRUE(link.Connect());
  EXPECT_THROW(link.Call(net::FrameType::kInvitationFetch, 1, {}, {}), HopError);
  first.reset();

  ScriptedPeer restarted([](size_t) { return ScriptedPeer::Action::kAnswer; }, port);
  link.SendShutdown();
  EXPECT_TRUE(WaitFor([&] { return restarted.shutdowns() == 1; }));
  EXPECT_EQ(link.reconnects(), 1u);
}

// One malformed request must not take the hop daemon down: it reports
// kHopError and keeps serving the next coordinator connection.
TEST(HopDaemonRobustness, SurvivesMalformedBatchMessage) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);

  {
    auto raw = net::TcpConnection::Connect("127.0.0.1", chain->port(0));
    ASSERT_TRUE(raw.has_value());
    // A hop-op frame whose chunk payload is garbage.
    raw->SendFrame(net::Frame{net::FrameType::kHopForwardConversation, 3, {0xff, 0xff, 0xff}});
    auto reply = raw->RecvFrame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, net::FrameType::kHopError);
  }

  // The daemon accepts a fresh connection and serves a real pass.
  auto transports = chain->ConnectTransports();
  ASSERT_EQ(transports.size(), 3u);
  Workload workload = MakeWorkload();
  auto batch =
      transports[0]->ForwardConversation(1, workload.conversation_batches[0], nullptr);
  EXPECT_GT(batch.size(), 0u);
}

// A hop digests every request for its replay slot before the pass runs, and
// times the digest in a histogram of its own. The digest is observed before
// the reply is sent, so the count is exact once the call returns.
TEST(HopDaemonMetrics, TimesEveryRequestDigest) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);
  obs::Histogram* digest = obs::Registry::Global().GetHistogram(
      "vuvuzela_hop_request_digest_seconds", "", obs::PassLatencyBuckets());
  const uint64_t digests_before = digest->Snap().count;

  auto transports = chain->ConnectTransports();
  ASSERT_EQ(transports.size(), 3u);
  Workload workload = MakeWorkload();
  transports[0]->ForwardConversation(1, workload.conversation_batches[0], nullptr);
  transports[0]->ForwardConversation(2, workload.conversation_batches[0], nullptr);
  EXPECT_EQ(digest->Snap().count - digests_before, 2u);
}

// Every forward pass times its cover-onion wrap, before its reply is sent;
// the last hop and the backward passes wrap nothing and observe nothing. The
// three in-process daemons share the one series.
TEST(HopDaemonMetrics, TimesTheNoiseWrapOfForwardPassesOnly) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);
  obs::Histogram* wrap = obs::Registry::Global().GetHistogram(
      "vuvuzela_hop_noise_wrap_seconds", "", obs::PassLatencyBuckets());
  const obs::Histogram::Snapshot before = wrap->Snap();

  auto transports = chain->ConnectTransports();
  ASSERT_EQ(transports.size(), 3u);
  Workload workload = MakeWorkload();
  std::vector<util::Bytes> batch = workload.conversation_batches[0];
  for (size_t hop = 0; hop < 2; ++hop) {
    batch = transports[hop]->ForwardConversation(1, std::move(batch), nullptr);
    const obs::Histogram::Snapshot after = wrap->Snap();
    EXPECT_EQ(after.count - before.count, hop + 1);
    EXPECT_GT(after.sum, before.sum);
  }
  const obs::Histogram::Snapshot forward = wrap->Snap();
  auto last = transports[2]->ProcessConversationLastHop(1, std::move(batch), nullptr);
  std::vector<util::Bytes> responses = std::move(last.responses);
  for (size_t hop = 2; hop-- > 0;) {
    responses = transports[hop]->BackwardConversation(1, std::move(responses), nullptr);
  }
  EXPECT_EQ(responses.size(), kUsers);
  const obs::Histogram::Snapshot backward = wrap->Snap();
  EXPECT_EQ(backward.count, forward.count);
  EXPECT_EQ(backward.sum, forward.sum);
}

// Plays `users` clients wrapping for `chain` through the started
// coordinator's front door while it runs its schedule.
CoordDaemonResult RunWithFleet(CoordinatorDaemon& coordinator,
                               std::vector<crypto::X25519PublicKey> chain, uint64_t users) {
  sim::ClientFleetConfig fleet_config;
  fleet_config.coordinator.port = coordinator.client_port();
  fleet_config.chain = std::move(chain);
  fleet_config.users = users;
  auto fleet = std::async(std::launch::async, sim::RunClientFleet, fleet_config);
  CoordDaemonResult result = coordinator.Run();
  EXPECT_TRUE(fleet.get().has_value());
  return result;
}

// The coordinator process drives a multi-process deployment with a client
// fleet at its front door: conversation rounds interleaved with dialing
// rounds, K in flight, over loopback hop daemons.
TEST(CoordinatorDaemon, DrivesInterleavedRoundsOverLoopbackHops) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);

  CoordDaemonConfig config;
  config.hops = chain->endpoints();
  config.scheduler.max_in_flight = 3;
  config.schedule.conversation_rounds_per_dialing_round = 3;
  config.total_rounds = 7;
  config.hop_timeout_ms = 10000;
  config.admission_window_seconds = 2.0;  // closes once all 12 clients submitted
  config.num_clients = 12;

  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  CoordDaemonResult result = RunWithFleet(coordinator, chain->public_keys(), 12);
  EXPECT_EQ(result.conversation_rounds_completed + result.dialing_rounds_completed, 7u);
  EXPECT_GE(result.dialing_rounds_completed, 1u);
  EXPECT_EQ(result.rounds_abandoned, 0u);
  EXPECT_GT(result.messages_exchanged, 0u);
}

// Start() refuses a configuration it cannot run: no clients to admit, or
// K = 0 (which RoundScheduler would reject only once Run() began).
TEST(CoordinatorDaemon, StartRejectsNoClientsAndZeroInFlight) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);
  CoordDaemonConfig config;
  config.hops = chain->endpoints();
  config.num_clients = 1;

  CoordDaemonConfig no_clients = config;
  no_clients.num_clients = 0;
  EXPECT_FALSE(CoordinatorDaemon(no_clients).Start());
  CoordDaemonConfig zero_k = config;
  zero_k.scheduler.max_in_flight = 0;
  EXPECT_FALSE(CoordinatorDaemon(zero_k).Start());
  EXPECT_TRUE(CoordinatorDaemon(config).Start());
}

// Regression: the admission-window dedup map is keyed by round and must be
// pruned by round *expiry*, not round completion — with a dead hop abandoning
// every round, a long-running coordinator would otherwise accumulate one
// dedup record per announced round forever.
TEST(CoordinatorDaemon, PrunesAdmissionDedupForAbandonedRounds) {
  mixnet::ChainConfig config1 = TestChainConfig();
  config1.num_servers = 1;
  auto keys = DeriveChainKeys(kKeySeed, 1);

  // The only hop is a black hole: every announced round is abandoned.
  auto dead = net::TcpListener::Listen(0);
  ASSERT_TRUE(dead.has_value());
  std::thread black_hole([&] {
    while (auto conn = dead->Accept()) {
      while (conn->RecvFrame()) {
      }
    }
  });

  constexpr uint64_t kTotalRounds = 16;
  constexpr size_t kInFlight = 2;
  CoordDaemonConfig config;
  config.hops.push_back({"127.0.0.1", dead->port()});
  config.scheduler.max_in_flight = kInFlight;
  config.schedule.conversation_rounds_per_dialing_round = 1000;  // conversation only
  config.total_rounds = kTotalRounds;
  config.admission_window_seconds = 0.2;  // closes early once the client contributed
  config.hop_timeout_ms = 100;
  config.num_clients = 1;
  // This test is about dedup pruning under abandonment, not recovery: pin
  // the legacy abandon-on-first-failure policy so every round fails once.
  config.max_round_attempts = 1;
  config.reconnect.max_call_attempts = 1;

  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());

  // One client that answers every announcement with a (garbage) onion of
  // the admitted size — it only needs to exercise the admission window, not
  // survive the mix chain.
  std::thread client([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", coordinator.client_port());
    if (!conn) {
      return;
    }
    while (auto frame = conn->RecvFrame()) {
      if (frame->type == net::FrameType::kShutdown) {
        return;
      }
      if (frame->type != net::FrameType::kRoundAnnouncement) {
        continue;
      }
      auto announcement = wire::RoundAnnouncement::Parse(frame->payload);
      if (!announcement) {
        continue;
      }
      net::FrameType type = announcement->type == wire::RoundType::kConversation
                                ? net::FrameType::kConversationRequest
                                : net::FrameType::kDialRequest;
      util::Bytes onion(crypto::OnionRequestSize(wire::kExchangeRequestSize, 1), 0xab);
      conn->SendFrame(net::Frame{type, announcement->round, std::move(onion)});
    }
  });

  CoordDaemonResult result = coordinator.Run();
  client.join();
  EXPECT_EQ(result.rounds_abandoned, kTotalRounds);

  // Despite every round being abandoned, dedup records are bounded by the
  // expiry window (the scheduler's derived keep = 2K + 2), not by the number
  // of rounds announced.
  constexpr uint64_t kKeep = 2 * kInFlight + 2;
  EXPECT_LE(coordinator.admission_dedup_rounds(), kKeep + 1);
  EXPECT_LT(coordinator.admission_dedup_rounds(), kTotalRounds);

  dead->Shutdown();
  black_hole.join();
}

// Admission takes only onions of the chain's request size. A missized frame
// is neither banked nor submitted, and it leaves the client's slot free, so a
// correctly sized resubmission in the same window is admitted.
TEST(CoordinatorDaemon, AdmitsOnlyOnionSizedRequests) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);

  CoordDaemonConfig config;
  config.hops = chain->endpoints();
  config.schedule.conversation_rounds_per_dialing_round = 1000;  // conversation only
  config.total_rounds = 2;
  config.admission_window_seconds = 0.3;
  config.num_clients = 1;
  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  // Every attempt banks exactly the batch it submits, so the submitted
  // count is the banked count.
  obs::Counter* submitted = obs::Registry::Global().GetCounter(
      "vuvuzela_onions_submitted_total", "Onions admitted into the round pipeline");
  const uint64_t submitted_before = submitted->Value();

  // Round 1: one onion a byte short, alone. Round 2: the same, then the
  // whole onion.
  std::vector<uint64_t> rounds;
  std::optional<crypto::WrappedOnion> admitted;
  std::map<uint64_t, std::vector<util::Bytes>> responses;  // by round
  std::thread client([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", coordinator.client_port());
    if (!conn) {
      return;
    }
    util::Xoshiro256Rng rng(3);
    while (auto frame = conn->RecvFrame()) {
      if (frame->type == net::FrameType::kShutdown) {
        return;
      }
      if (frame->type == net::FrameType::kConversationResponse) {
        responses[frame->round].push_back(std::move(frame->payload));
      }
      if (frame->type != net::FrameType::kRoundAnnouncement) {
        continue;
      }
      rounds.push_back(frame->round);
      wire::ExchangeRequest request;
      rng.Fill(request.dead_drop);
      rng.Fill(request.envelope);
      crypto::WrappedOnion onion =
          crypto::OnionWrap(chain->public_keys(), frame->round, request.Serialize(), rng);
      util::Bytes short_onion(onion.data.begin(), onion.data.end() - 1);
      conn->SendFrame(net::Frame{net::FrameType::kConversationRequest, frame->round, short_onion});
      if (rounds.size() == 2) {
        conn->SendFrame(net::Frame{net::FrameType::kConversationRequest, frame->round, onion.data});
        admitted = std::move(onion);
      }
    }
  });

  CoordDaemonResult result = coordinator.Run();
  client.join();
  ASSERT_EQ(rounds.size(), 2u);
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(result.conversation_rounds_completed, 2u);
  EXPECT_EQ(submitted->Value() - submitted_before, 1u);
  EXPECT_FALSE(responses.contains(rounds[0]));
  ASSERT_EQ(responses[rounds[1]].size(), 1u);
  EXPECT_TRUE(crypto::OnionOpenResponse(admitted->layer_keys, rounds[1], responses[rounds[1]][0])
                  .has_value());
}

// Clients send nothing but onions, so the front door takes no frame larger
// than the chain's larger onion. A client that announces one byte more is
// cut off at the frame header, without sending the payload, and the honest
// clients' rounds go on without waiting for it.
TEST(CoordinatorDaemon, CutsOffAClientFrameOneByteOverTheLargestOnion) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);
  constexpr uint64_t kHonest = 3;
  const size_t cap = std::max(crypto::OnionRequestSize(wire::kExchangeRequestSize, chain->size()),
                              crypto::OnionRequestSize(wire::kDialRequestSize, chain->size()));

  CoordDaemonConfig config;
  config.hops = chain->endpoints();
  config.schedule.conversation_rounds_per_dialing_round = 1;  // C, D, C
  config.total_rounds = 3;
  config.admission_window_seconds = 1.0;  // closes once every connected client submitted
  config.num_clients = kHonest + 1;
  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());

  std::atomic<bool> cut_off{false};
  std::atomic<bool> saw_shutdown{false};
  std::thread hostile([&] {
    auto conn = net::TcpConnection::Connect("127.0.0.1", coordinator.client_port());
    if (!conn) {
      return;
    }
    std::optional<net::Frame> announcement = conn->RecvFrame();
    if (!announcement) {
      return;
    }
    // [u32 frame length][frame header] announcing cap + 1 payload bytes.
    uint8_t head[4 + net::kFrameHeaderBytes];
    util::StoreBe32(head, static_cast<uint32_t>(net::kFrameHeaderBytes + cap + 1));
    auto header = net::EncodeFrameHeader({net::FrameType::kConversationRequest,
                                          announcement->round, static_cast<uint32_t>(cap + 1)});
    std::copy(header.begin(), header.end(), head + 4);
    const int fd = conn->ReleaseFd();
    const bool sent =
        ::send(fd, head, sizeof head, MSG_NOSIGNAL) == static_cast<ssize_t>(sizeof head);
    net::TcpConnection raw(fd);
    raw.SetRecvTimeout(30000);
    if (!sent) {
      return;
    }
    while (auto frame = raw.RecvFrame()) {
      if (frame->type == net::FrameType::kShutdown) {
        saw_shutdown = true;
        return;
      }
    }
    cut_off = raw.last_recv_status() != net::RecvStatus::kTimeout;
  });

  sim::ClientFleetConfig fleet_config;
  fleet_config.coordinator.port = coordinator.client_port();
  fleet_config.chain = chain->public_keys();
  fleet_config.users = kHonest;
  auto fleet = std::async(std::launch::async, sim::RunClientFleet, fleet_config);
  CoordDaemonResult result = coordinator.Run();
  std::optional<sim::ClientFleetResult> honest = fleet.get();
  hostile.join();

  EXPECT_TRUE(cut_off);
  EXPECT_FALSE(saw_shutdown);
  EXPECT_EQ(result.conversation_rounds_completed, 2u);
  EXPECT_EQ(result.dialing_rounds_completed, 1u);
  EXPECT_EQ(result.rounds_abandoned, 0u);
  ASSERT_TRUE(honest.has_value());
  for (uint64_t i = 0; i < kHonest; ++i) {
    EXPECT_EQ(honest->responses[i].size(), 2u) << "client " << i;
  }
}

// A client that contributed and then hung up does not close the window on
// everyone else: the window waits for every connected client that holds a
// slot. Client A submits and disconnects; client B submits 300 ms later and
// still makes the batch.
TEST(CoordinatorDaemon, ClientThatHungUpDoesNotCloseTheWindowEarly) {
  auto chain = LoopbackChain::Start(TestChainConfig(), kKeySeed);
  ASSERT_NE(chain, nullptr);

  CoordDaemonConfig config;
  config.hops = chain->endpoints();
  config.schedule.conversation_rounds_per_dialing_round = 1000;  // conversation only
  config.total_rounds = 1;
  config.admission_window_seconds = 2.0;
  config.num_clients = 2;
  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  obs::Counter* submitted = obs::Registry::Global().GetCounter(
      "vuvuzela_onions_submitted_total", "Onions admitted into the round pipeline");
  const uint64_t submitted_before = submitted->Value();

  // Answers the first announcement with one onion after `delay`; with
  // `hang_up`, closes the connection right after sending it.
  auto run_client = [&](uint64_t seed, std::chrono::milliseconds delay, bool hang_up,
                        std::optional<crypto::WrappedOnion>* sent,
                        std::vector<util::Bytes>* responses) {
    auto conn = net::TcpConnection::Connect("127.0.0.1", coordinator.client_port());
    if (!conn) {
      return;
    }
    util::Xoshiro256Rng rng(seed);
    while (auto frame = conn->RecvFrame()) {
      if (frame->type == net::FrameType::kShutdown) {
        return;
      }
      if (frame->type == net::FrameType::kConversationResponse) {
        responses->push_back(std::move(frame->payload));
      }
      if (frame->type != net::FrameType::kRoundAnnouncement) {
        continue;
      }
      std::this_thread::sleep_for(delay);
      wire::ExchangeRequest request;
      rng.Fill(request.dead_drop);
      rng.Fill(request.envelope);
      *sent = crypto::OnionWrap(chain->public_keys(), frame->round, request.Serialize(), rng);
      conn->SendFrame(
          net::Frame{net::FrameType::kConversationRequest, frame->round, (*sent)->data});
      if (hang_up) {
        return;
      }
    }
  };
  std::optional<crypto::WrappedOnion> onion_a;
  std::optional<crypto::WrappedOnion> onion_b;
  std::vector<util::Bytes> responses_a;
  std::vector<util::Bytes> responses_b;
  std::thread client_a(run_client, 11, std::chrono::milliseconds(0), true, &onion_a,
                       &responses_a);
  std::thread client_b(run_client, 12, std::chrono::milliseconds(300), false, &onion_b,
                       &responses_b);

  CoordDaemonResult result = coordinator.Run();
  client_a.join();
  client_b.join();
  EXPECT_EQ(result.conversation_rounds_completed, 1u);
  EXPECT_EQ(submitted->Value() - submitted_before, 2u);
  ASSERT_TRUE(onion_b.has_value());
  ASSERT_EQ(responses_b.size(), 1u);
  EXPECT_TRUE(crypto::OnionOpenResponse(onion_b->layer_keys, 1, responses_b[0]).has_value());
}

// A dead hop in the chain: every round that reaches it is abandoned — counted,
// reclaimed, and the coordinator finishes instead of hanging.
TEST(CoordinatorDaemon, AbandonsRoundsStuckOnDeadHop) {
  // Hops 0 and 1 of a 3-server chain run for real; the last hop is a black
  // hole that accepts batches and never answers.
  mixnet::ChainConfig config3 = TestChainConfig();
  auto keys = DeriveChainKeys(kKeySeed, config3.num_servers);
  std::vector<std::unique_ptr<HopDaemon>> live;
  std::vector<std::thread> serve_threads;
  for (size_t i = 0; i < 2; ++i) {
    live.push_back(HopDaemon::Create({}, BuildMixServer(config3, keys, i)));
    ASSERT_NE(live.back(), nullptr);
    serve_threads.emplace_back([daemon = live.back().get()] { daemon->Serve(); });
  }

  auto dead = net::TcpListener::Listen(0);
  ASSERT_TRUE(dead.has_value());
  std::thread black_hole([&] {
    while (auto conn = dead->Accept()) {
      while (conn->RecvFrame()) {
      }
    }
  });

  CoordDaemonConfig config;
  config.hops.push_back({"127.0.0.1", live[0]->port()});
  config.hops.push_back({"127.0.0.1", live[1]->port()});
  config.hops.push_back({"127.0.0.1", dead->port()});  // last hop never answers
  config.scheduler.max_in_flight = 2;
  config.total_rounds = 3;
  config.hop_timeout_ms = 150;
  config.admission_window_seconds = 2.0;  // closes once all 6 clients submitted
  config.num_clients = 6;
  // Bounded abandonment is the subject here: disable recovery so each round
  // fails exactly once (the recovery paths get their own suite).
  config.max_round_attempts = 1;
  config.reconnect.max_call_attempts = 1;

  CoordinatorDaemon coordinator(std::move(config));
  ASSERT_TRUE(coordinator.Start());
  CoordDaemonResult result = RunWithFleet(coordinator, keys.public_keys, 6);
  EXPECT_EQ(result.rounds_abandoned, 3u);
  EXPECT_EQ(result.conversation_rounds_completed, 0u);

  dead->Shutdown();  // wakes the blocked Accept; safe cross-thread, Close is not
  black_hole.join();
  for (auto& daemon : live) {
    daemon->Stop();
  }
  for (auto& thread : serve_threads) {
    thread.join();
  }
}

}  // namespace
}  // namespace vuvuzela::transport

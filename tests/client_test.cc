// Client library tests: reliable channel algebra, the client state
// machine's fixed traffic footprint, and its bounded recovery state (dials
// re-sent until acknowledged, pending rounds pruned) over an in-process chain.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/client/client.h"
#include "src/client/reliable.h"
#include "src/coord/coordinator.h"
#include "src/coord/distributor.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::client {
namespace {

util::Bytes Msg(const char* s) {
  return util::Bytes(reinterpret_cast<const uint8_t*>(s),
                     reinterpret_cast<const uint8_t*>(s) + strlen(s));
}

TEST(ReliableChannel, DeliversInOrder) {
  ReliableChannel a, b;
  a.QueueMessage(Msg("one"));

  util::Bytes frame = a.NextFrame();
  auto delivered = b.HandleFrame(frame);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(*delivered, Msg("one"));

  // b's next frame acks; a drops the message from its outbox.
  EXPECT_EQ(a.unacked_count(), 1u);
  a.HandleFrame(b.NextFrame());
  EXPECT_EQ(a.unacked_count(), 0u);
}

TEST(ReliableChannel, EmptyFramesCarryAcksOnly) {
  ReliableChannel a, b;
  util::Bytes frame = a.NextFrame();
  EXPECT_EQ(frame.size(), kFrameHeaderSize);
  EXPECT_FALSE(b.HandleFrame(frame).has_value());
}

TEST(ReliableChannel, RetransmitsUntilAcked) {
  ReliableChannel a, b;
  a.QueueMessage(Msg("hello"));

  // Round 1: frame lost (never delivered to b).
  a.NextFrame();
  EXPECT_EQ(a.unacked_count(), 1u);

  // Round 2: retransmission delivered.
  util::Bytes retry = a.NextFrame();
  EXPECT_GE(a.retransmissions(), 1u);
  auto delivered = b.HandleFrame(retry);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(*delivered, Msg("hello"));

  // Duplicate delivery of the same frame is suppressed.
  EXPECT_FALSE(b.HandleFrame(retry).has_value());
}

TEST(ReliableChannel, PipelinedConversation) {
  ReliableChannel a, b;
  std::vector<util::Bytes> a_gets, b_gets;
  a.QueueMessage(Msg("a1"));
  a.QueueMessage(Msg("a2"));
  a.QueueMessage(Msg("a3"));
  b.QueueMessage(Msg("b1"));

  for (int round = 0; round < 8; ++round) {
    util::Bytes fa = a.NextFrame();
    util::Bytes fb = b.NextFrame();
    if (auto d = b.HandleFrame(fa)) {
      b_gets.push_back(*d);
    }
    if (auto d = a.HandleFrame(fb)) {
      a_gets.push_back(*d);
    }
  }
  ASSERT_EQ(b_gets.size(), 3u);
  EXPECT_EQ(b_gets[0], Msg("a1"));
  EXPECT_EQ(b_gets[1], Msg("a2"));
  EXPECT_EQ(b_gets[2], Msg("a3"));
  ASSERT_EQ(a_gets.size(), 1u);
  EXPECT_EQ(a_gets[0], Msg("b1"));
}

TEST(ReliableChannel, SurvivesLossyRounds) {
  ReliableChannel a, b;
  util::Xoshiro256Rng rng(123);
  constexpr int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    a.QueueMessage(Msg(("msg" + std::to_string(i)).c_str()));
  }
  std::vector<util::Bytes> delivered;
  // 40% frame loss in both directions.
  for (int round = 0; round < 200 && delivered.size() < kMessages; ++round) {
    util::Bytes fa = a.NextFrame();
    util::Bytes fb = b.NextFrame();
    if (rng.UniformDouble() > 0.4) {
      if (auto d = b.HandleFrame(fa)) {
        delivered.push_back(*d);
      }
    }
    if (rng.UniformDouble() > 0.4) {
      a.HandleFrame(fb);
    }
  }
  ASSERT_EQ(delivered.size(), kMessages);
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(delivered[i], Msg(("msg" + std::to_string(i)).c_str()));
  }
}

TEST(ReliableChannel, WindowPipelinesOneMessagePerRound) {
  // With W ≥ 2 and a loss-free channel, a busy sender delivers one message
  // per round (§8.3's "new message every round").
  ReliableChannel a(/*window=*/4), b(/*window=*/4);
  constexpr int kMessages = 6;
  for (int i = 0; i < kMessages; ++i) {
    a.QueueMessage(Msg(("p" + std::to_string(i)).c_str()));
  }
  int delivered = 0;
  for (int round = 0; round < kMessages; ++round) {
    util::Bytes fa = a.NextFrame();
    util::Bytes fb = b.NextFrame();
    if (b.HandleFrame(fa)) {
      ++delivered;
    }
    a.HandleFrame(fb);
  }
  EXPECT_EQ(delivered, kMessages);  // one per round, no idle rounds
}

TEST(ReliableChannel, WindowOneIsStopAndWait) {
  ReliableChannel a(/*window=*/1), b(/*window=*/1);
  a.QueueMessage(Msg("first"));
  a.QueueMessage(Msg("second"));

  // Round 1: "first" delivered.
  auto d1 = b.HandleFrame(a.NextFrame());
  ASSERT_TRUE(d1.has_value());
  // Round 2: without an ack processed yet, the sender repeats "first".
  auto d2 = b.HandleFrame(a.NextFrame());
  EXPECT_FALSE(d2.has_value());  // duplicate suppressed
  // Ack flows back; only then does "second" go out.
  a.HandleFrame(b.NextFrame());
  auto d3 = b.HandleFrame(a.NextFrame());
  ASSERT_TRUE(d3.has_value());
  EXPECT_EQ(*d3, Msg("second"));
}

TEST(ReliableChannel, GapDiscardsUntilRetransmission) {
  // Go-Back-N: if frame seq=1 is lost, seq=2..W arriving first are ignored,
  // then the cycle retransmits 1 and delivery resumes in order.
  ReliableChannel a(/*window=*/3), b(/*window=*/3);
  a.QueueMessage(Msg("m1"));
  a.QueueMessage(Msg("m2"));
  a.QueueMessage(Msg("m3"));

  a.NextFrame();                                  // m1: lost
  EXPECT_FALSE(b.HandleFrame(a.NextFrame()).has_value());  // m2: gap, dropped
  EXPECT_FALSE(b.HandleFrame(a.NextFrame()).has_value());  // m3: gap, dropped
  // Cycle wraps: m1 retransmitted, then m2, m3.
  std::vector<util::Bytes> got;
  for (int i = 0; i < 3; ++i) {
    if (auto d = b.HandleFrame(a.NextFrame())) {
      got.push_back(*d);
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], Msg("m1"));
  EXPECT_EQ(got[1], Msg("m2"));
  EXPECT_EQ(got[2], Msg("m3"));
  EXPECT_GE(a.retransmissions(), 1u);
}

TEST(ReliableChannel, RejectsOversizedMessage) {
  ReliableChannel a;
  EXPECT_THROW(a.QueueMessage(util::Bytes(kMaxChatPayload + 1)), std::invalid_argument);
}

TEST(ReliableChannel, MalformedFrameIgnored) {
  ReliableChannel a;
  EXPECT_FALSE(a.HandleFrame(util::Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(a.HandleFrame({}).has_value());
}

// --- VuvuzelaClient -------------------------------------------------------

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() {
    util::Xoshiro256Rng rng(55);
    for (int i = 0; i < 3; ++i) {
      chain_.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
    }
    alice_keys_ = crypto::X25519KeyPair::Generate(rng);
    bob_keys_ = crypto::X25519KeyPair::Generate(rng);
  }

  VuvuzelaClient MakeClient(const crypto::X25519KeyPair& keys, size_t max_conversations = 1) {
    ClientConfig config;
    config.keys = keys;
    config.chain = chain_;
    config.max_conversations = max_conversations;
    crypto::ChaCha20Key seed{};
    seed[0] = static_cast<uint8_t>(++seed_counter_);
    return VuvuzelaClient(config, seed);
  }

  std::vector<crypto::X25519PublicKey> chain_;
  crypto::X25519KeyPair alice_keys_, bob_keys_;
  int seed_counter_ = 0;
};

TEST_F(ClientTest, AlwaysEmitsFixedOnionCount) {
  VuvuzelaClient idle = MakeClient(alice_keys_, 2);
  VuvuzelaClient busy = MakeClient(bob_keys_, 2);
  busy.AcceptCall(alice_keys_.public_key);

  auto idle_onions = idle.PrepareConversationOnions(1);
  auto busy_onions = busy.PrepareConversationOnions(1);
  ASSERT_EQ(idle_onions.size(), 2u);
  ASSERT_EQ(busy_onions.size(), 2u);
  // Identical sizes: an observer cannot tell idle from busy.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(idle_onions[i].size(), busy_onions[i].size());
  }
}

TEST_F(ClientTest, SendRequiresConversation) {
  VuvuzelaClient alice = MakeClient(alice_keys_);
  EXPECT_THROW(alice.SendMessage(bob_keys_.public_key, Msg("hi")), std::logic_error);
  alice.AcceptCall(bob_keys_.public_key);
  EXPECT_NO_THROW(alice.SendMessage(bob_keys_.public_key, Msg("hi")));
}

TEST_F(ClientTest, LongMessagesSplitAcrossRounds) {
  VuvuzelaClient alice = MakeClient(alice_keys_);
  alice.AcceptCall(bob_keys_.public_key);
  util::Bytes big(kMaxChatPayload * 2 + 10, 0x42);
  alice.SendMessage(bob_keys_.public_key, big);  // queues 3 chunks, no throw
}

TEST_F(ClientTest, DialOpensConversationPreemptively) {
  VuvuzelaClient alice = MakeClient(alice_keys_);
  EXPECT_FALSE(alice.InConversationWith(bob_keys_.public_key));
  alice.Dial(bob_keys_.public_key);
  EXPECT_TRUE(alice.InConversationWith(bob_keys_.public_key));
}

TEST_F(ClientTest, ConversationSlotEviction) {
  util::Xoshiro256Rng rng(77);
  VuvuzelaClient alice = MakeClient(alice_keys_, 1);
  auto first = crypto::X25519KeyPair::Generate(rng).public_key;
  auto second = crypto::X25519KeyPair::Generate(rng).public_key;
  alice.AcceptCall(first);
  alice.AcceptCall(second);
  EXPECT_EQ(alice.active_conversations(), 1u);
  EXPECT_FALSE(alice.InConversationWith(first));  // oldest evicted
  EXPECT_TRUE(alice.InConversationWith(second));
}

TEST_F(ClientTest, DialOnionSameSizeRealOrIdle) {
  VuvuzelaClient alice = MakeClient(alice_keys_);
  dialing::RoundConfig dial_config{.num_real_drops = 3};
  util::Bytes idle = alice.PrepareDialOnion(1, dial_config);
  alice.Dial(bob_keys_.public_key);
  util::Bytes real = alice.PrepareDialOnion(2, dial_config);
  EXPECT_EQ(idle.size(), real.size());
}

TEST_F(ClientTest, UnknownRoundResponsesIgnored) {
  VuvuzelaClient alice = MakeClient(alice_keys_);
  std::vector<util::Bytes> garbage = {util::Bytes(300)};
  alice.HandleConversationResponses(999, garbage);  // no crash, no effect
  EXPECT_TRUE(alice.TakeReceivedMessages().empty());
}

TEST_F(ClientTest, RejectsBadConfig) {
  ClientConfig config;
  config.keys = alice_keys_;
  crypto::ChaCha20Key seed{};
  EXPECT_THROW(VuvuzelaClient(config, seed), std::invalid_argument);  // empty chain
  config.chain = chain_;
  config.max_conversations = 0;
  EXPECT_THROW(VuvuzelaClient(config, seed), std::invalid_argument);
}

// --- VuvuzelaClient over an in-process chain --------------------------------

// Two clients and a two-server chain whose rounds run through the scheduler,
// with dialing tables published to an in-process InvitationDistributor.
class ClientRoundTest : public ::testing::Test {
 protected:
  ClientRoundTest()
      : chain_(mixnet::Chain::Create(ChainConfig(), rng_)),
        scheduler_(transport::MakeLocalTransports(chain_.servers()),
                   {.max_in_flight = 1, .distribution = &distributor_}),
        alice_(MakeClient(1)),
        bob_(MakeClient(2)) {}

  static mixnet::ChainConfig ChainConfig() {
    mixnet::ChainConfig config;
    config.num_servers = 2;
    config.conversation_noise = {.params = {2.0, 1.0}, .deterministic = true};
    config.dialing_noise = {.params = {2.0, 1.0}, .deterministic = true};
    return config;
  }

  VuvuzelaClient MakeClient(uint8_t tag) {
    crypto::ChaCha20Key seed{};
    seed[0] = tag;
    ClientConfig config;
    config.keys = crypto::X25519KeyPair::Generate(rng_);
    config.chain = chain_.public_keys();
    return VuvuzelaClient(config, seed);
  }

  // Runs dialing round `round` with both clients' onions; returns the calls
  // Bob finds in his bucket.
  std::vector<IncomingCall> DialingRound(uint64_t round) {
    std::vector<util::Bytes> batch = {alice_.PrepareDialOnion(round, dial_config_),
                                      bob_.PrepareDialOnion(round, dial_config_)};
    scheduler_.SubmitDialing(round, std::move(batch), dial_config_.total_drops()).get();
    bob_.HandleInvitationDrop(distributor_.Fetch(round, bob_.InvitationDrop(dial_config_)));
    return bob_.TakeIncomingCalls();
  }

  util::Xoshiro256Rng rng_{808};
  mixnet::Chain chain_;
  coord::InvitationDistributor distributor_;
  engine::RoundScheduler scheduler_;
  VuvuzelaClient alice_;
  VuvuzelaClient bob_;
  dialing::RoundConfig dial_config_{.num_real_drops = 2};
};

TEST_F(ClientRoundTest, UnacknowledgedDialIsResentInTheNextDialingRound) {
  alice_.Dial(bob_.public_key());
  const uint64_t first = coord::kDialingRoundBase + 1;
  // The onion for `first` is never submitted: coordd abandoned the round, so
  // no kDialAck comes.
  alice_.PrepareDialOnion(first, dial_config_);

  std::vector<IncomingCall> calls = DialingRound(first + 1);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].caller, alice_.public_key());

  // Once a round that carried the dial is acknowledged, it is not sent again.
  alice_.HandleDialAck(first + 1);
  EXPECT_TRUE(DialingRound(first + 2).empty());
}

TEST_F(ClientRoundTest, ResentDialSurfacesItsCallerOnce) {
  alice_.Dial(bob_.public_key());
  const uint64_t first = coord::kDialingRoundBase + 1;
  // The ack for `first` arrives only after the next dialing round's onion was
  // built, so the call rides both rounds. Bob drains his calls after each.
  size_t calls = DialingRound(first).size();
  calls += DialingRound(first + 1).size();
  alice_.HandleDialAck(first);
  EXPECT_EQ(calls, 1u);
  EXPECT_TRUE(DialingRound(first + 2).empty());
}

TEST_F(ClientRoundTest, PendingRoundsStayBoundedWithoutResponses) {
  alice_.AcceptCall(bob_.public_key());
  bob_.AcceptCall(alice_.public_key());
  alice_.SendMessage(bob_.public_key(), Msg("still there?"));

  constexpr uint64_t kRounds = 1000;
  // The oldest round still inside the horizon once round kRounds is prepared.
  constexpr uint64_t kAnswered = kRounds - kPendingRoundHorizon + 1;
  std::vector<util::Bytes> answered;
  size_t most_pending = 0;
  for (uint64_t round = 1; round <= kRounds; ++round) {
    std::vector<util::Bytes> from_alice = alice_.PrepareConversationOnions(round);
    std::vector<util::Bytes> from_bob = bob_.PrepareConversationOnions(round);
    if (round == kAnswered) {
      answered = {std::move(from_alice[0]), std::move(from_bob[0])};
    }
    most_pending = std::max(most_pending, alice_.pending_rounds());
  }
  EXPECT_LE(most_pending, kPendingRoundHorizon);

  mixnet::Chain::ConversationResult result =
      scheduler_.SubmitConversation(kAnswered, std::move(answered)).get();
  alice_.HandleConversationResponses(kAnswered, {&result.responses[0], 1});
  bob_.HandleConversationResponses(kAnswered, {&result.responses[1], 1});
  std::vector<ReceivedMessage> received = bob_.TakeReceivedMessages();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].payload, Msg("still there?"));
}

}  // namespace
}  // namespace vuvuzela::client

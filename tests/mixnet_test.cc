// Mixnet tests: shuffle algebra, forward/backward alignment through the
// chain, noise injection accounting, and handling of malformed requests.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/conversation/protocol.h"
#include "src/crypto/onion.h"
#include "src/dialing/protocol.h"
#include "src/engine/round_scheduler.h"
#include "src/mixnet/chain.h"
#include "src/mixnet/shuffler.h"
#include "src/transport/hop_chain.h"
#include "src/util/random.h"

namespace vuvuzela::mixnet {
namespace {

using conversation::Session;

TEST(Permutation, ApplyInverseIsIdentity) {
  util::Xoshiro256Rng rng(1);
  for (size_t n : {0u, 1u, 2u, 17u, 100u}) {
    Permutation perm = Permutation::Random(n, rng);
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    std::vector<int> round_trip = perm.ApplyInverse(perm.Apply(v));
    EXPECT_EQ(round_trip, v) << "n=" << n;
  }
}

TEST(Permutation, IsActuallyAPermutation) {
  util::Xoshiro256Rng rng(2);
  Permutation perm = Permutation::Random(1000, rng);
  std::vector<uint32_t> sorted = perm.indices();
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(Permutation, UniformityChiSquared) {
  // Position histogram of element 0 over many draws should be flat.
  util::Xoshiro256Rng rng(3);
  constexpr size_t kN = 8;
  constexpr int kTrials = 8000;
  std::vector<int> position_counts(kN, 0);
  for (int t = 0; t < kTrials; ++t) {
    Permutation perm = Permutation::Random(kN, rng);
    for (size_t k = 0; k < kN; ++k) {
      if (perm.indices()[k] == 0) {
        position_counts[k]++;
      }
    }
  }
  double expected = static_cast<double>(kTrials) / kN;
  double chi2 = 0;
  for (int c : position_counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 7 degrees of freedom: chi2 < 24.3 at p=0.001.
  EXPECT_LT(chi2, 24.3);
}

TEST(Permutation, IdentityKeepsOrder) {
  Permutation perm = Permutation::Identity(5);
  std::vector<int> v = {5, 4, 3, 2, 1};
  EXPECT_EQ(perm.Apply(v), v);
}

// --- Chain fixtures --------------------------------------------------------

struct TestUser {
  crypto::X25519KeyPair keys;
  crypto::WrappedOnion onion;  // last round's onion (for response decryption)
};

ChainConfig SmallChainConfig(size_t servers, double mu = 4.0) {
  ChainConfig config;
  config.num_servers = servers;
  config.conversation_noise = {.params = {mu, 2.0}, .deterministic = true};
  config.dialing_noise = {.params = {mu, 2.0}, .deterministic = true};
  return config;
}

// Builds the onion for one exchange request.
crypto::WrappedOnion WrapExchange(const Chain& chain, uint64_t round,
                                  const wire::ExchangeRequest& request, util::Rng& rng) {
  return crypto::OnionWrap(chain.public_keys(), round, request.Serialize(), rng);
}

class ChainConversationTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChainConversationTest, TwoUsersExchangeThroughChain) {
  size_t num_servers = GetParam();
  util::Xoshiro256Rng rng(100 + num_servers);
  Chain chain = Chain::Create(SmallChainConfig(num_servers), rng);

  auto alice = crypto::X25519KeyPair::Generate(rng);
  auto bob = crypto::X25519KeyPair::Generate(rng);
  Session alice_session = Session::Derive(alice, bob.public_key);
  Session bob_session = Session::Derive(bob, alice.public_key);

  uint64_t round = 9;
  const char* alice_text = "hello bob";
  const char* bob_text = "hi alice!";
  auto alice_req = conversation::BuildExchangeRequest(
      alice_session, round,
      util::ByteSpan(reinterpret_cast<const uint8_t*>(alice_text), strlen(alice_text)));
  auto bob_req = conversation::BuildExchangeRequest(
      bob_session, round,
      util::ByteSpan(reinterpret_cast<const uint8_t*>(bob_text), strlen(bob_text)));

  crypto::WrappedOnion alice_onion = WrapExchange(chain, round, alice_req, rng);
  crypto::WrappedOnion bob_onion = WrapExchange(chain, round, bob_req, rng);

  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(round, {alice_onion.data, bob_onion.data}).get();
  ASSERT_EQ(result.responses.size(), 2u);
  // Noise pairs exchange with each other and are indistinguishable from real
  // pairs at the last server — exactly how noise masks m2 (§4.2). With µ=4
  // deterministic, each non-last server adds 4 singles + 2 pairs.
  uint64_t noise_servers = num_servers - 1;
  EXPECT_EQ(result.histogram.pairs, 1 + noise_servers * 2);
  EXPECT_EQ(result.histogram.singles, noise_servers * 4);
  EXPECT_EQ(result.messages_exchanged, 2 + noise_servers * 4);
  uint64_t per_server = 4 + 2 * 2;  // µ=4 singles + 2 pairs
  EXPECT_EQ(result.stats.forward.back().requests_in, 2 + noise_servers * per_server);

  // Alice opens her response through the onion layers.
  auto alice_resp = crypto::OnionOpenResponse(alice_onion.layer_keys, round, result.responses[0]);
  ASSERT_TRUE(alice_resp.has_value());
  wire::Envelope env;
  ASSERT_EQ(alice_resp->size(), env.size());
  std::copy(alice_resp->begin(), alice_resp->end(), env.begin());
  auto opened = conversation::OpenExchangeResponse(alice_session, round, env);
  EXPECT_EQ(opened.kind, conversation::ResponseKind::kPartnerMessage);
  EXPECT_EQ(std::string(opened.text.begin(), opened.text.end()), bob_text);

  // And Bob gets Alice's message.
  auto bob_resp = crypto::OnionOpenResponse(bob_onion.layer_keys, round, result.responses[1]);
  ASSERT_TRUE(bob_resp.has_value());
  std::copy(bob_resp->begin(), bob_resp->end(), env.begin());
  auto bob_opened = conversation::OpenExchangeResponse(bob_session, round, env);
  EXPECT_EQ(bob_opened.kind, conversation::ResponseKind::kPartnerMessage);
  EXPECT_EQ(std::string(bob_opened.text.begin(), bob_opened.text.end()), alice_text);
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, ChainConversationTest, ::testing::Values(1, 2, 3, 5));

TEST(Chain, IdleUserGetsEcho) {
  util::Xoshiro256Rng rng(200);
  Chain chain = Chain::Create(SmallChainConfig(3), rng);
  auto charlie = crypto::X25519KeyPair::Generate(rng);

  uint64_t round = 1;
  auto fake = conversation::BuildFakeExchangeRequest(charlie, round, rng);
  crypto::WrappedOnion onion = WrapExchange(chain, round, fake, rng);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(round, {onion.data}).get();

  auto resp = crypto::OnionOpenResponse(onion.layer_keys, round, result.responses[0]);
  ASSERT_TRUE(resp.has_value());
  // The envelope that comes back is Charlie's own (echo); he cannot even
  // decrypt it as a partner message since nobody holds the random partner key.
  // Only noise pairs (2 servers × 2 pairs × 2 messages) exchanged this round.
  EXPECT_EQ(result.messages_exchanged, 8u);
  EXPECT_EQ(result.histogram.pairs, 4u);
}

TEST(Chain, UnmatchedRealRequestEchoes) {
  // Alice talks to Bob, but Bob is offline this round: her envelope echoes
  // back and she learns the partner was absent.
  util::Xoshiro256Rng rng(201);
  Chain chain = Chain::Create(SmallChainConfig(2), rng);
  auto alice = crypto::X25519KeyPair::Generate(rng);
  auto bob = crypto::X25519KeyPair::Generate(rng);
  Session session = Session::Derive(alice, bob.public_key);

  uint64_t round = 3;
  auto req = conversation::BuildExchangeRequest(session, round, {});
  crypto::WrappedOnion onion = WrapExchange(chain, round, req, rng);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(round, {onion.data}).get();

  auto resp = crypto::OnionOpenResponse(onion.layer_keys, round, result.responses[0]);
  ASSERT_TRUE(resp.has_value());
  wire::Envelope env;
  std::copy(resp->begin(), resp->end(), env.begin());
  auto opened = conversation::OpenExchangeResponse(session, round, env);
  EXPECT_EQ(opened.kind, conversation::ResponseKind::kEcho);
}

TEST(Chain, MalformedOnionGetsGarbageResponseOfRightSize) {
  util::Xoshiro256Rng rng(202);
  Chain chain = Chain::Create(SmallChainConfig(3), rng);
  uint64_t round = 4;

  // A valid user plus one garbage request.
  auto alice = crypto::X25519KeyPair::Generate(rng);
  auto fake = conversation::BuildFakeExchangeRequest(alice, round, rng);
  crypto::WrappedOnion good = WrapExchange(chain, round, fake, rng);
  util::Bytes garbage = rng.RandomBytes(good.data.size());

  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(round, {good.data, garbage}).get();
  ASSERT_EQ(result.responses.size(), 2u);
  EXPECT_EQ(result.responses[0].size(), result.responses[1].size());
  EXPECT_EQ(result.stats.forward[0].requests_dropped, 1u);
  // The garbage response decrypts to nothing.
  EXPECT_FALSE(crypto::OnionOpenResponse(good.layer_keys, round, result.responses[1]).has_value());
}

TEST(Chain, NoiseCountsFollowConfig) {
  util::Xoshiro256Rng rng(203);
  ChainConfig config = SmallChainConfig(3, /*mu=*/10.0);
  Chain chain = Chain::Create(config, rng);
  uint64_t round = 5;

  auto alice = crypto::X25519KeyPair::Generate(rng);
  auto fake = conversation::BuildFakeExchangeRequest(alice, round, rng);
  crypto::WrappedOnion onion = WrapExchange(chain, round, fake, rng);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(round, {onion.data}).get();

  // µ=10 deterministic → each non-last server adds 10 singles + 5 pairs = 20.
  EXPECT_EQ(result.stats.forward[0].noise_requests_added, 20u);
  EXPECT_EQ(result.stats.forward[1].noise_requests_added, 20u);
  EXPECT_EQ(result.stats.forward[2].noise_requests_added, 0u);  // last server
  // Last server sees 1 + 2·20 requests.
  EXPECT_EQ(result.stats.forward[2].requests_in, 41u);
  // Noise histogram: each noise server contributes 10 singles + 5 pairs.
  EXPECT_EQ(result.histogram.singles, 1 + 20u);  // fake user's drop + noise singles
  EXPECT_EQ(result.histogram.pairs, 10u);
}

TEST(Chain, ResponsesSizedByChainLength) {
  for (size_t n : {1u, 2u, 4u}) {
    util::Xoshiro256Rng rng(204 + n);
    Chain chain = Chain::Create(SmallChainConfig(n), rng);
    uint64_t round = 6;
    auto kp = crypto::X25519KeyPair::Generate(rng);
    auto fake = conversation::BuildFakeExchangeRequest(kp, round, rng);
    crypto::WrappedOnion onion = WrapExchange(chain, round, fake, rng);

    EXPECT_EQ(onion.data.size(),
              crypto::OnionRequestSize(wire::kExchangeRequestSize, n));
    engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
    auto result = scheduler.SubmitConversation(round, {onion.data}).get();
    EXPECT_EQ(result.responses[0].size(), crypto::OnionResponseSize(wire::kEnvelopeSize, n));
  }
}

TEST(Chain, DhOpsAccounting) {
  // Total forward DH ops = Σ_server (its input batch) + noise wrapping work.
  util::Xoshiro256Rng rng(205);
  Chain chain = Chain::Create(SmallChainConfig(3, /*mu=*/4.0), rng);
  uint64_t round = 7;
  auto kp = crypto::X25519KeyPair::Generate(rng);
  auto fake = conversation::BuildFakeExchangeRequest(kp, round, rng);
  crypto::WrappedOnion onion = WrapExchange(chain, round, fake, rng);
  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(round, {onion.data}).get();

  // Server 0: 1 unwrap + 8 noise × 2 remaining layers = 17.
  EXPECT_EQ(result.stats.forward[0].dh_ops, 1 + 8 * 2u);
  // Server 1: 9 in + 8 noise × 1 = 17.
  EXPECT_EQ(result.stats.forward[1].dh_ops, 9 + 8u);
  // Last: 17 unwraps.
  EXPECT_EQ(result.stats.forward[2].dh_ops, 17u);
}

TEST(Chain, DialingRoundDepositsInvitation) {
  util::Xoshiro256Rng rng(206);
  Chain chain = Chain::Create(SmallChainConfig(3, /*mu=*/2.0), rng);

  auto alice = crypto::X25519KeyPair::Generate(rng);
  auto bob = crypto::X25519KeyPair::Generate(rng);

  dialing::RoundConfig dial_config{.num_real_drops = 4};
  uint64_t round = 8;
  wire::DialRequest dial = dialing::BuildDialRequest(dial_config, alice.public_key,
                                                     bob.public_key, rng);
  crypto::WrappedOnion onion =
      crypto::OnionWrap(chain.public_keys(), round, dial.Serialize(), rng);

  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitDialing(round, {onion.data}, dial_config.total_drops()).get();

  uint32_t bob_drop = dialing::DropForRecipient(dial_config, bob.public_key);
  auto callers = dialing::ScanInvitations(bob, result.table.Drop(bob_drop));
  ASSERT_EQ(callers.size(), 1u);
  EXPECT_EQ(callers[0], alice.public_key);

  // All 5 drops (4 real + no-op) got deterministic noise 2 from each of the
  // 3 servers = 6, plus Alice's invitation in Bob's drop.
  std::vector<uint64_t> sizes = result.table.DropSizes();
  for (uint32_t d = 0; d < dial_config.total_drops(); ++d) {
    uint64_t expected = 6 + (d == bob_drop ? 1 : 0);
    EXPECT_EQ(sizes[d], expected) << "drop " << d;
  }
}

// The ceremony derives public keys with the ladder, yet draws and derives the
// same bytes as X25519KeyPair::Generate (the comb) on the same stream: every
// seeded deployment keeps its keys.
TEST(Chain, KeyCeremonyMatchesGenerateOnTheSameStream) {
  util::Xoshiro256Rng rng(42);
  ChainKeyMaterial keys = DrawChainKeys(3, rng);
  util::Xoshiro256Rng replay(42);
  for (size_t i = 0; i < 3; ++i) {
    crypto::X25519KeyPair expected = crypto::X25519KeyPair::Generate(replay);
    EXPECT_EQ(keys.key_pairs[i].secret_key, expected.secret_key) << i;
    EXPECT_EQ(keys.key_pairs[i].public_key, expected.public_key) << i;
    EXPECT_EQ(keys.public_keys[i], expected.public_key) << i;
  }
  for (size_t i = 0; i < 3; ++i) {
    crypto::ChaCha20Key seed;
    replay.Fill(seed);
    EXPECT_EQ(keys.rng_seeds[i], seed) << i;
  }
}

TEST(Chain, ForwardOnLastServerThrows) {
  util::Xoshiro256Rng rng(207);
  Chain chain = Chain::Create(SmallChainConfig(2), rng);
  EXPECT_THROW(chain.server(1).ForwardConversation(1, {}),
               std::logic_error);
  EXPECT_THROW(chain.server(0).ProcessConversationLastHop(1, {}),
               std::logic_error);
}

TEST(Chain, BackwardWithoutForwardThrows) {
  util::Xoshiro256Rng rng(208);
  Chain chain = Chain::Create(SmallChainConfig(2), rng);
  EXPECT_THROW(chain.server(0).BackwardConversation(99, {}),
               std::logic_error);
}

TEST(Chain, PartnerMessageDecodesEndToEnd) {
  // Two partners' onions cross a three-server chain; the response onion
  // peels back to the partner's message.
  util::Xoshiro256Rng rng(209);
  ChainConfig config = SmallChainConfig(3);
  Chain chain = Chain::Create(config, rng);

  auto alice = crypto::X25519KeyPair::Generate(rng);
  auto bob = crypto::X25519KeyPair::Generate(rng);
  Session alice_session = Session::Derive(alice, bob.public_key);
  Session bob_session = Session::Derive(bob, alice.public_key);
  uint64_t round = 10;
  auto a_req = conversation::BuildExchangeRequest(alice_session, round, {});
  auto b_req = conversation::BuildExchangeRequest(bob_session, round, {});
  crypto::WrappedOnion a_onion = WrapExchange(chain, round, a_req, rng);
  crypto::WrappedOnion b_onion = WrapExchange(chain, round, b_req, rng);

  engine::RoundScheduler scheduler(transport::MakeLocalTransports(chain.servers()));
  auto result = scheduler.SubmitConversation(round, {a_onion.data, b_onion.data}).get();
  auto resp = crypto::OnionOpenResponse(a_onion.layer_keys, round, result.responses[0]);
  ASSERT_TRUE(resp.has_value());
  wire::Envelope env;
  std::copy(resp->begin(), resp->end(), env.begin());
  EXPECT_EQ(conversation::OpenExchangeResponse(alice_session, round, env).kind,
            conversation::ResponseKind::kPartnerMessage);
}

}  // namespace
}  // namespace vuvuzela::mixnet

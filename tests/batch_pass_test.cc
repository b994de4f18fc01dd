// Conformance suite for the batched onion hot path (ISSUE 10 tentpole).
//
// The batched MixServer pass (secret cache + block processing + precomputed
// noise tables) claims byte-identity with the scalar reference path. The
// determinism contract makes that provable: every pass is a pure function of
// (seed, round, input batch), so two servers built from the same key material
// must emit identical bytes whatever implementation strategy they use. These
// tests drive full conversation and dialing rounds through a batched chain
// and a scalar chain at batch sizes straddling every block boundary and
// compare every stage's output bit-for-bit.
//
// Also pinned here: the secret cache must not survive a key rotation, the
// comb-table DH must agree with the Montgomery ladder (RFC 7748 vectors,
// random pairs, twist fallback), and the zero-copy wire decode must yield
// the same items as the copying decode.

#include <gtest/gtest.h>

#include "src/crypto/onion.h"
#include "src/crypto/secret_cache.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_precomp.h"
#include "src/mixnet/mix_server.h"
#include "src/transport/hop_wire.h"
#include "src/util/random.h"
#include "src/wire/constants.h"

namespace vuvuzela {
namespace {

using mixnet::MixServer;
using mixnet::MixServerConfig;
using mixnet::ServerRoundStats;

constexpr size_t kServers = 3;

struct TestChain {
  std::vector<std::unique_ptr<MixServer>> servers;
  std::vector<crypto::X25519PublicKey> public_keys;
};

// Key material and noise seeds are drawn from `seed` in a fixed order, so two
// chains built from the same seed are identical apart from `batching`.
TestChain MakeChain(bool batching, size_t batch_block, uint64_t seed, double mu) {
  util::Xoshiro256Rng rng(seed);
  std::vector<crypto::X25519KeyPair> key_pairs;
  std::vector<crypto::ChaCha20Key> rng_seeds;
  TestChain chain;
  for (size_t i = 0; i < kServers; ++i) {
    key_pairs.push_back(crypto::X25519KeyPair::Generate(rng));
    chain.public_keys.push_back(key_pairs.back().public_key);
    crypto::ChaCha20Key noise_seed;
    rng.Fill(noise_seed);
    rng_seeds.push_back(noise_seed);
  }
  for (size_t i = 0; i < kServers; ++i) {
    MixServerConfig config;
    config.position = i;
    config.chain_length = kServers;
    config.conversation_noise = {.params = {mu, mu / 4.0 + 1.0}, .deterministic = true};
    config.dialing_noise = {.params = {mu, mu / 4.0 + 1.0}, .deterministic = true};
    config.parallel = true;
    config.exchange_shards = 1;
    config.batching = batching;
    config.batch_block = batch_block;
    chain.servers.push_back(std::make_unique<MixServer>(config, key_pairs[i], chain.public_keys,
                                                        rng_seeds[i]));
  }
  return chain;
}

std::vector<util::Bytes> MakeConversationBatch(const std::vector<crypto::X25519PublicKey>& pks,
                                               uint64_t round, size_t n, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<util::Bytes> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
    batch.push_back(crypto::OnionWrap(pks, round, payload, rng).data);
  }
  return batch;
}

std::vector<util::Bytes> MakeDialingBatch(const std::vector<crypto::X25519PublicKey>& pks,
                                          uint64_t round, size_t n, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<util::Bytes> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    util::Bytes payload = rng.RandomBytes(wire::kDialRequestSize);
    batch.push_back(crypto::OnionWrap(pks, round, payload, rng).data);
  }
  return batch;
}

// Every stage output of one conversation round, for bit-level comparison.
struct ConversationTranscript {
  std::vector<std::vector<util::Bytes>> forward;  // after each server's pass
  std::vector<util::Bytes> last_responses;
  uint64_t messages_exchanged = 0;
  std::vector<std::vector<util::Bytes>> backward;  // after each return pass
  std::vector<ServerRoundStats> stats;
};

ConversationTranscript RunConversation(TestChain& chain, uint64_t round,
                                       std::vector<util::Bytes> batch) {
  ConversationTranscript t;
  t.stats.resize(2 * kServers - 1);
  std::vector<util::Bytes> current = std::move(batch);
  for (size_t i = 0; i + 1 < kServers; ++i) {
    current = chain.servers[i]->ForwardConversation(round, std::move(current), &t.stats[i]);
    t.forward.push_back(current);
  }
  auto last = chain.servers.back()->ProcessConversationLastHop(round, std::move(current),
                                                              &t.stats[kServers - 1]);
  t.last_responses = last.responses;
  t.messages_exchanged = last.messages_exchanged;
  current = std::move(last.responses);
  for (size_t i = kServers - 1; i-- > 0;) {
    current = chain.servers[i]->BackwardConversation(round, std::move(current),
                                                    &t.stats[2 * kServers - 2 - i]);
    t.backward.push_back(current);
  }
  return t;
}

void ExpectIdentical(const ConversationTranscript& a, const ConversationTranscript& b) {
  ASSERT_EQ(a.forward.size(), b.forward.size());
  for (size_t i = 0; i < a.forward.size(); ++i) {
    EXPECT_EQ(a.forward[i], b.forward[i]) << "forward stage " << i;
  }
  EXPECT_EQ(a.last_responses, b.last_responses);
  EXPECT_EQ(a.messages_exchanged, b.messages_exchanged);
  ASSERT_EQ(a.backward.size(), b.backward.size());
  for (size_t i = 0; i < a.backward.size(); ++i) {
    EXPECT_EQ(a.backward[i], b.backward[i]) << "backward stage " << i;
  }
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].requests_in, b.stats[i].requests_in) << "stats " << i;
    EXPECT_EQ(a.stats[i].requests_dropped, b.stats[i].requests_dropped) << "stats " << i;
    EXPECT_EQ(a.stats[i].noise_requests_added, b.stats[i].noise_requests_added) << "stats " << i;
    EXPECT_EQ(a.stats[i].bytes_out, b.stats[i].bytes_out) << "stats " << i;
    // dh_ops counts logical key derivations (serialized into reply headers),
    // so the batched path must report the same number even when the cache
    // answered most of them.
    EXPECT_EQ(a.stats[i].dh_ops, b.stats[i].dh_ops) << "stats " << i;
  }
}

// The block boundaries of the default batch_block = 64, plus a multi-block
// batch (the ISSUE's kBatch stand-in, sized to keep the suite fast).
class BatchConformance : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchConformance,
                         ::testing::Values(1u, 63u, 64u, 65u, 160u));

TEST_P(BatchConformance, ConversationRoundByteIdentical) {
  const size_t n = GetParam();
  TestChain batched = MakeChain(/*batching=*/true, /*batch_block=*/64, /*seed=*/7, /*mu=*/12);
  TestChain scalar = MakeChain(/*batching=*/false, /*batch_block=*/64, /*seed=*/7, /*mu=*/12);
  ASSERT_EQ(batched.public_keys, scalar.public_keys);

  for (uint64_t round = 1; round <= 2; ++round) {
    auto batch = MakeConversationBatch(batched.public_keys, round, n, 1000 + round);
    auto a = RunConversation(batched, round, batch);
    auto b = RunConversation(scalar, round, std::move(batch));
    ExpectIdentical(a, b);
  }
  // Round 2 of the batched chain ran against a warm secret cache (same
  // clients would hit; here each onion uses a fresh ephemeral so the cache
  // misses — either way the bytes matched above). Sanity: the batched chain
  // actually exercised the cache machinery.
  EXPECT_GT(batched.servers[0]->secret_cache().GetStats().misses, 0u);
}

TEST_P(BatchConformance, DialingRoundByteIdentical) {
  const size_t n = GetParam();
  constexpr uint32_t kDrops = 5;
  TestChain batched = MakeChain(/*batching=*/true, /*batch_block=*/64, /*seed=*/9, /*mu=*/12);
  TestChain scalar = MakeChain(/*batching=*/false, /*batch_block=*/64, /*seed=*/9, /*mu=*/12);

  auto batch = MakeDialingBatch(batched.public_keys, 1, n, 2000);
  std::vector<util::Bytes> a = batch;
  std::vector<util::Bytes> b = batch;
  ServerRoundStats sa, sb;
  for (size_t i = 0; i + 1 < kServers; ++i) {
    a = batched.servers[i]->ForwardDialing(1, std::move(a), kDrops, &sa);
    b = scalar.servers[i]->ForwardDialing(1, std::move(b), kDrops, &sb);
    ASSERT_EQ(a, b) << "dialing forward stage " << i;
    EXPECT_EQ(sa.noise_requests_added, sb.noise_requests_added);
    EXPECT_EQ(sa.dh_ops, sb.dh_ops);
  }
  auto table_a = batched.servers.back()->ProcessDialingLastHop(1, std::move(a), kDrops, &sa);
  auto table_b = scalar.servers.back()->ProcessDialingLastHop(1, std::move(b), kDrops, &sb);
  ASSERT_EQ(table_a.num_drops(), table_b.num_drops());
  for (uint32_t d = 0; d < table_a.num_drops(); ++d) {
    EXPECT_EQ(table_a.Drop(d), table_b.Drop(d)) << "drop " << d;
  }
  EXPECT_EQ(sa.requests_dropped, sb.requests_dropped);
}

// A non-default block size must not change a single byte either: blocks are
// a scheduling unit, never a semantic one.
TEST(BatchConformanceBlocks, OddBlockSizeByteIdentical) {
  TestChain small = MakeChain(/*batching=*/true, /*batch_block=*/8, /*seed=*/11, /*mu=*/6);
  TestChain big = MakeChain(/*batching=*/true, /*batch_block=*/512, /*seed=*/11, /*mu=*/6);
  auto batch = MakeConversationBatch(small.public_keys, 1, 50, 3000);
  auto a = RunConversation(small, 1, batch);
  auto b = RunConversation(big, 1, std::move(batch));
  ExpectIdentical(a, b);
}

// --- Secret cache lifecycle --------------------------------------------------

// A client with a static key hits the cache from round 2 on; the pass output
// stays byte-identical to a cold server's.
TEST(SecretCacheConformance, WarmCacheIdenticalToCold) {
  TestChain warm = MakeChain(/*batching=*/true, /*batch_block=*/64, /*seed=*/21, /*mu=*/6);
  util::Xoshiro256Rng rng(77);
  std::vector<crypto::X25519KeyPair> client_keys;
  std::vector<crypto::X25519PublicKey> client_pks;
  for (int i = 0; i < 16; ++i) {
    client_keys.push_back(crypto::X25519KeyPair::Generate(rng));
    client_pks.push_back(client_keys.back().public_key);
  }
  warm.servers[0]->PrimeClientSecrets(client_pks);
  ASSERT_EQ(warm.servers[0]->secret_cache().GetStats().entries, 16u);

  for (uint64_t round = 1; round <= 3; ++round) {
    // One onion per client per round (the nonce-safety contract of
    // OnionWrapWithKeys).
    std::vector<util::Bytes> batch;
    util::Xoshiro256Rng payload_rng(round);
    for (const auto& kp : client_keys) {
      std::vector<crypto::X25519KeyPair> layer_keys(kServers, kp);
      batch.push_back(crypto::OnionWrapWithKeys(warm.public_keys, layer_keys, round,
                                                payload_rng.RandomBytes(
                                                    wire::kExchangeRequestSize))
                          .data);
    }
    // A freshly built identical chain (cold cache) must emit the same bytes.
    TestChain cold = MakeChain(/*batching=*/true, /*batch_block=*/64, /*seed=*/21, /*mu=*/6);
    auto a = RunConversation(warm, round, batch);
    auto b = RunConversation(cold, round, std::move(batch));
    ExpectIdentical(a, b);
  }
  // Primed entries actually answered the rounds: no growth beyond the
  // ceremony, and hits accumulated.
  auto stats = warm.servers[0]->secret_cache().GetStats();
  EXPECT_EQ(stats.entries, 16u);
  EXPECT_GE(stats.hits, 3u * 16u);
}

// Rotation must drop every cached secret: an onion wrapped for the old key
// is rejected afterwards, and an onion wrapped for the new key unwraps —
// which a stale cache entry would break (wrong derived key, AEAD tag fails).
TEST(SecretCacheConformance, RotatedKeyServesNoStaleSecrets) {
  TestChain chain = MakeChain(/*batching=*/true, /*batch_block=*/64, /*seed=*/31, /*mu=*/0);
  MixServer& hop = *chain.servers[0];
  util::Xoshiro256Rng rng(5);
  auto client = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519KeyPair> layer_keys(kServers, client);

  auto wrap = [&](uint64_t round, const std::vector<crypto::X25519PublicKey>& pks) {
    util::Xoshiro256Rng payload_rng(round);
    return crypto::OnionWrapWithKeys(pks, layer_keys, round,
                                     payload_rng.RandomBytes(wire::kExchangeRequestSize))
        .data;
  };

  ServerRoundStats stats;
  hop.ForwardConversation(1, std::vector<util::Bytes>{wrap(1, chain.public_keys)}, &stats);
  EXPECT_EQ(stats.requests_dropped, 0u);
  ASSERT_EQ(hop.secret_cache().GetStats().entries, 1u);
  const uint64_t epoch_before = hop.secret_cache().epoch();

  auto new_pair = crypto::X25519KeyPair::Generate(rng);
  hop.RotateKey(new_pair);
  EXPECT_EQ(hop.secret_cache().epoch(), epoch_before + 1);
  EXPECT_EQ(hop.secret_cache().GetStats().entries, 0u);

  // Old-key onion: rejected under the new key.
  hop.ForwardConversation(2, std::vector<util::Bytes>{wrap(2, chain.public_keys)}, &stats);
  EXPECT_EQ(stats.requests_dropped, 1u);

  // New-key onion from the same client: accepted — a stale cache entry for
  // this client pk (derived under the old server key) would drop it.
  std::vector<crypto::X25519PublicKey> new_chain = chain.public_keys;
  new_chain[0] = new_pair.public_key;
  hop.ForwardConversation(3, std::vector<util::Bytes>{wrap(3, new_chain)}, &stats);
  EXPECT_EQ(stats.requests_dropped, 0u);
  EXPECT_EQ(hop.secret_cache().GetStats().entries, 1u);
}

// Static clients present their key every pass; cover onions and fresh-key
// clients present a key once. Against a cache far smaller than that churn,
// the two generations must keep every static key resident (one miss each,
// ever), hold no more than two passes' worth of keys, and leave every peeled
// layer byte-identical to an uncached unwrap. A single-generation cache that
// evicts arbitrary entries at its cap fails the first assertion.
TEST(SecretCacheConformance, ChurnLeavesStaticKeysResident) {
  constexpr size_t kCap = 64;
  constexpr size_t kStatic = 16;
  constexpr size_t kFreshPerPass = 14;
  constexpr uint64_t kPasses = 50;
  static_assert(kFreshPerPass * kPasses > 10 * kCap, "churn must exceed 10x the cap");

  util::Xoshiro256Rng rng(91);
  std::vector<crypto::X25519KeyPair> servers;
  std::vector<crypto::X25519PublicKey> server_pks;
  std::vector<std::unique_ptr<crypto::SecretCache>> caches;
  for (size_t i = 0; i < kServers; ++i) {
    servers.push_back(crypto::X25519KeyPair::Generate(rng));
    server_pks.push_back(servers.back().public_key);
    caches.push_back(std::make_unique<crypto::SecretCache>(kCap));
  }
  std::vector<crypto::X25519KeyPair> clients;
  for (size_t i = 0; i < kStatic; ++i) {
    clients.push_back(crypto::X25519KeyPair::Generate(rng));
  }

  for (uint64_t round = 1; round <= kPasses; ++round) {
    util::Xoshiro256Rng payload_rng(round);
    std::vector<util::Bytes> batch;
    for (const auto& kp : clients) {
      std::vector<crypto::X25519KeyPair> layer_keys(kServers, kp);
      batch.push_back(crypto::OnionWrapWithKeys(server_pks, layer_keys, round,
                                                payload_rng.RandomBytes(wire::kExchangeRequestSize))
                          .data);
    }
    for (size_t i = 0; i < kFreshPerPass; ++i) {
      batch.push_back(
          crypto::OnionWrap(server_pks, round, payload_rng.RandomBytes(wire::kExchangeRequestSize),
                            rng)
              .data);
    }
    // Peel the chain hop by hop, one pass (one Advance) per hop per round.
    for (size_t hop = 0; hop < kServers; ++hop) {
      crypto::SecretCache& cache = *caches[hop];
      const uint64_t misses_before = cache.GetStats().misses;
      cache.Advance();
      for (util::Bytes& layer : batch) {
        std::optional<crypto::UnwrappedLayer> cold =
            crypto::OnionUnwrapLayer(servers[hop].secret_key, round, layer);
        ASSERT_TRUE(cold.has_value());
        util::Bytes inner(layer.size() - crypto::kOnionRequestLayerOverhead);
        crypto::AeadKey key;
        ASSERT_TRUE(crypto::OnionUnwrapLayerInto(servers[hop].secret_key, &cache, round, layer,
                                                 inner, key));
        ASSERT_EQ(inner, cold->inner) << "round " << round << " hop " << hop;
        ASSERT_EQ(key, cold->response_key) << "round " << round << " hop " << hop;
        layer = std::move(inner);
      }
      crypto::SecretCache::Stats stats = cache.GetStats();
      // Static keys miss on their first pass only; each fresh key misses once.
      EXPECT_EQ(stats.misses - misses_before, kFreshPerPass + (round == 1 ? kStatic : 0))
          << "round " << round << " hop " << hop;
      // This pass's keys plus the previous pass's fresh ones.
      EXPECT_LE(stats.entries, kStatic + 2 * kFreshPerPass) << "round " << round;
      EXPECT_EQ(stats.evictions, 0u);
    }
  }
  for (const auto& cache : caches) {
    EXPECT_EQ(cache->GetStats().misses, kStatic + kFreshPerPass * kPasses);
  }
}

// --- Precomputed-table DH vs the ladder --------------------------------------

TEST(PrecompConformance, Rfc7748VectorAndBasePoint) {
  // RFC 7748 §5.2 test vector 1.
  const crypto::X25519SecretKey scalar = {
      0xa5, 0x46, 0xe3, 0x6b, 0xf0, 0x52, 0x7c, 0x9d, 0x3b, 0x16, 0x15,
      0x4b, 0x82, 0x46, 0x5e, 0xdd, 0x62, 0x14, 0x4c, 0x0a, 0xc1, 0xfc,
      0x5a, 0x18, 0x50, 0x6a, 0x22, 0x44, 0xba, 0x44, 0x9a, 0xc4};
  const crypto::X25519PublicKey point = {
      0xe6, 0xdb, 0x68, 0x67, 0x58, 0x30, 0x30, 0xdb, 0x35, 0x94, 0xc1,
      0xa4, 0x24, 0xb1, 0x5f, 0x7c, 0x72, 0x66, 0x24, 0xec, 0x26, 0xb3,
      0x35, 0x3b, 0x10, 0xa9, 0x03, 0xa6, 0xd0, 0xab, 0x1c, 0x4c};
  auto table = crypto::X25519Precomp::Create(point);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->Mult(scalar), crypto::X25519(scalar, point));

  util::Xoshiro256Rng rng(1);
  for (int i = 0; i < 32; ++i) {
    crypto::X25519SecretKey sk;
    rng.Fill(sk);
    EXPECT_EQ(crypto::X25519BasePointFast(sk), crypto::X25519BasePoint(sk));
  }
}

TEST(PrecompConformance, RandomCurvePointsMatchLadderAndTwistFallsBack) {
  util::Xoshiro256Rng rng(2);
  size_t curve_points = 0;
  size_t twist_points = 0;
  // Honest public keys (sk·9) always lift; random u-coordinates land on the
  // twist about half the time and must return nullopt (callers fall back to
  // the ladder).
  for (int i = 0; i < 64; ++i) {
    auto kp = crypto::X25519KeyPair::Generate(rng);
    auto table = crypto::X25519Precomp::Create(kp.public_key);
    ASSERT_TRUE(table.has_value()) << "honest key failed to lift";
    for (int j = 0; j < 4; ++j) {
      crypto::X25519SecretKey sk;
      rng.Fill(sk);
      ASSERT_EQ(table->Mult(sk), crypto::X25519(sk, kp.public_key));
    }
  }
  for (int i = 0; i < 64; ++i) {
    crypto::X25519PublicKey u;
    rng.Fill(u);
    auto table = crypto::X25519Precomp::Create(u);
    if (!table.has_value()) {
      ++twist_points;
      continue;
    }
    ++curve_points;
    crypto::X25519SecretKey sk;
    rng.Fill(sk);
    EXPECT_EQ(table->Mult(sk), crypto::X25519(sk, u));
  }
  // Both populations must occur (probability of either being empty over 64
  // uniform points is ~2^-64).
  EXPECT_GT(curve_points, 0u);
  EXPECT_GT(twist_points, 0u);
}

// --- Zero-copy wire decode ---------------------------------------------------

TEST(ZeroCopyWire, DecodeMatchesCopyingDecode) {
  util::Xoshiro256Rng rng(3);
  std::vector<util::Bytes> items;
  for (int i = 0; i < 9; ++i) {
    items.push_back(rng.RandomBytes(100));
  }
  util::Bytes header = rng.RandomBytes(24);
  // Small chunk budget forces continuation frames, so the zero-copy path
  // exercises multi-chunk storage.
  auto frames = transport::EncodeBatchChunks(net::FrameType::kHopForwardConversation, 42, header,
                                             items, /*max_chunk_payload=*/256);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 1u);

  transport::BatchAssembler copy_asm(transport::kMaxBatchMessageBytes,
                                     transport::BatchAssembler::ItemMode::kCopy);
  transport::BatchAssembler zero_asm(transport::kMaxBatchMessageBytes,
                                     transport::BatchAssembler::ItemMode::kZeroCopy);
  for (size_t i = 0; i < frames->size(); ++i) {
    net::Frame frame = (*frames)[i];
    auto expected = i + 1 == frames->size() ? transport::BatchAssembler::Status::kDone
                                            : transport::BatchAssembler::Status::kNeedMore;
    ASSERT_EQ(copy_asm.Consume(frame), expected);
    ASSERT_EQ(zero_asm.Consume(std::move(frame)), expected);
  }
  transport::BatchMessage by_copy = copy_asm.Take();
  transport::BatchMessage by_view = zero_asm.Take();

  EXPECT_EQ(by_copy.op, by_view.op);
  EXPECT_EQ(by_copy.round, by_view.round);
  EXPECT_EQ(by_copy.header, by_view.header);
  EXPECT_EQ(by_copy.wire_bytes, by_view.wire_bytes);
  ASSERT_EQ(by_copy.item_count(), items.size());
  ASSERT_EQ(by_view.item_count(), items.size());
  EXPECT_TRUE(by_view.items.empty());
  EXPECT_FALSE(by_view.chunk_storage.empty());

  // Views must survive a move of the whole message (the daemon moves the
  // request around before running the pass).
  transport::BatchMessage moved = std::move(by_view);
  auto copy_spans = by_copy.ItemSpans();
  auto view_spans = moved.ItemSpans();
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(util::Bytes(copy_spans[i].begin(), copy_spans[i].end()), items[i]);
    EXPECT_EQ(util::Bytes(view_spans[i].begin(), view_spans[i].end()), items[i]);
  }
}

}  // namespace
}  // namespace vuvuzela

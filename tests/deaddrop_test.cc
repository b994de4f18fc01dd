// Dead-drop table tests: exchange semantics (Algorithm 2 step 3b), the
// m1/m2 histogram, and the invitation table.

#include <gtest/gtest.h>

#include "src/deaddrop/conversation_table.h"
#include "src/deaddrop/invitation_table.h"
#include "src/util/batch.h"
#include "src/util/random.h"
#include "src/wire/messages.h"

namespace vuvuzela::deaddrop {
namespace {

wire::ExchangeRequest MakeRequest(uint8_t drop_tag, uint8_t envelope_tag) {
  wire::ExchangeRequest req;
  req.dead_drop.fill(drop_tag);
  req.envelope.fill(envelope_tag);
  return req;
}

// The exchange reads serialized requests, as the last hop holds them after
// peeling; these run it over serialized copies of `requests`.
ExchangeOutcome Exchange(const std::vector<wire::ExchangeRequest>& requests) {
  std::vector<util::Bytes> serialized;
  for (const wire::ExchangeRequest& request : requests) {
    serialized.push_back(request.Serialize());
  }
  return ExchangeRound(util::ViewsOf(serialized));
}

ExchangeOutcome ShardedExchange(const std::vector<wire::ExchangeRequest>& requests,
                                size_t num_shards) {
  std::vector<util::Bytes> serialized;
  for (const wire::ExchangeRequest& request : requests) {
    serialized.push_back(request.Serialize());
  }
  return ShardedExchangeRound(util::ViewsOf(serialized), num_shards);
}

TEST(ExchangeRound, PairSwapsEnvelopes) {
  std::vector<wire::ExchangeRequest> requests = {MakeRequest(1, 0xaa), MakeRequest(1, 0xbb)};
  ExchangeOutcome out = Exchange(requests);
  EXPECT_EQ(out.partner[0], 1u);
  EXPECT_EQ(out.partner[1], 0u);
  EXPECT_EQ(out.histogram.pairs, 1u);
  EXPECT_EQ(out.histogram.singles, 0u);
  EXPECT_EQ(out.messages_exchanged, 2u);
}

TEST(ExchangeRound, SingleEchoesBack) {
  std::vector<wire::ExchangeRequest> requests = {MakeRequest(7, 0xcc)};
  ExchangeOutcome out = Exchange(requests);
  EXPECT_EQ(out.partner[0], 0u);
  EXPECT_EQ(out.histogram.singles, 1u);
  EXPECT_EQ(out.messages_exchanged, 0u);
}

TEST(ExchangeRound, MixedDrops) {
  std::vector<wire::ExchangeRequest> requests = {
      MakeRequest(1, 0x01), MakeRequest(2, 0x02), MakeRequest(1, 0x03),
      MakeRequest(3, 0x04), MakeRequest(3, 0x05),
  };
  ExchangeOutcome out = Exchange(requests);
  EXPECT_EQ(out.partner[0], 2u);
  EXPECT_EQ(out.partner[2], 0u);
  EXPECT_EQ(out.partner[1], 1u);  // lone → echo
  EXPECT_EQ(out.partner[3], 4u);
  EXPECT_EQ(out.partner[4], 3u);
  EXPECT_EQ(out.histogram.pairs, 2u);
  EXPECT_EQ(out.histogram.singles, 1u);
  EXPECT_EQ(out.messages_exchanged, 4u);
}

TEST(ExchangeRound, CrowdedDropPairsInOrderOddEchoes) {
  // Only adversarial clients share a drop 3+ ways; behavior must stay sane.
  std::vector<wire::ExchangeRequest> requests = {MakeRequest(9, 0x01), MakeRequest(9, 0x02),
                                                 MakeRequest(9, 0x03)};
  ExchangeOutcome out = Exchange(requests);
  EXPECT_EQ(out.partner[0], 1u);
  EXPECT_EQ(out.partner[1], 0u);
  EXPECT_EQ(out.partner[2], 2u);  // odd one out echoes
  EXPECT_EQ(out.histogram.crowded, 1u);
  EXPECT_EQ(out.messages_exchanged, 2u);
}

TEST(ExchangeRound, EmptyRound) {
  ExchangeOutcome out = ExchangeRound({});
  EXPECT_TRUE(out.partner.empty());
  EXPECT_EQ(out.histogram.singles + out.histogram.pairs + out.histogram.crowded, 0u);
}

TEST(ExchangeRound, LargeRoundHistogramAddsUp) {
  util::Xoshiro256Rng rng(5);
  std::vector<wire::ExchangeRequest> requests;
  // 100 paired drops + 50 singles.
  for (int i = 0; i < 100; ++i) {
    wire::ExchangeRequest a, b;
    rng.Fill(a.dead_drop);
    b.dead_drop = a.dead_drop;
    rng.Fill(a.envelope);
    rng.Fill(b.envelope);
    requests.push_back(a);
    requests.push_back(b);
  }
  for (int i = 0; i < 50; ++i) {
    wire::ExchangeRequest a;
    rng.Fill(a.dead_drop);
    rng.Fill(a.envelope);
    requests.push_back(a);
  }
  ExchangeOutcome out = Exchange(requests);
  EXPECT_EQ(out.histogram.pairs, 100u);
  EXPECT_EQ(out.histogram.singles, 50u);
  EXPECT_EQ(out.messages_exchanged, 200u);
}

// Builds a mixed workload of paired, single, and crowded drops with
// pseudorandom (hash-like) IDs, as the last server sees in production.
std::vector<wire::ExchangeRequest> RandomWorkload(uint64_t seed, size_t pairs, size_t singles,
                                                  size_t crowded) {
  util::Xoshiro256Rng rng(seed);
  std::vector<wire::ExchangeRequest> requests;
  for (size_t i = 0; i < pairs; ++i) {
    wire::ExchangeRequest a, b;
    rng.Fill(a.dead_drop);
    b.dead_drop = a.dead_drop;
    rng.Fill(a.envelope);
    rng.Fill(b.envelope);
    requests.push_back(a);
    requests.push_back(b);
  }
  for (size_t i = 0; i < singles; ++i) {
    wire::ExchangeRequest a;
    rng.Fill(a.dead_drop);
    rng.Fill(a.envelope);
    requests.push_back(a);
  }
  for (size_t i = 0; i < crowded; ++i) {
    wire::ExchangeRequest a;
    rng.Fill(a.dead_drop);
    for (int k = 0; k < 3; ++k) {
      rng.Fill(a.envelope);
      requests.push_back(a);
    }
  }
  // Interleave so shard buckets see non-contiguous accesses.
  std::vector<uint32_t> perm(requests.size());
  for (uint32_t i = 0; i < perm.size(); ++i) {
    perm[i] = i;
  }
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformUint64(i)]);
  }
  std::vector<wire::ExchangeRequest> shuffled(requests.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    shuffled[i] = requests[perm[i]];
  }
  return shuffled;
}

void ExpectSameOutcome(const ExchangeOutcome& a, const ExchangeOutcome& b) {
  ASSERT_EQ(a.partner.size(), b.partner.size());
  for (size_t i = 0; i < a.partner.size(); ++i) {
    ASSERT_EQ(a.partner[i], b.partner[i]) << "partner " << i << " diverges";
  }
  EXPECT_EQ(a.histogram.singles, b.histogram.singles);
  EXPECT_EQ(a.histogram.pairs, b.histogram.pairs);
  EXPECT_EQ(a.histogram.crowded, b.histogram.crowded);
  EXPECT_EQ(a.messages_exchanged, b.messages_exchanged);
}

TEST(ShardedExchangeRound, ByteIdenticalToSequential) {
  std::vector<wire::ExchangeRequest> requests = RandomWorkload(11, 400, 150, 20);
  ExchangeOutcome sequential = Exchange(requests);
  for (size_t shards : {2u, 3u, 8u, 64u}) {
    ExchangeOutcome sharded = ShardedExchange(requests, shards);
    ExpectSameOutcome(sequential, sharded);
  }
}

TEST(ShardedExchangeRound, MoreShardsThanRequestsFallsBack) {
  std::vector<wire::ExchangeRequest> requests = RandomWorkload(12, 3, 2, 0);
  ExpectSameOutcome(Exchange(requests), ShardedExchange(requests, 64));
}

TEST(ShardedExchangeRound, EmptyRound) {
  ExchangeOutcome out = ShardedExchangeRound({}, 8);
  EXPECT_TRUE(out.partner.empty());
  EXPECT_EQ(out.messages_exchanged, 0u);
}

TEST(ShardedExchangeRound, AdversarialSameIdLoad) {
  // Every request hits the same drop: one shard takes the whole load; the
  // outcome must still match the sequential pairing-in-input-order rule.
  std::vector<wire::ExchangeRequest> requests;
  for (int i = 0; i < 101; ++i) {
    requests.push_back(MakeRequest(42, static_cast<uint8_t>(i)));
  }
  ExpectSameOutcome(Exchange(requests), ShardedExchange(requests, 16));
}

TEST(InvitationDropForKey, StableAndInRange) {
  util::Xoshiro256Rng rng(6);
  crypto::X25519PublicKey pk;
  rng.Fill(pk);
  uint32_t d1 = InvitationDropForKey(pk, 10);
  uint32_t d2 = InvitationDropForKey(pk, 10);
  EXPECT_EQ(d1, d2);
  EXPECT_LT(d1, 10u);
  EXPECT_THROW(InvitationDropForKey(pk, 0), std::invalid_argument);
}

TEST(InvitationDropForKey, SpreadsAcrossDrops) {
  util::Xoshiro256Rng rng(7);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 800; ++i) {
    crypto::X25519PublicKey pk;
    rng.Fill(pk);
    hits[InvitationDropForKey(pk, 8)]++;
  }
  for (int h : hits) {
    EXPECT_GT(h, 50);  // expect ≈100 each; catastrophic skew would fail
  }
}

TEST(InvitationTable, AddAndFetch) {
  InvitationTable table(3);
  wire::Invitation inv;
  inv.fill(0x11);
  table.Add(1, inv);
  EXPECT_EQ(table.Drop(1).size(), 1u);
  EXPECT_EQ(table.Drop(0).size(), 0u);
  EXPECT_EQ(table.Drop(1)[0], inv);
}

TEST(InvitationTable, OutOfRangeIndexWraps) {
  InvitationTable table(3);
  wire::Invitation inv;
  inv.fill(0x22);
  table.Add(4, inv);  // adversarial index: 4 mod 3 = 1
  EXPECT_EQ(table.Drop(1).size(), 1u);
}

TEST(InvitationTable, NoiseCountsApplied) {
  InvitationTable table(4);
  util::Xoshiro256Rng rng(8);
  std::vector<uint64_t> counts = {5, 0, 2, 7};
  table.AddNoise(counts, rng);
  EXPECT_EQ(table.DropSizes(), (std::vector<uint64_t>{5, 0, 2, 7}));
}

TEST(InvitationTable, NoiseSizeMismatchThrows) {
  InvitationTable table(4);
  util::Xoshiro256Rng rng(9);
  std::vector<uint64_t> counts = {1, 2};
  EXPECT_THROW(table.AddNoise(counts, rng), std::invalid_argument);
}

TEST(InvitationTable, DropBytesCountsInvitationSize) {
  InvitationTable table(2);
  util::Xoshiro256Rng rng(10);
  std::vector<uint64_t> counts = {3, 0};
  table.AddNoise(counts, rng);
  EXPECT_EQ(table.DropBytes(0), 3 * wire::kInvitationSize);
  EXPECT_EQ(table.DropBytes(1), 0u);
}

TEST(InvitationTable, ZeroDropsThrows) { EXPECT_THROW(InvitationTable(0), std::invalid_argument); }

TEST(PackDrops, UnpackRoundTripsEveryDrop) {
  InvitationTable table(4);
  util::Xoshiro256Rng rng(11);
  std::vector<uint64_t> counts = {3, 0, 1, 5};
  table.AddNoise(counts, rng);
  util::PackedItems packed = PackDrops(table);
  ASSERT_EQ(packed.items.size(), 4u);

  InvitationTable unpacked(4);
  ASSERT_TRUE(UnpackDrops(packed.items, unpacked));
  for (uint32_t drop = 0; drop < 4; ++drop) {
    EXPECT_EQ(unpacked.Drop(drop), table.Drop(drop)) << drop;
  }

  // A shard's slice lands at its drop range's offset.
  InvitationTable merged(6);
  ASSERT_TRUE(UnpackDrops(std::span(packed.items).subspan(2), merged, /*first_drop=*/4));
  EXPECT_EQ(merged.DropSizes(), (std::vector<uint64_t>{0, 0, 0, 0, 1, 5}));
  EXPECT_EQ(merged.Drop(5), table.Drop(3));
}

TEST(PackDrops, UnpackRejectsARaggedDropAndAddsNothing) {
  InvitationTable table(2);
  util::Xoshiro256Rng rng(12);
  std::vector<uint64_t> counts = {2, 1};
  table.AddNoise(counts, rng);
  util::PackedItems packed = PackDrops(table);
  // Drop 1 loses its last byte: no longer a whole number of invitations.
  std::vector<util::ByteSpan> ragged = {packed.items[0], packed.items[1].first(
                                                             wire::kInvitationSize - 1)};
  InvitationTable unpacked(2);
  EXPECT_FALSE(UnpackDrops(ragged, unpacked));
  EXPECT_EQ(unpacked.DropSizes(), (std::vector<uint64_t>{0, 0}));
}

}  // namespace
}  // namespace vuvuzela::deaddrop

// Coordination layer tests: round schedule, invitation distributor
// accounting, key directory and hop key files.

#include <gtest/gtest.h>

#include <fstream>

#include "src/coord/coordinator.h"
#include "src/coord/distributor.h"
#include "src/coord/keydir.h"
#include "src/util/bytes.h"
#include "src/util/random.h"

namespace vuvuzela::coord {
namespace {

TEST(RoundSchedule, InterleavesDialingRounds) {
  RoundSchedule schedule(ScheduleConfig{.conversation_rounds_per_dialing_round = 3,
                                        .dial_dead_drops = 5});
  std::vector<wire::RoundType> types;
  for (int i = 0; i < 8; ++i) {
    types.push_back(schedule.Next().type);
  }
  EXPECT_EQ(types, (std::vector<wire::RoundType>{
                       wire::RoundType::kConversation, wire::RoundType::kConversation,
                       wire::RoundType::kConversation, wire::RoundType::kDialing,
                       wire::RoundType::kConversation, wire::RoundType::kConversation,
                       wire::RoundType::kConversation, wire::RoundType::kDialing}));
  EXPECT_EQ(schedule.conversation_rounds_announced(), 6u);
  EXPECT_EQ(schedule.dialing_rounds_announced(), 2u);
}

TEST(RoundSchedule, RoundNumberSpacesDisjoint) {
  RoundSchedule schedule(ScheduleConfig{.conversation_rounds_per_dialing_round = 1,
                                        .dial_dead_drops = 1});
  for (int i = 0; i < 10; ++i) {
    wire::RoundAnnouncement ann = schedule.Next();
    if (ann.type == wire::RoundType::kDialing) {
      EXPECT_GE(ann.round, kDialingRoundBase);
      EXPECT_EQ(ann.num_dial_dead_drops, 1u);
    } else {
      EXPECT_LT(ann.round, kDialingRoundBase);
    }
  }
}

TEST(RoundSchedule, MonotoneRoundNumbers) {
  RoundSchedule schedule(ScheduleConfig{.conversation_rounds_per_dialing_round = 2,
                                        .dial_dead_drops = 1});
  uint64_t last_conv = 0, last_dial = kDialingRoundBase - 1;
  for (int i = 0; i < 20; ++i) {
    wire::RoundAnnouncement ann = schedule.Next();
    if (ann.type == wire::RoundType::kConversation) {
      EXPECT_GT(ann.round, last_conv);
      last_conv = ann.round;
    } else {
      EXPECT_GT(ann.round, last_dial);
      last_dial = ann.round;
    }
  }
}

TEST(InvitationDistributor, ServesAndAccounts) {
  InvitationDistributor distributor;
  deaddrop::InvitationTable table(2);
  util::Xoshiro256Rng rng(1);
  std::vector<uint64_t> counts = {3, 1};
  table.AddNoise(counts, rng);
  distributor.Publish(100, std::move(table));

  ASSERT_TRUE(distributor.HasRound(100));
  const auto& drop = distributor.Fetch(100, 0);
  EXPECT_EQ(drop.size(), 3u);
  EXPECT_EQ(distributor.bytes_served(), 3 * wire::kInvitationSize);
  EXPECT_EQ(distributor.downloads_served(), 1u);

  distributor.Fetch(100, 1);
  EXPECT_EQ(distributor.bytes_served(), 4 * wire::kInvitationSize);
}

TEST(InvitationDistributor, UnknownRoundThrows) {
  InvitationDistributor distributor;
  EXPECT_THROW(distributor.Fetch(1, 0), std::out_of_range);
}

TEST(InvitationDistributor, ExpiresOldRounds) {
  InvitationDistributor distributor;
  for (uint64_t r = 1; r <= 5; ++r) {
    distributor.Publish(r, deaddrop::InvitationTable(1));
  }
  distributor.Expire(/*keep_latest=*/2);
  EXPECT_FALSE(distributor.HasRound(1));
  EXPECT_FALSE(distributor.HasRound(3));
  EXPECT_TRUE(distributor.HasRound(4));
  EXPECT_TRUE(distributor.HasRound(5));
}

TEST(InvitationDistributor, ExpireKeepZeroDropsEverything) {
  InvitationDistributor distributor;
  distributor.Publish(1, deaddrop::InvitationTable(1));
  distributor.Publish(2, deaddrop::InvitationTable(1));
  distributor.Expire(/*keep_latest=*/0);
  EXPECT_FALSE(distributor.HasRound(1));
  EXPECT_FALSE(distributor.HasRound(2));
  // And the empty distributor tolerates further expiry.
  distributor.Expire(0);
  distributor.Expire(3);
}

TEST(InvitationDistributor, FetchAfterExpireThrows) {
  InvitationDistributor distributor;
  deaddrop::InvitationTable table(1);
  util::Xoshiro256Rng rng(7);
  std::vector<uint64_t> counts = {2};
  table.AddNoise(counts, rng);
  distributor.Publish(10, std::move(table));
  ASSERT_EQ(distributor.Fetch(10, 0).size(), 2u);
  distributor.Expire(0);
  EXPECT_THROW(distributor.Fetch(10, 0), std::out_of_range);
  // The failed fetch must not count as a served download.
  EXPECT_EQ(distributor.downloads_served(), 1u);
  EXPECT_EQ(distributor.bytes_served(), 2 * wire::kInvitationSize);
}

TEST(InvitationDistributor, PublishOverExistingRoundReplacesWithoutLeakingExpirySlot) {
  InvitationDistributor distributor;
  deaddrop::InvitationTable first(1);
  util::Xoshiro256Rng rng(8);
  std::vector<uint64_t> one = {1};
  first.AddNoise(one, rng);
  distributor.Publish(5, std::move(first));

  // Re-publishing the same round (the coordinator's retry path) replaces the
  // table...
  deaddrop::InvitationTable second(1);
  std::vector<uint64_t> three = {3};
  second.AddNoise(three, rng);
  distributor.Publish(5, std::move(second));
  EXPECT_EQ(distributor.Fetch(5, 0).size(), 3u);

  // ...without occupying a second expiry slot: after one more publish,
  // keeping the 2 newest publications must retain both rounds (a duplicate
  // slot for round 5 would evict it here).
  distributor.Publish(6, deaddrop::InvitationTable(1));
  distributor.Expire(/*keep_latest=*/2);
  EXPECT_TRUE(distributor.HasRound(5));
  EXPECT_TRUE(distributor.HasRound(6));

  // A re-publish also refreshes the round to the *newest* expiry slot — a
  // round recovered by the retry path must not expire off its first
  // attempt's stale position before its downloads run.
  deaddrop::InvitationTable again(1);
  std::vector<uint64_t> two = {2};
  again.AddNoise(two, rng);
  distributor.Publish(5, std::move(again));  // 5 re-published after 6
  distributor.Publish(7, deaddrop::InvitationTable(1));
  distributor.Expire(/*keep_latest=*/2);
  EXPECT_TRUE(distributor.HasRound(5));   // newest-but-one
  EXPECT_TRUE(distributor.HasRound(7));   // newest
  EXPECT_FALSE(distributor.HasRound(6));  // displaced by 5's refresh
  EXPECT_EQ(distributor.Fetch(5, 0).size(), 2u);
}

class KeyDirectoryTest : public ::testing::Test {
 protected:
  util::Xoshiro256Rng rng_{314};
  crypto::X25519PublicKey KeyOf(uint64_t seed) {
    util::Xoshiro256Rng rng(seed);
    return crypto::X25519KeyPair::Generate(rng).public_key;
  }
  KeyDirectory dir_;
};

TEST_F(KeyDirectoryTest, ForwardAndReverseLookup) {
  auto bob_key = KeyOf(1);
  ASSERT_TRUE(dir_.AddContact("bob", bob_key));
  EXPECT_EQ(dir_.Lookup("bob"), bob_key);
  EXPECT_EQ(dir_.IdentifyCaller(bob_key), "bob");
  EXPECT_EQ(dir_.size(), 1u);
}

TEST_F(KeyDirectoryTest, UnknownLookupsEmpty) {
  EXPECT_FALSE(dir_.Lookup("nobody").has_value());
  EXPECT_FALSE(dir_.IdentifyCaller(KeyOf(2)).has_value());
}

TEST_F(KeyDirectoryTest, KeyRotationReplacesBinding) {
  auto old_key = KeyOf(3);
  auto new_key = KeyOf(4);
  ASSERT_TRUE(dir_.AddContact("carol", old_key));
  ASSERT_TRUE(dir_.AddContact("carol", new_key));
  EXPECT_EQ(dir_.Lookup("carol"), new_key);
  // The old key no longer identifies carol — stale invitations sealed to the
  // rotated-away key are anonymous (forward-secrecy hygiene, §9).
  EXPECT_FALSE(dir_.IdentifyCaller(old_key).has_value());
  EXPECT_EQ(dir_.IdentifyCaller(new_key), "carol");
}

TEST_F(KeyDirectoryTest, RejectsAmbiguousKey) {
  auto key = KeyOf(5);
  ASSERT_TRUE(dir_.AddContact("dave", key));
  EXPECT_FALSE(dir_.AddContact("impostor", key));
  EXPECT_EQ(dir_.IdentifyCaller(key), "dave");
  EXPECT_FALSE(dir_.Lookup("impostor").has_value());
}

TEST_F(KeyDirectoryTest, RemoveContact) {
  auto key = KeyOf(6);
  dir_.AddContact("erin", key);
  EXPECT_TRUE(dir_.RemoveContact("erin"));
  EXPECT_FALSE(dir_.RemoveContact("erin"));
  EXPECT_FALSE(dir_.Lookup("erin").has_value());
  EXPECT_FALSE(dir_.IdentifyCaller(key).has_value());
}

TEST_F(KeyDirectoryTest, ContactNamesSorted) {
  dir_.AddContact("zoe", KeyOf(7));
  dir_.AddContact("abe", KeyOf(8));
  dir_.AddContact("mia", KeyOf(9));
  EXPECT_EQ(dir_.ContactNames(), (std::vector<std::string>{"abe", "mia", "zoe"}));
}

// --- Key-ceremony files (hopd/coordd --key-file / --key-dir) -----------------

TEST_F(KeyDirectoryTest, DirectoryFileRoundTrips) {
  dir_.AddContact("hop0", KeyOf(10));
  dir_.AddContact("hop1", KeyOf(11));
  dir_.AddContact("hop2", KeyOf(12));
  std::string path = ::testing::TempDir() + "vz_chain_roundtrip.pub";
  ASSERT_TRUE(dir_.SaveToFile(path));

  auto loaded = KeyDirectory::LoadFromFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->ChainLength(), 3u);
  auto chain = loaded->ChainPublicKeys(3);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ((*chain)[1], KeyOf(11));
  EXPECT_FALSE(loaded->ChainPublicKeys(4).has_value());  // hop3 missing
}

TEST_F(KeyDirectoryTest, LoadRejectsMalformedFiles) {
  std::string path = ::testing::TempDir() + "vz_chain_bad.pub";
  auto write = [&](const std::string& content) {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  };
  write("not-a-directory\nhop0 00\n");
  EXPECT_FALSE(KeyDirectory::LoadFromFile(path).has_value());  // bad magic
  write("vuvuzela-key-directory-v1\nhop0 zz\n");
  EXPECT_FALSE(KeyDirectory::LoadFromFile(path).has_value());  // bad hex
  write("vuvuzela-key-directory-v1\nhop0 " + util::HexEncode(KeyOf(1)) + " trailing\n");
  EXPECT_FALSE(KeyDirectory::LoadFromFile(path).has_value());  // trailing field
  // The same key under two names is as invalid on disk as via AddContact.
  std::string hex = util::HexEncode(KeyOf(1));
  write("vuvuzela-key-directory-v1\nhop0 " + hex + "\nhop1 " + hex + "\n");
  EXPECT_FALSE(KeyDirectory::LoadFromFile(path).has_value());
  EXPECT_FALSE(KeyDirectory::LoadFromFile(path + ".missing").has_value());
}

TEST(HopKeyFile, RoundTripsAndDerivesPublicKey) {
  util::Xoshiro256Rng rng(2718);
  HopKeyFile key;
  key.position = 2;
  key.key_pair = crypto::X25519KeyPair::Generate(rng);
  rng.Fill(key.noise_seed);
  std::string path = ::testing::TempDir() + "vz_hop2.key";
  ASSERT_TRUE(WriteHopKeyFile(path, key));

  auto loaded = ReadHopKeyFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->position, 2u);
  EXPECT_EQ(loaded->key_pair.secret_key, key.key_pair.secret_key);
  EXPECT_EQ(loaded->noise_seed, key.noise_seed);
  // The public half is recomputed from the secret, never read from disk.
  EXPECT_EQ(loaded->key_pair.public_key, key.key_pair.public_key);
}

TEST(HopKeyFile, RejectsTruncatedFiles) {
  std::string path = ::testing::TempDir() + "vz_hop_bad.key";
  std::ofstream(path, std::ios::trunc)
      << "vuvuzela-hop-key-v1\nposition 0\nsecret 00ff\n";  // short secret, no seed
  EXPECT_FALSE(ReadHopKeyFile(path).has_value());
  EXPECT_FALSE(ReadHopKeyFile(path + ".missing").has_value());
}

}  // namespace
}  // namespace vuvuzela::coord

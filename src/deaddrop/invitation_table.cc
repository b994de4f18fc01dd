#include "src/deaddrop/invitation_table.h"

#include <cstring>
#include <stdexcept>

#include "src/crypto/sha256.h"

namespace vuvuzela::deaddrop {

uint32_t InvitationDropForKey(const crypto::X25519PublicKey& pk, uint32_t num_drops) {
  if (num_drops == 0) {
    throw std::invalid_argument("InvitationDropForKey: num_drops must be positive");
  }
  crypto::Sha256Digest digest = crypto::Sha256::Hash(pk);
  uint64_t v = util::LoadBe64(digest.data());
  return static_cast<uint32_t>(v % num_drops);
}

InvitationTable::InvitationTable(uint32_t num_drops) : drops_(num_drops) {
  if (num_drops == 0) {
    throw std::invalid_argument("InvitationTable: num_drops must be positive");
  }
}

void InvitationTable::Add(uint32_t index, const wire::Invitation& invitation) {
  drops_[index % drops_.size()].push_back(invitation);
}

void InvitationTable::AddNoise(std::span<const uint64_t> counts, util::Rng& rng) {
  if (counts.size() != drops_.size()) {
    throw std::invalid_argument("AddNoise: counts size mismatch");
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    for (uint64_t j = 0; j < counts[i]; ++j) {
      wire::Invitation fake;
      rng.Fill(fake);
      drops_[i].push_back(fake);
    }
  }
}

const std::vector<wire::Invitation>& InvitationTable::Drop(uint32_t index) const {
  return drops_.at(index % drops_.size());
}

std::vector<uint64_t> InvitationTable::DropSizes() const {
  std::vector<uint64_t> sizes;
  sizes.reserve(drops_.size());
  for (const auto& d : drops_) {
    sizes.push_back(d.size());
  }
  return sizes;
}

uint64_t InvitationTable::DropBytes(uint32_t index) const {
  return Drop(index).size() * wire::kInvitationSize;
}

util::PackedItems PackDrops(const InvitationTable& table) {
  size_t total = 0;
  for (uint32_t i = 0; i < table.num_drops(); ++i) {
    total += table.DropBytes(i);
  }
  util::PackedItems packed;
  packed.bytes.resize(total);
  packed.items.reserve(table.num_drops());
  uint8_t* next = packed.bytes.data();
  for (uint32_t i = 0; i < table.num_drops(); ++i) {
    const std::vector<wire::Invitation>& drop = table.Drop(i);
    packed.items.emplace_back(next, drop.size() * wire::kInvitationSize);
    for (const wire::Invitation& invitation : drop) {
      std::memcpy(next, invitation.data(), invitation.size());
      next += invitation.size();
    }
  }
  return packed;
}

bool UnpackDrops(std::span<const util::ByteSpan> packed, InvitationTable& table,
                 uint32_t first_drop) {
  for (util::ByteSpan drop : packed) {
    if (drop.size() % wire::kInvitationSize != 0) {
      return false;
    }
  }
  for (size_t j = 0; j < packed.size(); ++j) {
    for (size_t offset = 0; offset < packed[j].size(); offset += wire::kInvitationSize) {
      wire::Invitation invitation;
      std::memcpy(invitation.data(), packed[j].data() + offset, wire::kInvitationSize);
      table.Add(first_drop + static_cast<uint32_t>(j), invitation);
    }
  }
  return true;
}

}  // namespace vuvuzela::deaddrop

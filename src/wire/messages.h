// Fixed-size protocol messages.
//
// ExchangeRequest is the innermost payload of a conversation onion
// (Algorithm 1 step 1): a 128-bit dead-drop ID plus a 256-byte sealed
// envelope. DialRequest is the innermost payload of a dialing onion (§5.2):
// an invitation dead-drop index plus an 80-byte sealed invitation. Both
// serialize to constant sizes — indistinguishability depends on it.

#ifndef VUVUZELA_SRC_WIRE_MESSAGES_H_
#define VUVUZELA_SRC_WIRE_MESSAGES_H_

#include <array>
#include <optional>

#include "src/util/bytes.h"
#include "src/wire/constants.h"

namespace vuvuzela::wire {

using Envelope = std::array<uint8_t, kEnvelopeSize>;
using Invitation = std::array<uint8_t, kInvitationSize>;

struct ExchangeRequest {
  DeadDropId dead_drop{};
  Envelope envelope{};

  util::Bytes Serialize() const;
  // Writes the same bytes into `out`, which must be kExchangeRequestSize.
  void SerializeInto(util::MutableByteSpan out) const;
  static std::optional<ExchangeRequest> Parse(util::ByteSpan data);
};

struct DialRequest {
  // Index of the invitation dead drop (H(pk) mod m, §5.1). The special no-op
  // drop used by idle clients is a regular index reserved by the round
  // configuration (§5.2).
  uint32_t dead_drop_index = 0;
  Invitation invitation{};

  util::Bytes Serialize() const;
  // Writes the same bytes into `out`, which must be kDialRequestSize.
  void SerializeInto(util::MutableByteSpan out) const;
  static std::optional<DialRequest> Parse(util::ByteSpan data);
};

// Round announcement broadcast by the first server (§3.1).
struct RoundAnnouncement {
  uint64_t round = 0;
  RoundType type = RoundType::kConversation;
  // Number of invitation dead drops for this dialing round (§5.4). Unused
  // for conversation rounds.
  uint32_t num_dial_dead_drops = 0;

  util::Bytes Serialize() const;
  static std::optional<RoundAnnouncement> Parse(util::ByteSpan data);
};

}  // namespace vuvuzela::wire

#endif  // VUVUZELA_SRC_WIRE_MESSAGES_H_

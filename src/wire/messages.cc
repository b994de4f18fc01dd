#include "src/wire/messages.h"

#include <cstring>

#include "src/wire/serde.h"

namespace vuvuzela::wire {

util::Bytes ExchangeRequest::Serialize() const {
  util::Bytes out(kExchangeRequestSize);
  SerializeInto(out);
  return out;
}

void ExchangeRequest::SerializeInto(util::MutableByteSpan out) const {
  std::memcpy(out.data(), dead_drop.data(), kDeadDropIdSize);
  std::memcpy(out.data() + kDeadDropIdSize, envelope.data(), kEnvelopeSize);
}

std::optional<ExchangeRequest> ExchangeRequest::Parse(util::ByteSpan data) {
  if (data.size() != kExchangeRequestSize) {
    return std::nullopt;
  }
  Reader r(data);
  ExchangeRequest req;
  auto id = r.Raw(kDeadDropIdSize);
  auto env = r.Raw(kEnvelopeSize);
  if (!id || !env) {
    return std::nullopt;
  }
  std::memcpy(req.dead_drop.data(), id->data(), kDeadDropIdSize);
  std::memcpy(req.envelope.data(), env->data(), kEnvelopeSize);
  return req;
}

util::Bytes DialRequest::Serialize() const {
  util::Bytes out(kDialRequestSize);
  SerializeInto(out);
  return out;
}

void DialRequest::SerializeInto(util::MutableByteSpan out) const {
  util::StoreBe32(out.data(), dead_drop_index);
  std::memcpy(out.data() + 4, invitation.data(), kInvitationSize);
}

std::optional<DialRequest> DialRequest::Parse(util::ByteSpan data) {
  if (data.size() != kDialRequestSize) {
    return std::nullopt;
  }
  Reader r(data);
  DialRequest req;
  auto idx = r.U32();
  auto inv = r.Raw(kInvitationSize);
  if (!idx || !inv) {
    return std::nullopt;
  }
  req.dead_drop_index = *idx;
  std::memcpy(req.invitation.data(), inv->data(), kInvitationSize);
  return req;
}

util::Bytes RoundAnnouncement::Serialize() const {
  Writer w(13);
  w.U64(round);
  w.U8(static_cast<uint8_t>(type));
  w.U32(num_dial_dead_drops);
  return w.Take();
}

std::optional<RoundAnnouncement> RoundAnnouncement::Parse(util::ByteSpan data) {
  Reader r(data);
  RoundAnnouncement ann;
  auto round = r.U64();
  auto type = r.U8();
  auto drops = r.U32();
  if (!round || !type || !drops || !r.AtEnd()) {
    return std::nullopt;
  }
  if (*type != static_cast<uint8_t>(RoundType::kConversation) &&
      *type != static_cast<uint8_t>(RoundType::kDialing)) {
    return std::nullopt;
  }
  ann.round = *round;
  ann.type = static_cast<RoundType>(*type);
  ann.num_dial_dead_drops = *drops;
  return ann;
}

}  // namespace vuvuzela::wire

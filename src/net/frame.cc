#include "src/net/frame.h"

#include "src/wire/serde.h"

namespace vuvuzela::net {

namespace {

bool ValidType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kRoundAnnouncement) &&
         type <= static_cast<uint8_t>(FrameType::kInvitationPublish);
}

}  // namespace

std::array<uint8_t, kFrameHeaderBytes> EncodeFrameHeader(const FrameHeader& header) {
  std::array<uint8_t, kFrameHeaderBytes> out;
  out[0] = static_cast<uint8_t>(header.type);
  util::StoreBe64(out.data() + 1, header.round);
  util::StoreBe32(out.data() + 9, header.payload_len);
  return out;
}

std::optional<FrameHeader> DecodeFrameHeader(util::ByteSpan data) {
  wire::Reader r(data);
  auto type = r.U8();
  auto round = r.U64();
  auto len = r.U32();
  if (!type || !round || !len || !ValidType(*type) || *len > kMaxFramePayload) {
    return std::nullopt;
  }
  return FrameHeader{static_cast<FrameType>(*type), *round, *len};
}

util::Bytes EncodeFrame(const Frame& frame) {
  auto header = EncodeFrameHeader(
      {frame.type, frame.round, static_cast<uint32_t>(frame.payload.size())});
  util::Bytes out(header.begin(), header.end());
  util::Append(out, frame.payload);
  return out;
}

std::optional<Frame> DecodeFrame(util::ByteSpan data) {
  auto header = DecodeFrameHeader(data);
  if (!header || data.size() - kFrameHeaderBytes != header->payload_len) {
    return std::nullopt;
  }
  auto payload = data.subspan(kFrameHeaderBytes);
  return Frame{header->type, header->round, util::Bytes(payload.begin(), payload.end())};
}

}  // namespace vuvuzela::net

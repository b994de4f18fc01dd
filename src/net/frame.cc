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

util::Bytes EncodeBatch(const std::vector<util::Bytes>& items) {
  size_t total = 4;
  for (const auto& item : items) {
    total += 4 + item.size();
  }
  wire::Writer w(total);
  w.U32(static_cast<uint32_t>(items.size()));
  for (const auto& item : items) {
    w.Var(item);
  }
  return w.Take();
}

std::optional<std::vector<util::Bytes>> DecodeBatch(util::ByteSpan payload) {
  wire::Reader r(payload);
  auto count = r.U32();
  if (!count) {
    return std::nullopt;
  }
  std::vector<util::Bytes> items;
  items.reserve(std::min<uint32_t>(*count, 1u << 20));
  for (uint32_t i = 0; i < *count; ++i) {
    auto item = r.Var();
    if (!item) {
      return std::nullopt;
    }
    items.emplace_back(item->begin(), item->end());
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return items;
}

}  // namespace vuvuzela::net

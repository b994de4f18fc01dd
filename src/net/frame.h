// RPC framing for networked deployments.
//
// Every message between clients, the entry server, and chain servers is a
// typed frame: [u8 type][u64 round][u32 payload_len][payload]. Fixed header,
// length-prefixed body, hard size cap against adversarial peers.

#ifndef VUVUZELA_SRC_NET_FRAME_H_
#define VUVUZELA_SRC_NET_FRAME_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/util/bytes.h"

namespace vuvuzela::net {

enum class FrameType : uint8_t {
  kRoundAnnouncement = 1,
  kConversationRequest = 2,
  kConversationResponse = 3,
  kDialRequest = 4,
  kDialAck = 5,
  kInvitationFetch = 6,   // a chunked batch message, like kInvitationPublish below
  kInvitationDrop = 7,    // reserved: the retired coordinator bucket-fetch reply
  kBatch = 8,             // reserved: the retired single-frame batch codec
  kBatchResponse = 9,     // reserved, as kBatch
  kShutdown = 10,
  // Hop RPC (transport::ReconnectingTransport ↔ transport::HopDaemon). Each op is a
  // chunked batch message (transport/hop_wire.h): a first frame of the op
  // type followed by zero or more kBatchChunk continuations, so one logical
  // batch can exceed kMaxFramePayload while each frame stays bounded.
  kBatchChunk = 11,
  kHopForwardConversation = 12,
  kHopBackwardConversation = 13,
  kHopLastConversation = 14,
  kHopForwardDialing = 15,
  kHopLastDialing = 16,
  kHopError = 17,  // payload: error text from the hop daemon
  // Exchange-partition RPC (transport::ExchangeRouter ↔ vuvuzela-exchanged).
  // The last hop splits a round's dead-drop exchange by ID prefix across
  // shard-server processes; both ops are chunked batch messages like the hop
  // RPCs above.
  kExchangeConversation = 18,
  kExchangeDialing = 19,
  // Invitation-distribution RPC (coordinator/clients ↔ vuvuzela-distd, §5.5).
  // The coordinator pushes each dialing round's invitation-table slice to the
  // dist shard owning it (kInvitationPublish); clients download their bucket
  // with kInvitationFetch. Both are chunked batch messages.
  kInvitationPublish = 20,
};

struct Frame {
  FrameType type = FrameType::kShutdown;
  uint64_t round = 0;
  util::Bytes payload;
};

inline constexpr size_t kFrameHeaderBytes = 1 + 8 + 4;
// Cap on a single frame body. A 2M-user batch exceeds this; batches are
// split by the senders. 256 MB covers every per-round unit we ship.
inline constexpr size_t kMaxFramePayload = 256u << 20;

// The fixed part of a frame, handled on its own by the stream senders and
// receivers (net::TcpConnection), which move payloads without staging a
// contiguous [header][payload] copy.
struct FrameHeader {
  FrameType type = FrameType::kShutdown;
  uint64_t round = 0;
  uint32_t payload_len = 0;
};

std::array<uint8_t, kFrameHeaderBytes> EncodeFrameHeader(const FrameHeader& header);

// Decodes the first kFrameHeaderBytes of `data`; nullopt on truncation, bad
// type, or a payload length over kMaxFramePayload.
std::optional<FrameHeader> DecodeFrameHeader(util::ByteSpan data);

util::Bytes EncodeFrame(const Frame& frame);

// Decodes a complete frame; nullopt on truncation, trailing bytes, bad type,
// or an oversized length.
std::optional<Frame> DecodeFrame(util::ByteSpan data);

}  // namespace vuvuzela::net

#endif  // VUVUZELA_SRC_NET_FRAME_H_

// Wire encoding for the hop RPC protocol (transport/hop_transport.h).
//
// Every hop RPC — a mix pass request or its response — is a *batch message*:
// an op (net::FrameType), a round number, a small op-specific header, and a
// list of fixed-size items (onions, responses, or invitation drops). A paper
// scale batch (2.2M requests × 416 bytes ≈ 900 MB) exceeds
// net::kMaxFramePayload, so a batch message is chunked: the first frame
// carries the op type, the header, and a first slice of items; continuation
// frames (net::FrameType::kBatchChunk) carry further slices; a flag bit marks
// the last chunk. Items never straddle chunks, so the receiver decodes each
// chunk as it arrives and never concatenates chunk payloads: every frame
// buffer is bounded by the chunk budget (BatchAssembler keeps the measured
// bound for tests), and the decoded items are views into those buffers.
//
// Copies per direction: the sender gathers each chunk straight from its item
// buffers into the socket (SendBatchMessage), and the receiver reads each
// chunk payload in place and adopts it whole (ReadBatchMessage), so item
// bytes cross user space without a staging copy on either side. A hop then
// peels each onion inside the chunk it arrived in (BatchMessage::
// MutableItems) and sends the peeled onions from there, so a forward hop or
// the last hop holds one batch — the received chunks plus a small batch of
// its own items — instead of the chunks plus a peeled copy (at 2.2M requests
// that copy would be about 0.8 GB a hop).
//
// Chunk payload layout:
//   first frame  (type = op):          [u8 flags][u32 header_len][header]
//                                      [u32 item_count][u32 len ‖ item]...
//   continuation (type = kBatchChunk): [u8 flags][u32 item_count]
//                                      [u32 len ‖ item]...
//   flags bit 0: this is the final chunk of the message.

#ifndef VUVUZELA_SRC_TRANSPORT_HOP_WIRE_H_
#define VUVUZELA_SRC_TRANSPORT_HOP_WIRE_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/deaddrop/conversation_table.h"
#include "src/mixnet/mix_server.h"
#include "src/net/frame.h"
#include "src/net/tcp.h"
#include "src/util/batch.h"
#include "src/wire/serde.h"

namespace vuvuzela::transport {

// Default per-chunk payload target. Small enough that a paper-scale batch
// streams hop-to-hop in bounded memory, large enough to amortize syscalls.
inline constexpr size_t kDefaultChunkPayload = 8u << 20;

// Ceiling on one reassembled batch message (sum of item bytes). Chunking
// removes the per-frame cap, so without this a peer could stream final-flag-
// less continuations until the receiver OOMs. 4 GB clears a paper-scale
// conversation batch (2.2M requests ≈ 1 GB) with headroom.
inline constexpr size_t kMaxBatchMessageBytes = 4ull << 30;

// One decoded hop RPC message.
//
// Decoding copies no item. Each chunk's wire payload is adopted whole into
// `chunks`, and `items` holds one span per item pointing into those buffers,
// so a hop's pass input goes straight from the received chunks to
// MixServer's passes, which work on views. The spans stay valid across moves
// of the whole message (moving a vector keeps its heap buffers, and so does
// moving `chunks` out) and die with the chunks. A caller that keeps items
// past the message takes CopyItems(). Copying the message is disabled: a
// copy's spans would still point into the original's chunks.
struct BatchMessage {
  net::FrameType op = net::FrameType::kHopError;
  uint64_t round = 0;
  util::Bytes header;
  std::vector<util::ByteSpan> items;
  std::vector<util::Bytes> chunks;
  // True on-the-wire size of the message as received: every chunk's payload
  // plus its frame header and length prefix. This is what bandwidth
  // accounting (§8.3) must charge — item payloads alone undercount by the
  // framing overhead.
  uint64_t wire_bytes = 0;

  BatchMessage() = default;
  BatchMessage(BatchMessage&&) = default;
  BatchMessage& operator=(BatchMessage&&) = default;
  BatchMessage(const BatchMessage&) = delete;
  BatchMessage& operator=(const BatchMessage&) = delete;

  // Owned copies of the items, for interfaces that hand out byte vectors
  // (the HopTransport seam).
  std::vector<util::Bytes> CopyItems() const;
  // Writable views of the items, for a pass that works inside the received
  // chunks (the hop daemon's in-place peel). They write the message's own
  // bytes, which `items` then view.
  std::vector<util::MutableByteSpan> MutableItems();
};

// Splits a batch message into frames, none of whose payloads exceed
// `max_chunk_payload`. Fails (nullopt) only if the header or a single item
// cannot fit into one chunk. For senders that need whole frames (the event
// loop's queued writes, tests); SendBatchMessage streams the same bytes
// without building them.
std::optional<std::vector<net::Frame>> EncodeBatchChunks(
    net::FrameType op, uint64_t round, util::ByteSpan header,
    std::span<const util::ByteSpan> items, size_t max_chunk_payload = kDefaultChunkPayload);

// Streaming reassembly of one batch message from its chunk frames. Feed
// frames in arrival order; the assembler validates op/round consistency and
// per-chunk structure, decoding items incrementally (it never concatenates
// chunk payloads).
class BatchAssembler {
 public:
  enum class Status { kNeedMore, kDone, kError };

  explicit BatchAssembler(size_t max_message_bytes = kMaxBatchMessageBytes)
      : max_message_bytes_(max_message_bytes) {}

  // Adopts the frame's payload into the message; its items become views of
  // it. The receive paths move every frame in, so no item byte is copied.
  Status Consume(net::Frame&& frame);
  // Copies the payload first, for callers that keep their frame.
  Status Consume(const net::Frame& frame);

  // Valid once Consume returned kDone.
  BatchMessage Take();

  // Largest single frame payload held while assembling — the streaming-decode
  // memory bound (independent of total batch size).
  size_t peak_frame_bytes() const { return peak_frame_bytes_; }
  const std::string& error() const { return error_; }

 private:
  Status Fail(const std::string& message);

  BatchMessage message_;
  size_t max_message_bytes_;
  size_t total_item_bytes_ = 0;
  bool started_ = false;
  bool done_ = false;
  size_t peak_frame_bytes_ = 0;
  std::string error_;
};

// Sends one batch message over `conn`, one chunk frame at a time. Each frame
// is gathered by the kernel straight from `items` (TcpConnection::
// SendFrameParts): only the small chunk head and the per-item length
// prefixes are built, so the item bytes are copied once, into the socket.
// `items` are views, so one sender serves every item store: a pass's
// util::Batch (Views()), a kept reply (util::PackedItems), byte vectors
// (util::ViewsOf), or envelopes viewed in place.
bool SendBatchMessage(net::TcpConnection& conn, net::FrameType op, uint64_t round,
                      util::ByteSpan header, std::span<const util::ByteSpan> items,
                      size_t max_chunk_payload = kDefaultChunkPayload);

// Reassembles the batch message whose first frame the caller already read.
// nullopt on I/O failure or malformed chunking (conn.last_recv_status()
// distinguishes timeout from EOF on the I/O side). Every chunk is received in
// place and adopted whole, so the item bytes are copied once, out of the
// socket.
std::optional<BatchMessage> ReadBatchMessage(net::TcpConnection& conn, net::Frame first);

// One batch-message request/response over an established connection — the
// RPC core of PeerLink::Call (peer_link.h), its one caller, which every hop
// and shard-fleet link goes through. The failure mapping:
// HopTimeoutError when the receive deadline elapses, HopRemoteError when the
// peer answered with a kHopError report (framing intact, connection left
// open — a re-send would fail the same way), HopError for any other wire
// failure (send/receive error, unexpected type, round mismatch). On every
// throw except HopRemoteError the connection has been Close()d first: the
// RPC may have died mid-stream, so its framing can no longer be trusted.
// `peer_label` prefixes error messages (e.g. "dist shard 127.0.0.1:7361").
// PeerLink owns connection setup, locking and the reconnect policy.
BatchMessage CallBatchRpc(net::TcpConnection& conn, const std::string& peer_label,
                          net::FrameType op, uint64_t round, util::ByteSpan header,
                          std::span<const util::ByteSpan> items,
                          size_t max_chunk_payload = kDefaultChunkPayload);

// Answers a request with a kHopError report; false if the send failed.
bool SendRpcError(net::TcpConnection& conn, uint64_t round, const std::string& message);

// The serve loop of the hop and exchange-partition daemons: connections one
// at a time, the batch-message requests on each in arrival order. An idle
// wait between requests wakes every kIdlePollMs to honor Stop(); once a
// request has started, its chunks are awaited untimed (a stalled caller
// mid-batch stalls only its own connection; EOF still ends it). A frame of
// an op the daemon does not serve, or malformed chunk content, is answered
// with a kHopError report and the connection kept; a kShutdown frame ends
// Serve().
class BatchRpcServer {
 public:
  struct Handlers {
    // The request ops the daemon serves.
    std::function<bool(net::FrameType)> serves;
    // Optional: called with a served request's op and round once the header
    // of its first frame has arrived, before that frame's payload is
    // allocated.
    std::function<void(net::FrameType, uint64_t)> on_request_header;
    // Runs one request and sends its reply; false once the connection failed.
    std::function<bool(net::TcpConnection&, BatchMessage)> dispatch;
  };

  static constexpr int kIdlePollMs = 500;

  BatchRpcServer(net::TcpListener listener, Handlers handlers)
      : listener_(std::move(listener)), handlers_(std::move(handlers)) {}

  uint16_t port() const { return listener_.port(); }

  // Serves connections until a kShutdown frame arrives or Stop() is called.
  void Serve();

  // Unblocks Serve() from another thread, interrupting an active connection:
  // a serve loop busy under continuous traffic would otherwise only notice
  // the stop flag at an idle poll tick — never.
  void Stop();

 private:
  // Returns false once the server should stop serving entirely.
  bool ServeConnection(net::TcpConnection& conn);

  net::TcpListener listener_;
  Handlers handlers_;
  std::atomic<bool> stop_{false};
  // The connection being served, so Stop() can interrupt it
  // (TcpConnection::Shutdown is the one member safe to call concurrently
  // with a blocked RecvFrame).
  std::mutex active_conn_mutex_;
  net::TcpConnection* active_conn_ = nullptr;
};

// --- Op-specific header encoding -------------------------------------------

// Per-pass server counters: prefix of every hop RPC response header.
void WriteStats(wire::Writer& w, const mixnet::ServerRoundStats& stats);
std::optional<mixnet::ServerRoundStats> ReadStats(wire::Reader& r);

// kHopLastConversation / kExchangeConversation response header tail: the
// round's observable variables plus the exchange count.
void WriteHistogram(wire::Writer& w, const deaddrop::AccessHistogram& histogram,
                    uint64_t messages_exchanged);

struct HistogramHeader {
  deaddrop::AccessHistogram histogram;
  uint64_t messages_exchanged = 0;
};
std::optional<HistogramHeader> ReadHistogram(wire::Reader& r);

// --- Exchange-partition messages (ExchangeRouter ↔ vuvuzela-exchanged) ------
//
// The router splits the last hop's exchange by dead-drop placement
// (deaddrop::ShardOfDeadDrop / ShardOfInvitationDrop) and ships each shard's
// slice as one chunked batch message. Every request names the partition map
// it was routed under (shard_index of num_shards); a shard server rejects a
// request for a map it does not serve, so a misconfigured or malicious router
// cannot silently split one drop's accesses across two tables.

// kExchangeConversation request header. Items: serialized ExchangeRequests
// owned by the shard, in round-batch order. Response: header = histogram
// (WriteHistogram), items = the pairing (EncodePartnerIndices): one
// slice-local u32 partner index per request, aligned. The envelopes never
// travel back — the last hop already holds them. Before it maps the indices
// back to the round batch, the router checks the reply is a valid pairing of
// the slice it sent: every index in range, partner[partner[i]] == i, paired
// requests carrying equal dead-drop IDs, and messages_exchanged equal to the
// number of paired requests. Any other answer fails the round.
struct ExchangeConversationHeader {
  uint32_t shard_index = 0;
  uint32_t num_shards = 0;
};
util::Bytes EncodeExchangeConversationHeader(const ExchangeConversationHeader& header);
// Rejects truncation, trailing bytes, zero shards, and out-of-range indices.
std::optional<ExchangeConversationHeader> ParseExchangeConversationHeader(util::ByteSpan data);

// The partner indices of a kExchangeConversation response as items: each a
// run of big-endian u32s, at most kPartnerIndicesPerItem per item, so no
// index pays an item's length prefix and every item fits well inside a
// chunk.
inline constexpr size_t kPartnerIndicesPerItem = 16384;
util::PackedItems EncodePartnerIndices(std::span<const uint32_t> partner);
// nullopt unless `items` hold exactly `count` whole indices.
std::optional<std::vector<uint32_t>> DecodePartnerIndices(std::span<const util::ByteSpan> items,
                                                          size_t count);

// kExchangeDialing request header. Items: serialized DialRequests (real
// deposits in round order, then the last server's pre-generated noise), every
// index already reduced mod num_drops and owned by the shard. Response:
// empty header, items = one packed drop (concatenated invitations) per owned
// drop index, in increasing drop order.
struct ExchangeDialingHeader {
  uint32_t shard_index = 0;
  uint32_t num_shards = 0;
  uint32_t num_drops = 0;
};
util::Bytes EncodeExchangeDialingHeader(const ExchangeDialingHeader& header);
std::optional<ExchangeDialingHeader> ParseExchangeDialingHeader(util::ByteSpan data);

// --- Invitation-distribution messages (DistRouter/clients ↔ vuvuzela-distd) -
//
// The coordinator's DistRouter slices each dialing round's invitation table
// into contiguous bucket ranges (deaddrop::InvitationDropsOfShard, the same
// map the exchange partitions use) and pushes each slice to the dist shard
// owning it; clients download whole buckets from the owning shard. As with
// the exchange ops, every request names the partition map it was routed
// under, so a misconfigured router or client cannot silently split one
// bucket across two shards.

// kInvitationPublish request header. Items: one serialized wire::DialRequest
// per invitation of the slice (drop index + invitation bytes — an invitation
// with its bucket address *is* a DialRequest), in per-bucket deposit order.
// `keep_latest` piggybacks the coordinator's expiry horizon: after storing
// the round, the shard drops all but its newest `keep_latest` publications.
// Response: same op, empty header, zero items (the ack the router's publish
// barrier waits on).
struct InvitationPublishHeader {
  uint32_t shard_index = 0;
  uint32_t num_shards = 0;
  uint32_t num_drops = 0;
  uint32_t keep_latest = 0;
};
util::Bytes EncodeInvitationPublishHeader(const InvitationPublishHeader& header);
std::optional<InvitationPublishHeader> ParseInvitationPublishHeader(util::ByteSpan data);

// The kHopError report a dist shard answers a fetch for a round it does not
// hold (never published, expired, or lost to a restart). One constant, used
// by the daemon when replying and by DistRouter when translating the report
// into the DistributionBackend contract's std::out_of_range — a reworded
// message on either side would silently break that translation.
inline constexpr const char* kDistUnknownRoundError = "unknown round";

// kInvitationFetch request header (bucketed download, §5.5). Zero items.
// Response: same op, empty header, one item per invitation of the bucket
// (each exactly wire::kInvitationSize), in published order — so a fetched
// bucket is byte-identical to the in-process distributor's copy.
struct InvitationFetchHeader {
  uint32_t shard_index = 0;
  uint32_t num_shards = 0;
  uint32_t num_drops = 0;
  uint32_t drop_index = 0;
};
util::Bytes EncodeInvitationFetchHeader(const InvitationFetchHeader& header);
std::optional<InvitationFetchHeader> ParseInvitationFetchHeader(util::ByteSpan data);

// Decodes a fetch response's items into the bucket (one invitation per item)
// — shared by DistRouter::Fetch and client::DialingFetcher so the wire shape
// cannot drift between them. nullopt if any item is not exactly
// wire::kInvitationSize.
std::optional<std::vector<wire::Invitation>> DecodeInvitationItems(
    std::span<const util::ByteSpan> items);

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_HOP_WIRE_H_

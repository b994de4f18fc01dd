#include "src/transport/hop_wire.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/transport/hop_transport.h"

namespace vuvuzela::transport {

namespace {

constexpr size_t kFirstChunkFixedOverhead = 1 + 4 + 4;  // flags + header_len + item_count
constexpr size_t kContinuationOverhead = 1 + 4;         // flags + item_count

// Greedily packs items into chunks of at most `max_chunk_payload` payload
// bytes (items never straddle chunks) and hands each chunk to `emit` as its
// frame type plus its payload in wire order: the chunk head, then every
// item's length prefix and bytes. The item pieces alias `items`; only the
// head and the prefixes are built.
bool ForEachChunk(
    net::FrameType op, util::ByteSpan header, std::span<const util::ByteSpan> items,
    size_t max_chunk_payload,
    const std::function<bool(net::FrameType, std::span<const util::ByteSpan>)>& emit) {
  if (op == net::FrameType::kBatchChunk || max_chunk_payload > net::kMaxFramePayload) {
    return false;
  }
  if (kFirstChunkFixedOverhead + header.size() > max_chunk_payload) {
    return false;
  }
  std::vector<util::ByteSpan> pieces;
  util::Bytes prefixes;
  size_t next = 0;
  bool first = true;
  do {
    size_t used = first ? kFirstChunkFixedOverhead + header.size() : kContinuationOverhead;
    size_t begin = next;
    while (next < items.size() && used + 4 + items[next].size() <= max_chunk_payload) {
      used += 4 + items[next].size();
      ++next;
    }
    if (next == begin && next < items.size()) {
      return false;  // a single item exceeds the chunk budget
    }
    wire::Writer head(kFirstChunkFixedOverhead + (first ? header.size() : 0));
    head.U8(next == items.size() ? 1 : 0);
    if (first) {
      head.U32(static_cast<uint32_t>(header.size()));
      head.Raw(header);
    }
    head.U32(static_cast<uint32_t>(next - begin));
    util::Bytes head_bytes = head.Take();
    prefixes.resize(4 * (next - begin));
    pieces.clear();
    pieces.reserve(1 + 2 * (next - begin));
    pieces.push_back(head_bytes);
    for (size_t i = begin; i < next; ++i) {
      uint8_t* prefix = prefixes.data() + 4 * (i - begin);
      util::StoreBe32(prefix, static_cast<uint32_t>(items[i].size()));
      pieces.push_back(util::ByteSpan(prefix, 4));
      pieces.push_back(items[i]);
    }
    if (!emit(first ? op : net::FrameType::kBatchChunk, pieces)) {
      return false;
    }
    first = false;
  } while (next < items.size());
  return true;
}

}  // namespace

std::vector<util::Bytes> BatchMessage::CopyItems() const {
  std::vector<util::Bytes> copies;
  copies.reserve(items.size());
  for (util::ByteSpan item : items) {
    copies.emplace_back(item.begin(), item.end());
  }
  return copies;
}

std::vector<util::MutableByteSpan> BatchMessage::MutableItems() {
  // `items` are read-only views into `chunks`, which this message owns as
  // writable buffers, so dropping the const writes the message's own bytes.
  std::vector<util::MutableByteSpan> views;
  views.reserve(items.size());
  for (util::ByteSpan item : items) {
    views.emplace_back(const_cast<uint8_t*>(item.data()), item.size());
  }
  return views;
}

std::optional<std::vector<net::Frame>> EncodeBatchChunks(net::FrameType op, uint64_t round,
                                                         util::ByteSpan header,
                                                         std::span<const util::ByteSpan> items,
                                                         size_t max_chunk_payload) {
  std::vector<net::Frame> frames;
  auto join = [&](net::FrameType type, std::span<const util::ByteSpan> pieces) {
    net::Frame& frame = frames.emplace_back(net::Frame{type, round, {}});
    for (util::ByteSpan piece : pieces) {
      util::Append(frame.payload, piece);
    }
    return true;
  };
  if (!ForEachChunk(op, header, items, max_chunk_payload, join)) {
    return std::nullopt;
  }
  return frames;
}

BatchAssembler::Status BatchAssembler::Fail(const std::string& message) {
  error_ = message;
  return Status::kError;
}

BatchAssembler::Status BatchAssembler::Consume(const net::Frame& frame) {
  net::Frame copy = frame;
  return Consume(std::move(copy));
}

BatchAssembler::Status BatchAssembler::Consume(net::Frame&& frame) {
  if (done_) {
    return Fail("chunk after final chunk");
  }
  // Adopt the wire buffer; the item views parsed below point into it. An
  // adopted chunk that then fails to parse just rides along in the dead
  // assembler.
  message_.chunks.push_back(std::move(frame.payload));
  util::ByteSpan payload = message_.chunks.back();
  peak_frame_bytes_ = std::max(peak_frame_bytes_, payload.size());
  // Each chunk travels as [u32 len][frame header][payload]; charge all of it.
  message_.wire_bytes += 4 + net::kFrameHeaderBytes + payload.size();
  wire::Reader r(payload);
  auto flags = r.U8();
  if (!flags || *flags > 1) {
    return Fail("bad chunk flags");
  }
  if (!started_) {
    if (frame.type == net::FrameType::kBatchChunk) {
      return Fail("continuation chunk before first frame");
    }
    message_.op = frame.type;
    message_.round = frame.round;
    auto header = r.Var();
    if (!header) {
      return Fail("truncated header");
    }
    message_.header.assign(header->begin(), header->end());
    started_ = true;
  } else {
    if (frame.type != net::FrameType::kBatchChunk) {
      return Fail("expected continuation chunk");
    }
    if (frame.round != message_.round) {
      return Fail("chunk round mismatch");
    }
  }
  auto count = r.U32();
  if (!count) {
    return Fail("truncated item count");
  }
  // Size the views for the whole chunk at once, but only for as many items
  // as the rest of the payload can frame (each needs a 4-byte length), so a
  // forged count cannot force a large reservation. Growth across chunks
  // stays geometric, so a many-chunk message is not copied once per chunk.
  size_t needed = message_.items.size() + std::min<size_t>(*count, r.remaining() / 4);
  if (needed > message_.items.capacity()) {
    message_.items.reserve(std::max(needed, 2 * message_.items.capacity()));
  }
  for (uint32_t i = 0; i < *count; ++i) {
    auto item = r.Var();
    if (!item) {
      return Fail("truncated item");
    }
    total_item_bytes_ += 4 + item->size();  // count encoding overhead too
    if (total_item_bytes_ > max_message_bytes_) {
      return Fail("batch message exceeds size ceiling");
    }
    message_.items.push_back(*item);
  }
  if (!r.AtEnd()) {
    return Fail("trailing bytes in chunk");
  }
  if (*flags & 1) {
    done_ = true;
    return Status::kDone;
  }
  return Status::kNeedMore;
}

BatchMessage BatchAssembler::Take() { return std::move(message_); }

bool SendBatchMessage(net::TcpConnection& conn, net::FrameType op, uint64_t round,
                      util::ByteSpan header, std::span<const util::ByteSpan> items,
                      size_t max_chunk_payload) {
  return ForEachChunk(op, header, items, max_chunk_payload,
                      [&](net::FrameType type, std::span<const util::ByteSpan> pieces) {
                        return conn.SendFrameParts(type, round, pieces);
                      });
}

std::optional<BatchMessage> ReadBatchMessage(net::TcpConnection& conn, net::Frame first) {
  BatchAssembler assembler;
  BatchAssembler::Status status = assembler.Consume(std::move(first));
  while (status == BatchAssembler::Status::kNeedMore) {
    auto frame = conn.RecvFrame();
    if (!frame) {
      return std::nullopt;
    }
    status = assembler.Consume(std::move(*frame));
  }
  if (status != BatchAssembler::Status::kDone) {
    return std::nullopt;
  }
  return assembler.Take();
}

bool SendRpcError(net::TcpConnection& conn, uint64_t round, const std::string& message) {
  return conn.SendFrame(
      net::Frame{net::FrameType::kHopError, round, util::Bytes(message.begin(), message.end())});
}

void BatchRpcServer::Serve() {
  while (!stop_.load()) {
    auto conn = listener_.Accept();
    if (!conn) {
      return;  // listener closed (Stop) or unrecoverable accept error
    }
    {
      std::lock_guard<std::mutex> lock(active_conn_mutex_);
      active_conn_ = &*conn;
      if (stop_.load()) {
        // Stop() may have run between Accept() returning and this
        // registration; it could not see the connection, so cut it here.
        active_conn_->Shutdown();
      }
    }
    bool keep_serving = ServeConnection(*conn);
    {
      std::lock_guard<std::mutex> lock(active_conn_mutex_);
      active_conn_ = nullptr;
    }
    if (!keep_serving) {
      return;  // orderly kShutdown
    }
  }
}

void BatchRpcServer::Stop() {
  stop_.store(true);
  // Shutdown (not Close) is safe against a Serve thread blocked in Accept;
  // the descriptor is released when the server is destroyed, after the
  // owner joins that thread.
  listener_.Shutdown();
  std::lock_guard<std::mutex> lock(active_conn_mutex_);
  if (active_conn_ != nullptr) {
    active_conn_->Shutdown();
  }
}

bool BatchRpcServer::ServeConnection(net::TcpConnection& conn) {
  auto on_header = [this](net::FrameType op, uint64_t round) {
    if (handlers_.on_request_header && handlers_.serves(op)) {
      handlers_.on_request_header(op, round);
    }
  };
  conn.SetRecvTimeout(kIdlePollMs);
  for (;;) {
    auto frame = conn.RecvFrame(on_header);
    if (!frame) {
      if (conn.last_recv_status() == net::RecvStatus::kTimeout) {
        // Idle poll tick: keep waiting unless Stop() was requested.
        if (stop_.load()) {
          return false;
        }
        continue;
      }
      return true;  // caller gone or garbage framing; await a reconnect
    }
    if (frame->type == net::FrameType::kShutdown) {
      stop_.store(true);
      return false;
    }
    if (!handlers_.serves(frame->type)) {
      if (!SendRpcError(conn, frame->round, "unsupported op")) {
        return true;
      }
      continue;
    }
    // The poll deadline is for idle waits between requests only.
    conn.SetRecvTimeout(0);
    // The request's items are views straight into the received chunks.
    auto request = ReadBatchMessage(conn, std::move(*frame));
    conn.SetRecvTimeout(kIdlePollMs);
    if (!request) {
      if (conn.last_recv_status() != net::RecvStatus::kOk) {
        return true;  // the connection itself failed mid-batch
      }
      // Chunk content was malformed but framing stayed aligned: report and
      // keep serving.
      if (!SendRpcError(conn, 0, "malformed batch message")) {
        return true;
      }
      continue;
    }
    if (!handlers_.dispatch(conn, std::move(*request))) {
      return true;
    }
  }
}

void WriteStats(wire::Writer& w, const mixnet::ServerRoundStats& stats) {
  w.U64(stats.requests_in);
  w.U64(stats.requests_dropped);
  w.U64(stats.noise_requests_added);
  w.U64(stats.bytes_in);
  w.U64(stats.bytes_out);
  w.U64(stats.dh_ops);
}

std::optional<mixnet::ServerRoundStats> ReadStats(wire::Reader& r) {
  mixnet::ServerRoundStats stats;
  auto requests_in = r.U64();
  auto dropped = r.U64();
  auto noise = r.U64();
  auto bytes_in = r.U64();
  auto bytes_out = r.U64();
  auto dh_ops = r.U64();
  if (!dh_ops) {
    return std::nullopt;
  }
  stats.requests_in = *requests_in;
  stats.requests_dropped = *dropped;
  stats.noise_requests_added = *noise;
  stats.bytes_in = *bytes_in;
  stats.bytes_out = *bytes_out;
  stats.dh_ops = *dh_ops;
  return stats;
}

void WriteHistogram(wire::Writer& w, const deaddrop::AccessHistogram& histogram,
                    uint64_t messages_exchanged) {
  w.U64(histogram.singles);
  w.U64(histogram.pairs);
  w.U64(histogram.crowded);
  w.U64(messages_exchanged);
}

std::optional<HistogramHeader> ReadHistogram(wire::Reader& r) {
  auto singles = r.U64();
  auto pairs = r.U64();
  auto crowded = r.U64();
  auto exchanged = r.U64();
  if (!exchanged) {
    return std::nullopt;
  }
  HistogramHeader header;
  header.histogram = {*singles, *pairs, *crowded};
  header.messages_exchanged = *exchanged;
  return header;
}

namespace {

[[noreturn]] void FailRpc(net::TcpConnection& conn, const std::string& peer_label,
                          const std::string& what) {
  conn.Close();
  throw HopError(peer_label + ": " + what);
}

// Counts the RPC failed and lands an rpc/error span unless Disarm()ed — the
// exception paths out of CallBatchRpc all unwind through here.
class RpcFailureScope {
 public:
  RpcFailureScope(obs::Counter* errors, uint64_t round, const std::string& peer_label)
      : errors_(errors), round_(round), peer_label_(peer_label) {}
  ~RpcFailureScope() {
    if (armed_) {
      errors_->Add();
      obs::TraceJournal::Global().Emit(round_, "rpc/error", "peer=" + peer_label_);
    }
  }
  void Disarm() { armed_ = false; }

 private:
  obs::Counter* errors_;
  uint64_t round_;
  const std::string& peer_label_;
  bool armed_ = true;
};

}  // namespace

BatchMessage CallBatchRpc(net::TcpConnection& conn, const std::string& peer_label,
                          net::FrameType op, uint64_t round, util::ByteSpan header,
                          std::span<const util::ByteSpan> items, size_t max_chunk_payload) {
  // Shard fan-out telemetry: one span pair + one latency sample per RPC
  // (per-round-per-shard rate). Function-local statics keep registration off
  // the call path after the first RPC.
  static obs::Histogram* rpc_seconds = obs::Registry::Global().GetHistogram(
      "vuvuzela_rpc_seconds", "Batch RPC round trip to a shard or hop peer",
      obs::LatencyBuckets());
  static obs::Counter* rpc_errors = obs::Registry::Global().GetCounter(
      "vuvuzela_rpc_errors_total", "Batch RPCs that failed (send, receive, or remote error)");
  const auto rpc_start = std::chrono::steady_clock::now();
  obs::TraceJournal::Global().Emit(round, "rpc/call",
                                   "peer=" + peer_label + " items=" + std::to_string(items.size()));
  RpcFailureScope failure_scope(rpc_errors, round, peer_label);
  if (!SendBatchMessage(conn, op, round, header, items, max_chunk_payload)) {
    FailRpc(conn, peer_label, "send failed");
  }
  auto first = conn.RecvFrame();
  if (!first) {
    if (conn.last_recv_status() == net::RecvStatus::kTimeout) {
      conn.Close();
      throw HopTimeoutError(peer_label + ": receive deadline elapsed");
    }
    FailRpc(conn, peer_label,
            conn.last_recv_status() == net::RecvStatus::kEof ? "connection closed by peer"
                                                             : "receive failed");
  }
  if (first->type == net::FrameType::kHopError) {
    // The peer completed the RPC with an error report; framing is intact and
    // a re-send would fail the same way, so the connection stays open.
    throw HopRemoteError(peer_label + ": " +
                         std::string(first->payload.begin(), first->payload.end()));
  }
  if (first->type != op) {
    FailRpc(conn, peer_label, "unexpected response type");
  }
  auto message = ReadBatchMessage(conn, std::move(*first));
  if (!message) {
    if (conn.last_recv_status() == net::RecvStatus::kTimeout) {
      conn.Close();
      throw HopTimeoutError(peer_label + ": receive deadline elapsed mid-batch");
    }
    FailRpc(conn, peer_label, "malformed response batch");
  }
  if (message->round != round) {
    FailRpc(conn, peer_label, "response round mismatch");
  }
  failure_scope.Disarm();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - rpc_start).count();
  rpc_seconds->Observe(secs);
  char detail[160];
  std::snprintf(detail, sizeof(detail), "peer=%s secs=%.6f", peer_label.c_str(), secs);
  obs::TraceJournal::Global().Emit(round, "rpc/done", detail);
  return std::move(*message);
}

util::Bytes EncodeExchangeConversationHeader(const ExchangeConversationHeader& header) {
  wire::Writer w(8);
  w.U32(header.shard_index);
  w.U32(header.num_shards);
  return w.Take();
}

std::optional<ExchangeConversationHeader> ParseExchangeConversationHeader(util::ByteSpan data) {
  wire::Reader r(data);
  auto shard_index = r.U32();
  auto num_shards = r.U32();
  if (!num_shards || !r.AtEnd()) {
    return std::nullopt;
  }
  if (*num_shards == 0 || *shard_index >= *num_shards) {
    return std::nullopt;
  }
  return ExchangeConversationHeader{*shard_index, *num_shards};
}

util::PackedItems EncodePartnerIndices(std::span<const uint32_t> partner) {
  util::PackedItems packed;
  packed.bytes.resize(4 * partner.size());
  for (size_t i = 0; i < partner.size(); ++i) {
    util::StoreBe32(packed.bytes.data() + 4 * i, partner[i]);
  }
  for (size_t first = 0; first < partner.size(); first += kPartnerIndicesPerItem) {
    size_t count = std::min(kPartnerIndicesPerItem, partner.size() - first);
    packed.items.push_back(util::ByteSpan(packed.bytes).subspan(4 * first, 4 * count));
  }
  return packed;
}

std::optional<std::vector<uint32_t>> DecodePartnerIndices(std::span<const util::ByteSpan> items,
                                                          size_t count) {
  std::vector<uint32_t> partner;
  partner.reserve(count);
  for (util::ByteSpan item : items) {
    if (item.size() % 4 != 0 || item.size() / 4 > count - partner.size()) {
      return std::nullopt;
    }
    for (size_t offset = 0; offset < item.size(); offset += 4) {
      partner.push_back(util::LoadBe32(item.data() + offset));
    }
  }
  if (partner.size() != count) {
    return std::nullopt;
  }
  return partner;
}

util::Bytes EncodeExchangeDialingHeader(const ExchangeDialingHeader& header) {
  wire::Writer w(12);
  w.U32(header.shard_index);
  w.U32(header.num_shards);
  w.U32(header.num_drops);
  return w.Take();
}

std::optional<ExchangeDialingHeader> ParseExchangeDialingHeader(util::ByteSpan data) {
  wire::Reader r(data);
  auto shard_index = r.U32();
  auto num_shards = r.U32();
  auto num_drops = r.U32();
  if (!num_drops || !r.AtEnd()) {
    return std::nullopt;
  }
  if (*num_shards == 0 || *shard_index >= *num_shards || *num_drops == 0) {
    return std::nullopt;
  }
  return ExchangeDialingHeader{*shard_index, *num_shards, *num_drops};
}

util::Bytes EncodeInvitationPublishHeader(const InvitationPublishHeader& header) {
  wire::Writer w(16);
  w.U32(header.shard_index);
  w.U32(header.num_shards);
  w.U32(header.num_drops);
  w.U32(header.keep_latest);
  return w.Take();
}

std::optional<InvitationPublishHeader> ParseInvitationPublishHeader(util::ByteSpan data) {
  wire::Reader r(data);
  auto shard_index = r.U32();
  auto num_shards = r.U32();
  auto num_drops = r.U32();
  auto keep_latest = r.U32();
  if (!keep_latest || !r.AtEnd()) {
    return std::nullopt;
  }
  // keep_latest = 0 would expire the round just published; a router can only
  // mean that as a bug, so the daemon rejects it outright.
  if (*num_shards == 0 || *shard_index >= *num_shards || *num_drops == 0 || *keep_latest == 0) {
    return std::nullopt;
  }
  return InvitationPublishHeader{*shard_index, *num_shards, *num_drops, *keep_latest};
}

util::Bytes EncodeInvitationFetchHeader(const InvitationFetchHeader& header) {
  wire::Writer w(16);
  w.U32(header.shard_index);
  w.U32(header.num_shards);
  w.U32(header.num_drops);
  w.U32(header.drop_index);
  return w.Take();
}

std::optional<InvitationFetchHeader> ParseInvitationFetchHeader(util::ByteSpan data) {
  wire::Reader r(data);
  auto shard_index = r.U32();
  auto num_shards = r.U32();
  auto num_drops = r.U32();
  auto drop_index = r.U32();
  if (!drop_index || !r.AtEnd()) {
    return std::nullopt;
  }
  if (*num_shards == 0 || *shard_index >= *num_shards || *num_drops == 0 ||
      *drop_index >= *num_drops) {
    return std::nullopt;
  }
  return InvitationFetchHeader{*shard_index, *num_shards, *num_drops, *drop_index};
}

std::optional<std::vector<wire::Invitation>> DecodeInvitationItems(
    std::span<const util::ByteSpan> items) {
  std::vector<wire::Invitation> bucket;
  bucket.reserve(items.size());
  for (util::ByteSpan item : items) {
    if (item.size() != wire::kInvitationSize) {
      return std::nullopt;
    }
    wire::Invitation invitation;
    std::copy(item.begin(), item.end(), invitation.begin());
    bucket.push_back(invitation);
  }
  return bucket;
}

}  // namespace vuvuzela::transport

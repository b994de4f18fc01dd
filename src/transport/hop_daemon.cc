#include "src/transport/hop_daemon.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/wire/serde.h"

namespace vuvuzela::transport {

namespace {

bool IsHopOp(net::FrameType type) {
  switch (type) {
    case net::FrameType::kHopForwardConversation:
    case net::FrameType::kHopBackwardConversation:
    case net::FrameType::kHopLastConversation:
    case net::FrameType::kHopForwardDialing:
    case net::FrameType::kHopLastDialing:
      return true;
    default:
      return false;
  }
}

bool SendError(net::TcpConnection& conn, uint64_t round, const std::string& message) {
  return conn.SendFrame(
      net::Frame{net::FrameType::kHopError, round, util::Bytes(message.begin(), message.end())});
}

util::Bytes PackDrop(const std::vector<wire::Invitation>& invitations) {
  util::Bytes packed;
  packed.reserve(invitations.size() * wire::kInvitationSize);
  for (const auto& invitation : invitations) {
    util::Append(packed, invitation);
  }
  return packed;
}

bool IsDialingOp(net::FrameType op) {
  return op == net::FrameType::kHopForwardDialing || op == net::FrameType::kHopLastDialing;
}

const char* HopOpName(net::FrameType op) {
  switch (op) {
    case net::FrameType::kHopForwardConversation:
      return "forward_conversation";
    case net::FrameType::kHopBackwardConversation:
      return "backward_conversation";
    case net::FrameType::kHopLastConversation:
      return "last_conversation";
    case net::FrameType::kHopForwardDialing:
      return "forward_dialing";
    case net::FrameType::kHopLastDialing:
      return "last_dialing";
    default:
      return "unknown";
  }
}

// Fingerprints a request so a cached reply can never be served for different
// input: op, round, every item (length-prefixed, so item boundaries are
// unambiguous), and — for dialing ops — the header, which carries num_drops
// and is semantic. The forward-conversation header is deliberately excluded:
// it carries only the piggybacked expiry horizon, which legitimately differs
// between the original send and a post-reconnect re-send of the same pass.
crypto::Sha256Digest DigestRequest(const BatchMessage& request,
                                   std::span<const util::ByteSpan> items) {
  crypto::Sha256 hasher;
  uint8_t prefix[12];
  prefix[0] = static_cast<uint8_t>(request.op);
  prefix[1] = 0;
  prefix[2] = 0;
  prefix[3] = 0;
  for (int i = 0; i < 8; ++i) {
    prefix[4 + i] = static_cast<uint8_t>(request.round >> (8 * i));
  }
  hasher.Update(prefix);
  if (IsDialingOp(request.op)) {
    hasher.Update(request.header);
  }
  for (const auto& item : items) {
    uint8_t len[8];
    for (int i = 0; i < 8; ++i) {
      len[i] = static_cast<uint8_t>(static_cast<uint64_t>(item.size()) >> (8 * i));
    }
    hasher.Update(len);
    hasher.Update(item);
  }
  return hasher.Finish();
}

}  // namespace

HopDaemon::HopDaemon(const HopDaemonConfig& config, std::unique_ptr<mixnet::MixServer> server,
                     net::TcpListener listener)
    : config_(config), server_(std::move(server)), listener_(std::move(listener)) {
  auto& registry = obs::Registry::Global();
  obs_rpcs_ = registry.GetCounter("vuvuzela_hop_rpcs_total",
                                  "Hop RPCs served (all ops, including replayed passes)");
  obs_replay_hits_ = registry.GetCounter(
      "vuvuzela_hop_replay_hits_total", "Passes re-served from the idempotent replay cache");
  obs_pass_onions_ = registry.GetCounter("vuvuzela_hop_pass_onions_total",
                                         "Onions entering hop passes (request items)");
  obs_pass_errors_ = registry.GetCounter("vuvuzela_hop_pass_errors_total",
                                         "Hop passes that failed and answered kHopError");
  obs_pass_seconds_ = registry.GetHistogram(
      "vuvuzela_hop_pass_seconds", "Wall time of one hop pass, crypto plus reply send",
      obs::PassLatencyBuckets());
  obs_cache_entries_ = registry.GetGauge("vuvuzela_hop_secret_cache_entries",
                                         "Client secrets cached, both generations");
  obs_cache_misses_ = registry.GetCounter("vuvuzela_hop_secret_cache_misses_total",
                                          "Client secret cache misses (one DH each)");
  obs_replay_bytes_ =
      registry.GetGauge("vuvuzela_hop_replay_bytes", "Bytes held in the replay slot");
}

std::unique_ptr<HopDaemon> HopDaemon::Create(const HopDaemonConfig& config,
                                             std::unique_ptr<mixnet::MixServer> server) {
  auto listener = net::TcpListener::Listen(config.port);
  if (!listener) {
    return nullptr;
  }
  auto daemon = std::unique_ptr<HopDaemon>(
      new HopDaemon(config, std::move(server), std::move(*listener)));
  if (!config.exchange.partitions.empty()) {
    daemon->exchange_router_ = ExchangeRouter::Connect(config.exchange);
    if (!daemon->exchange_router_) {
      return nullptr;  // a partition is unreachable at startup
    }
    daemon->server_->SetExchangeBackend(daemon->exchange_router_.get());
  }
  if (config.metrics_port >= 0) {
    daemon->metrics_ = obs::MetricsHttpServer::Start(static_cast<uint16_t>(config.metrics_port));
    if (!daemon->metrics_) {
      return nullptr;  // the requested metrics port is taken
    }
  }
  return daemon;
}

void HopDaemon::Serve() {
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

void HopDaemon::Stop() {
  stop_.store(true);
  // Shutdown (not Close) is safe against a Serve thread blocked in Accept;
  // the descriptor is released when the daemon is destroyed, after the
  // owner joins that thread.
  listener_.Shutdown();
  // A serve loop busy on a live connection would otherwise only notice the
  // stop flag at an idle poll tick — under continuous round traffic, never.
  std::lock_guard<std::mutex> lock(active_conn_mutex_);
  if (active_conn_ != nullptr) {
    active_conn_->Shutdown();
  }
}

bool HopDaemon::ServeConnection(net::TcpConnection& conn) {
  if (config_.poll_interval_ms > 0) {
    conn.SetRecvTimeout(config_.poll_interval_ms);
  }
  for (;;) {
    auto frame = conn.RecvFrame();
    if (!frame) {
      if (conn.last_recv_status() == net::RecvStatus::kTimeout) {
        // Idle poll tick: keep waiting unless Stop() was requested.
        if (stop_.load()) {
          return false;
        }
        continue;
      }
      return true;  // coordinator gone or garbage framing; await a reconnect
    }
    if (frame->type == net::FrameType::kShutdown) {
      stop_.store(true);
      return false;
    }
    if (!IsHopOp(frame->type)) {
      if (!SendError(conn, frame->round, "unsupported hop op")) {
        return true;
      }
      continue;
    }
    // The poll deadline is for *idle* waits between RPCs; once a batch
    // message has started, wait as long as its chunks take (a stalled
    // coordinator mid-batch only stalls this one connection).
    if (config_.poll_interval_ms > 0) {
      conn.SetRecvTimeout(0);
    }
    // Zero-copy decode: the pass reads item views straight out of the wire
    // chunks; nothing is re-assembled into a contiguous batch.
    auto request =
        ReadBatchMessage(conn, std::move(*frame), BatchAssembler::ItemMode::kZeroCopy);
    if (config_.poll_interval_ms > 0) {
      conn.SetRecvTimeout(config_.poll_interval_ms);
    }
    if (!request) {
      if (conn.last_recv_status() != net::RecvStatus::kOk) {
        return true;  // the connection itself failed mid-batch
      }
      // Chunk content was malformed but framing stayed aligned: report and
      // keep serving.
      if (!SendError(conn, 0, "malformed batch message")) {
        return true;
      }
      continue;
    }
    if (!Dispatch(conn, std::move(*request))) {
      return true;
    }
  }
}

size_t HopDaemon::replay_entries() const {
  std::lock_guard<std::mutex> lock(replay_mutex_);
  return last_reply_ ? 1 : 0;
}

bool HopDaemon::SendAndCache(net::TcpConnection& conn, const BatchMessage& request,
                             const crypto::Sha256Digest& digest, util::Bytes header,
                             std::vector<util::Bytes> items) {
  bool sent = SendBatchMessage(conn, request.op, request.round, header, items,
                               config_.chunk_payload);
  // Keep the reply even when the send failed mid-stream: the pass already
  // executed, and a re-send after the coordinator reconnects is exactly the
  // case the slot exists for (the lost-reply problem).
  int64_t bytes = static_cast<int64_t>(header.size());
  for (const auto& item : items) {
    bytes += static_cast<int64_t>(item.size());
  }
  std::lock_guard<std::mutex> lock(replay_mutex_);
  last_reply_ = CachedReply{digest, std::move(header), std::move(items)};
  obs_replay_bytes_->Set(bytes);
  return sent;
}

bool HopDaemon::Dispatch(net::TcpConnection& conn, BatchMessage request) {
  rpcs_served_.fetch_add(1);
  obs_rpcs_->Add();
  wire::Reader header(request.header);

  // Hygiene rides on forward-conversation requests. Apply it before the
  // replay lookup so a replayed pass still sheds expired state.
  if (request.op == net::FrameType::kHopForwardConversation) {
    auto expire_newest = header.U64();
    auto expire_keep = header.U64();
    if (!expire_keep) {
      return SendError(conn, request.round, "truncated forward header");
    }
    if (*expire_newest != 0 || *expire_keep != 0) {
      server_->ExpireRounds(*expire_newest, *expire_keep);
    }
  }

  // One view per item, shared by the replay digest and the pass itself. The
  // views alias `request`, which outlives both uses.
  std::vector<util::ByteSpan> items = request.ItemSpans();

  crypto::Sha256Digest digest = DigestRequest(request, items);
  {
    std::unique_lock<std::mutex> lock(replay_mutex_);
    if (last_reply_ && last_reply_->request_digest == digest) {
      // The coordinator re-sent the pass this hop served last (its reply was
      // lost with the old connection): re-serve the identical bytes instead
      // of running the pass twice. Only this thread writes the slot, so it
      // may be read unlocked.
      replay_hits_.fetch_add(1);
      obs_replay_hits_->Add();
      lock.unlock();
      obs::TraceJournal::Global().Emit(request.round, "hop/replay",
                                       std::string("op=") + HopOpName(request.op));
      return SendBatchMessage(conn, request.op, request.round, last_reply_->header,
                              last_reply_->items, config_.chunk_payload);
    }
    // Any other request means the coordinator holds the last reply (see the
    // class comment): release it before this pass allocates its own.
    last_reply_.reset();
    obs_replay_bytes_->Set(0);
  }

  uint64_t round = request.round;
  const char* op_name = HopOpName(request.op);
  size_t num_items = items.size();
  auto pass_start = std::chrono::steady_clock::now();
  bool sent = RunPass(conn, request, items, header, digest);
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - pass_start)
                       .count();
  obs_pass_seconds_->Observe(seconds);
  obs_pass_onions_->Add(num_items);
  crypto::SecretCache::Stats cache = server_->secret_cache().GetStats();
  obs_cache_entries_->Set(static_cast<int64_t>(cache.entries));
  obs_cache_misses_->Add(cache.misses - reported_cache_misses_);
  reported_cache_misses_ = cache.misses;
  char detail[112];
  std::snprintf(detail, sizeof detail, "op=%s items=%zu secs=%.6f", op_name, num_items, seconds);
  obs::TraceJournal::Global().Emit(round, "hop/pass", detail);
  return sent;
}

bool HopDaemon::RunPass(net::TcpConnection& conn, BatchMessage& request,
                        std::span<const util::ByteSpan> items, wire::Reader& header,
                        const crypto::Sha256Digest& digest) {
  mixnet::ServerRoundStats stats;
  try {
    switch (request.op) {
      case net::FrameType::kHopForwardConversation: {
        auto batch = server_->ForwardConversation(request.round, items, &stats);
        wire::Writer reply(48);
        WriteStats(reply, stats);
        return SendAndCache(conn, request, digest, reply.Take(), std::move(batch));
      }
      case net::FrameType::kHopBackwardConversation: {
        auto responses = server_->BackwardConversation(request.round, items, &stats);
        wire::Writer reply(48);
        WriteStats(reply, stats);
        return SendAndCache(conn, request, digest, reply.Take(), std::move(responses));
      }
      case net::FrameType::kHopLastConversation: {
        auto result = server_->ProcessConversationLastHop(request.round, items, &stats);
        wire::Writer reply(80);
        WriteStats(reply, stats);
        WriteHistogram(reply, result.histogram, result.messages_exchanged);
        return SendAndCache(conn, request, digest, reply.Take(), std::move(result.responses));
      }
      case net::FrameType::kHopForwardDialing:
      case net::FrameType::kHopLastDialing: {
        auto num_drops = header.U32();
        if (!num_drops) {
          return SendError(conn, request.round, "truncated dialing header");
        }
        if (request.op == net::FrameType::kHopForwardDialing) {
          auto batch = server_->ForwardDialing(request.round, items, *num_drops, &stats);
          wire::Writer reply(48);
          WriteStats(reply, stats);
          return SendAndCache(conn, request, digest, reply.Take(), std::move(batch));
        }
        deaddrop::InvitationTable table =
            server_->ProcessDialingLastHop(request.round, items, *num_drops, &stats);
        std::vector<util::Bytes> drops;
        drops.reserve(table.num_drops());
        for (uint32_t i = 0; i < table.num_drops(); ++i) {
          drops.push_back(PackDrop(table.Drop(i)));
        }
        wire::Writer reply(48);
        WriteStats(reply, stats);
        return SendAndCache(conn, request, digest, reply.Take(), std::move(drops));
      }
      default:
        return SendError(conn, request.round, "unsupported hop op");
    }
  } catch (const std::exception& e) {
    // One failed pass must not take the hop down: report it and keep serving.
    VZ_LOG_WARN << "hop pass failed (round " << request.round << "): " << e.what();
    obs_pass_errors_->Add();
    obs::TraceJournal::Global().Emit(
        request.round, "hop/error",
        std::string("op=") + HopOpName(request.op) + " error=" + e.what());
    return SendError(conn, request.round, e.what());
  }
}

}  // namespace vuvuzela::transport

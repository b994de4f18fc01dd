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
crypto::Sha256Digest DigestRequest(const BatchMessage& request) {
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
  for (util::ByteSpan item : request.items) {
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
    : config_(config),
      server_(std::move(server)),
      rpc_server_(std::move(listener),
                  {.serves = IsHopOp,
                   // The last reply's memory is free again once the header of
                   // a request for another pass has arrived, before that
                   // request's payload is allocated; a re-send of that very
                   // pass keeps it.
                   .on_request_header =
                       [this](net::FrameType op, uint64_t round) {
                         ReleaseReplyUnlessFor(op, round);
                       },
                   .dispatch =
                       [this](net::TcpConnection& conn, BatchMessage request) {
                         return Dispatch(conn, std::move(request));
                       }}) {
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
  obs_digest_seconds_ = registry.GetHistogram(
      "vuvuzela_hop_request_digest_seconds",
      "Wall time of one request's replay digest, taken before the pass",
      obs::PassLatencyBuckets());
  obs_cache_entries_ = registry.GetGauge("vuvuzela_hop_secret_cache_entries",
                                         "Client secrets cached, both generations");
  obs_cache_misses_ = registry.GetCounter("vuvuzela_hop_secret_cache_misses_total",
                                          "Client secret cache misses (one DH each)");
  obs_replay_bytes_ =
      registry.GetGauge("vuvuzela_hop_replay_bytes", "Bytes held in the replay slot");
  obs_miss_dh_seconds_ = registry.GetHistogram(
      "vuvuzela_hop_miss_dh_seconds",
      "Summed X25519 time of one peeling pass's secret-cache misses, across workers",
      obs::PassLatencyBuckets());
  obs_noise_wrap_seconds_ = registry.GetHistogram(
      "vuvuzela_hop_noise_wrap_seconds",
      "Wall time of one forward pass's cover-onion wrap, seed draws included",
      obs::PassLatencyBuckets());
  registry
      .GetGauge("vuvuzela_hop_x25519_lanes",
                "Lanes of the selected X25519 batch kernels (the cache-miss DH ladder and "
                "the cover-onion comb): 8 on AVX-512 IFMA, else 1")
      ->Set(static_cast<int64_t>(crypto::X25519ManyLanes()));
}

std::unique_ptr<HopDaemon> HopDaemon::Create(const HopDaemonConfig& config,
                                             std::unique_ptr<mixnet::MixServer> server) {
  auto listener = net::TcpListener::Listen(config.port);
  if (!listener) {
    return nullptr;
  }
  auto daemon = std::unique_ptr<HopDaemon>(
      new HopDaemon(config, std::move(server), std::move(*listener)));
  if (!config.exchange.shards.empty()) {
    daemon->exchange_router_ = ExchangeRouter::Connect(config.exchange);
    if (!daemon->exchange_router_) {
      return nullptr;  // a partition is unreachable at startup
    }
    daemon->server_->SetExchangeBackend(daemon->exchange_router_.get());
  }
  return daemon;
}

void HopDaemon::Serve() { rpc_server_.Serve(); }

void HopDaemon::Stop() { rpc_server_.Stop(); }

size_t HopDaemon::replay_entries() const {
  std::lock_guard<std::mutex> lock(replay_mutex_);
  return last_reply_ ? 1 : 0;
}

bool HopDaemon::SendAndCache(net::TcpConnection& conn, const BatchMessage& request,
                             const crypto::Sha256Digest& digest, util::Bytes header,
                             util::PackedItems body, std::vector<util::Bytes> request_chunks) {
  bool sent = SendBatchMessage(conn, request.op, request.round, header, body.items,
                               config_.chunk_payload);
  // Keep the reply even when the send failed mid-stream: the pass already
  // executed, and a re-send after the coordinator reconnects is exactly the
  // case the slot exists for (the lost-reply problem).
  size_t bytes = header.size() + body.bytes.size();
  for (const util::Bytes& chunk : request_chunks) {
    bytes += chunk.size();
  }
  std::lock_guard<std::mutex> lock(replay_mutex_);
  last_reply_ = CachedReply{request.op, request.round, digest, std::move(header),
                            std::move(request_chunks), std::move(body)};
  obs_replay_bytes_->Set(static_cast<int64_t>(bytes));
  return sent;
}

void HopDaemon::ReleaseReplyUnlessFor(net::FrameType op, uint64_t round) {
  std::lock_guard<std::mutex> lock(replay_mutex_);
  if (last_reply_ && (last_reply_->op != op || last_reply_->round != round)) {
    last_reply_.reset();
    obs_replay_bytes_->Set(0);
  }
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
      return SendRpcError(conn, request.round, "truncated forward header");
    }
    if (*expire_newest != 0 || *expire_keep != 0) {
      server_->ExpireRounds(*expire_newest, *expire_keep);
    }
  }

  // Timed on its own: the digest is serial work on this thread that
  // vuvuzela_hop_pass_seconds and hop/pass deliberately leave out.
  auto digest_start = std::chrono::steady_clock::now();
  crypto::Sha256Digest digest = DigestRequest(request);
  obs_digest_seconds_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - digest_start).count());
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
                              last_reply_->body.items, config_.chunk_payload);
    }
    // Any other request means the coordinator holds the last reply (see the
    // class comment): release it before this pass allocates its own.
    last_reply_.reset();
    obs_replay_bytes_->Set(0);
  }

  uint64_t round = request.round;
  const char* op_name = HopOpName(request.op);
  size_t num_items = request.items.size();
  const uint64_t miss_dh_nanos_before = server_->secret_cache().GetStats().miss_dh_nanos;
  auto pass_start = std::chrono::steady_clock::now();
  bool sent = RunPass(conn, request, header, digest);
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - pass_start)
                       .count();
  obs_pass_seconds_->Observe(seconds);
  obs_pass_onions_->Add(num_items);
  crypto::SecretCache::Stats cache = server_->secret_cache().GetStats();
  obs_cache_entries_->Set(static_cast<int64_t>(cache.entries));
  obs_cache_misses_->Add(cache.misses - reported_cache_misses_);
  reported_cache_misses_ = cache.misses;
  if (request.op != net::FrameType::kHopBackwardConversation) {
    // Every other op peels its batch.
    obs_miss_dh_seconds_->Observe(
        static_cast<double>(cache.miss_dh_nanos - miss_dh_nanos_before) * 1e-9);
  }
  char detail[112];
  std::snprintf(detail, sizeof detail, "op=%s items=%zu secs=%.6f", op_name, num_items, seconds);
  obs::TraceJournal::Global().Emit(round, "hop/pass", detail);
  return sent;
}

bool HopDaemon::RunPass(net::TcpConnection& conn, BatchMessage& request, wire::Reader& header,
                        const crypto::Sha256Digest& digest) {
  mixnet::ServerRoundStats stats;
  // A forward pass's cover-onion wrap is observed before the reply is sent,
  // so the count is exact once the caller has the reply.
  const uint64_t noise_wrap_nanos_before = server_->noise_wrap_nanos();
  auto observe_noise_wrap = [&] {
    obs_noise_wrap_seconds_->Observe(
        static_cast<double>(server_->noise_wrap_nanos() - noise_wrap_nanos_before) * 1e-9);
  };
  try {
    switch (request.op) {
      case net::FrameType::kHopForwardConversation: {
        util::InPlaceBatch batch =
            server_->ForwardConversation(request.round, request.MutableItems(), &stats);
        observe_noise_wrap();
        wire::Writer reply(48);
        WriteStats(reply, stats);
        return SendAndCache(conn, request, digest, reply.Take(), std::move(batch).Pack(),
                            std::move(request.chunks));
      }
      case net::FrameType::kHopBackwardConversation: {
        util::Batch responses =
            server_->BackwardConversation(request.round, request.items, &stats);
        wire::Writer reply(48);
        WriteStats(reply, stats);
        return SendAndCache(conn, request, digest, reply.Take(), std::move(responses).Pack());
      }
      case net::FrameType::kHopLastConversation: {
        mixnet::MixServer::LastHopOutput result =
            server_->ProcessConversationLastHop(request.round, request.MutableItems(), &stats);
        wire::Writer reply(80);
        WriteStats(reply, stats);
        WriteHistogram(reply, result.histogram, result.messages_exchanged);
        return SendAndCache(conn, request, digest, reply.Take(),
                            std::move(result.responses).Pack(), std::move(request.chunks));
      }
      case net::FrameType::kHopForwardDialing:
      case net::FrameType::kHopLastDialing: {
        auto num_drops = header.U32();
        if (!num_drops) {
          return SendRpcError(conn, request.round, "truncated dialing header");
        }
        if (request.op == net::FrameType::kHopForwardDialing) {
          util::InPlaceBatch batch = server_->ForwardDialing(
              request.round, request.MutableItems(), *num_drops, &stats);
          observe_noise_wrap();
          wire::Writer reply(48);
          WriteStats(reply, stats);
          return SendAndCache(conn, request, digest, reply.Take(), std::move(batch).Pack(),
                              std::move(request.chunks));
        }
        deaddrop::InvitationTable table = server_->ProcessDialingLastHop(
            request.round, request.MutableItems(), *num_drops, &stats);
        wire::Writer reply(48);
        WriteStats(reply, stats);
        return SendAndCache(conn, request, digest, reply.Take(), deaddrop::PackDrops(table));
      }
      default:
        return SendRpcError(conn, request.round, "unsupported op");
    }
  } catch (const std::exception& e) {
    // One failed pass must not take the hop down: report it and keep serving.
    VZ_LOG_WARN << "hop pass failed (round " << request.round << "): " << e.what();
    obs_pass_errors_->Add();
    obs::TraceJournal::Global().Emit(
        request.round, "hop/error",
        std::string("op=") + HopOpName(request.op) + " error=" + e.what());
    return SendRpcError(conn, request.round, e.what());
  }
}

}  // namespace vuvuzela::transport

#include "src/transport/exchange_daemon.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/deaddrop/conversation_table.h"
#include "src/deaddrop/invitation_table.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/wire/messages.h"

namespace vuvuzela::transport {

namespace {

bool SendError(net::TcpConnection& conn, uint64_t round, const std::string& message) {
  return conn.SendFrame(
      net::Frame{net::FrameType::kHopError, round, util::Bytes(message.begin(), message.end())});
}

}  // namespace

ExchangedDaemon::ExchangedDaemon(const ExchangedConfig& config, net::TcpListener listener)
    : config_(config), listener_(std::move(listener)) {
  auto& registry = obs::Registry::Global();
  obs_rpcs_ = registry.GetCounter("vuvuzela_exchange_rpcs_total",
                                  "Exchange-partition RPCs served (conversation + dialing)");
  obs_requests_ = registry.GetCounter(
      "vuvuzela_exchange_requests_total",
      "Dead-drop accesses and invitation deposits processed by this partition");
  obs_exchange_seconds_ = registry.GetHistogram(
      "vuvuzela_exchange_seconds", "Wall time of one exchange-partition RPC, match plus reply",
      obs::LatencyBuckets());
}

std::unique_ptr<ExchangedDaemon> ExchangedDaemon::Create(const ExchangedConfig& config) {
  if (config.num_shards == 0 || config.shard_index >= config.num_shards) {
    return nullptr;
  }
  auto listener = net::TcpListener::Listen(config.port);
  if (!listener) {
    return nullptr;
  }
  auto daemon =
      std::unique_ptr<ExchangedDaemon>(new ExchangedDaemon(config, std::move(*listener)));
  if (config.metrics_port >= 0) {
    daemon->metrics_ = obs::MetricsHttpServer::Start(static_cast<uint16_t>(config.metrics_port));
    if (!daemon->metrics_) {
      return nullptr;  // the requested metrics port is taken
    }
  }
  return daemon;
}

void ExchangedDaemon::Serve() {
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

void ExchangedDaemon::Stop() {
  stop_.store(true);
  listener_.Shutdown();
  // Interrupt a serve loop busy on a live connection (continuous exchange
  // traffic would otherwise keep it from ever seeing the stop flag).
  std::lock_guard<std::mutex> lock(active_conn_mutex_);
  if (active_conn_ != nullptr) {
    active_conn_->Shutdown();
  }
}

bool ExchangedDaemon::ServeConnection(net::TcpConnection& conn) {
  if (config_.poll_interval_ms > 0) {
    conn.SetRecvTimeout(config_.poll_interval_ms);
  }
  for (;;) {
    auto frame = conn.RecvFrame();
    if (!frame) {
      if (conn.last_recv_status() == net::RecvStatus::kTimeout) {
        if (stop_.load()) {
          return false;
        }
        continue;
      }
      return true;  // router gone or garbage framing; await a reconnect
    }
    if (frame->type == net::FrameType::kShutdown) {
      stop_.store(true);
      return false;
    }
    if (frame->type != net::FrameType::kExchangeConversation &&
        frame->type != net::FrameType::kExchangeDialing) {
      if (!SendError(conn, frame->round, "unsupported exchange op")) {
        return true;
      }
      continue;
    }
    // As in HopDaemon: the poll deadline covers idle waits between RPCs only;
    // mid-batch chunk waits are untimed.
    if (config_.poll_interval_ms > 0) {
      conn.SetRecvTimeout(0);
    }
    auto request = ReadBatchMessage(conn, std::move(*frame));
    if (config_.poll_interval_ms > 0) {
      conn.SetRecvTimeout(config_.poll_interval_ms);
    }
    if (!request) {
      if (conn.last_recv_status() != net::RecvStatus::kOk) {
        return true;  // the connection itself failed mid-batch
      }
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

bool ExchangedDaemon::Dispatch(net::TcpConnection& conn, BatchMessage request) {
  rpcs_served_.fetch_add(1);
  obs_rpcs_->Add();
  obs_requests_->Add(request.items.size());
  const char* op_name =
      request.op == net::FrameType::kExchangeConversation ? "conversation" : "dialing";
  size_t num_items = request.items.size();
  auto start = std::chrono::steady_clock::now();
  bool sent;
  try {
    if (request.op == net::FrameType::kExchangeConversation) {
      sent = HandleConversation(conn, request);
    } else {
      sent = HandleDialing(conn, request);
    }
  } catch (const std::exception& e) {
    VZ_LOG_WARN << "exchange partition rpc failed (round " << request.round << "): " << e.what();
    obs::TraceJournal::Global().Emit(
        request.round, "exchange/error",
        std::string("op=") + op_name + " error=" + e.what());
    return SendError(conn, request.round, e.what());
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  obs_exchange_seconds_->Observe(seconds);
  char detail[112];
  std::snprintf(detail, sizeof detail, "op=%s shard=%u items=%zu secs=%.6f", op_name,
                config_.shard_index, num_items, seconds);
  obs::TraceJournal::Global().Emit(request.round, "exchange/rpc", detail);
  return sent;
}

bool ExchangedDaemon::HandleConversation(net::TcpConnection& conn, const BatchMessage& request) {
  auto header = ParseExchangeConversationHeader(request.header);
  if (!header) {
    return SendError(conn, request.round, "malformed exchange-conversation header");
  }
  if (header->shard_index != config_.shard_index || header->num_shards != config_.num_shards) {
    return SendError(conn, request.round, "exchange partition map mismatch");
  }
  std::vector<wire::ExchangeRequest> requests;
  requests.reserve(request.items.size());
  for (const auto& item : request.items) {
    auto parsed = wire::ExchangeRequest::Parse(item);
    if (!parsed) {
      return SendError(conn, request.round, "malformed exchange request");
    }
    if (deaddrop::ShardOfDeadDrop(parsed->dead_drop, config_.num_shards) != config_.shard_index) {
      return SendError(conn, request.round, "exchange request outside partition");
    }
    requests.push_back(*parsed);
  }

  deaddrop::ExchangeOutcome outcome =
      deaddrop::ShardedExchangeRound(requests, config_.local_shards);

  wire::Writer reply(32);
  WriteHistogram(reply, outcome.histogram, outcome.messages_exchanged);
  // The envelopes go out as views into the outcome, not copies.
  std::vector<util::ByteSpan> envelopes(outcome.results.begin(), outcome.results.end());
  return SendBatchMessage(conn, request.op, request.round, reply.Take(), envelopes,
                          config_.chunk_payload);
}

bool ExchangedDaemon::HandleDialing(net::TcpConnection& conn, const BatchMessage& request) {
  auto header = ParseExchangeDialingHeader(request.header);
  if (!header) {
    return SendError(conn, request.round, "malformed exchange-dialing header");
  }
  if (header->shard_index != config_.shard_index || header->num_shards != config_.num_shards) {
    return SendError(conn, request.round, "exchange partition map mismatch");
  }
  // The shard's table covers only its owned drop range — the per-machine
  // memory this partitioning exists to bound is num_drops/num_shards, not
  // num_drops. An empty range (more shards than drops) replies zero items.
  deaddrop::InvitationDropRange range =
      deaddrop::InvitationDropsOfShard(config_.shard_index, header->num_drops, config_.num_shards);
  uint32_t owned = range.end - range.begin;
  deaddrop::InvitationTable table(owned > 0 ? owned : 1);
  for (const auto& item : request.items) {
    auto parsed = wire::DialRequest::Parse(item);
    if (!parsed) {
      return SendError(conn, request.round, "malformed dial request");
    }
    if (parsed->dead_drop_index >= header->num_drops ||
        deaddrop::ShardOfInvitationDrop(parsed->dead_drop_index, header->num_drops,
                                        config_.num_shards) != config_.shard_index) {
      return SendError(conn, request.round, "invitation deposit outside partition");
    }
    table.Add(parsed->dead_drop_index - range.begin, parsed->invitation);
  }

  // Reply with the owned drops in increasing index order; the router
  // reassembles the full table from the shards' disjoint ranges.
  util::PackedItems drops = owned > 0 ? deaddrop::PackDrops(table) : util::PackedItems{};
  return SendBatchMessage(conn, request.op, request.round, {}, drops.items,
                          config_.chunk_payload);
}

}  // namespace vuvuzela::transport

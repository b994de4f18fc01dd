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

ExchangedDaemon::ExchangedDaemon(const ExchangedConfig& config, net::TcpListener listener)
    : config_(config),
      rpc_server_(std::move(listener),
                  {.serves =
                       [](net::FrameType op) {
                         return op == net::FrameType::kExchangeConversation ||
                                op == net::FrameType::kExchangeDialing;
                       },
                   .on_request_header = nullptr,
                   .dispatch =
                       [this](net::TcpConnection& conn, BatchMessage request) {
                         return Dispatch(conn, std::move(request));
                       }}) {
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
  return std::unique_ptr<ExchangedDaemon>(new ExchangedDaemon(config, std::move(*listener)));
}

void ExchangedDaemon::Serve() { rpc_server_.Serve(); }

void ExchangedDaemon::Stop() { rpc_server_.Stop(); }

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
    return SendRpcError(conn, request.round, e.what());
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
    return SendRpcError(conn, request.round, "malformed exchange-conversation header");
  }
  if (header->shard_index != config_.shard_index || header->num_shards != config_.num_shards) {
    return SendRpcError(conn, request.round, "exchange partition map mismatch");
  }
  // The exchange reads the dead-drop IDs where the requests were received.
  for (util::ByteSpan item : request.items) {
    if (item.size() != wire::kExchangeRequestSize) {
      return SendRpcError(conn, request.round, "malformed exchange request");
    }
    if (deaddrop::ShardOfDeadDrop(item, config_.num_shards) != config_.shard_index) {
      return SendRpcError(conn, request.round, "exchange request outside partition");
    }
  }
  deaddrop::ExchangeOutcome outcome = deaddrop::ExchangeRound(request.items);

  wire::Writer reply(32);
  WriteHistogram(reply, outcome.histogram, outcome.messages_exchanged);
  util::PackedItems partner = EncodePartnerIndices(outcome.partner);
  return SendBatchMessage(conn, request.op, request.round, reply.Take(), partner.items,
                          config_.chunk_payload);
}

bool ExchangedDaemon::HandleDialing(net::TcpConnection& conn, const BatchMessage& request) {
  auto header = ParseExchangeDialingHeader(request.header);
  if (!header) {
    return SendRpcError(conn, request.round, "malformed exchange-dialing header");
  }
  if (header->shard_index != config_.shard_index || header->num_shards != config_.num_shards) {
    return SendRpcError(conn, request.round, "exchange partition map mismatch");
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
      return SendRpcError(conn, request.round, "malformed dial request");
    }
    if (parsed->dead_drop_index >= header->num_drops ||
        deaddrop::ShardOfInvitationDrop(parsed->dead_drop_index, header->num_drops,
                                        config_.num_shards) != config_.shard_index) {
      return SendRpcError(conn, request.round, "invitation deposit outside partition");
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

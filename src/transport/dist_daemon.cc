#include "src/transport/dist_daemon.h"

#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/deaddrop/invitation_table.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/wire/messages.h"

namespace vuvuzela::transport {

DistDaemon::DistDaemon(const DistDaemonConfig& config, net::TcpListener listener)
    : config_(config), port_(listener.port()), listener_(std::move(listener)) {
  auto& registry = obs::Registry::Global();
  obs_publishes_ = registry.GetCounter("vuvuzela_dist_publishes_total",
                                       "Invitation-table slices stored by dist shards");
  obs_fetches_ = registry.GetCounter("vuvuzela_dist_fetches_total",
                                     "Bucket downloads served by dist shards");
  obs_bytes_served_ = registry.GetCounter("vuvuzela_dist_bytes_served_total",
                                          "Invitation bytes served to downloaders");
  obs_rounds_held_ = registry.GetGauge("vuvuzela_dist_rounds_held",
                                       "Published dialing rounds currently resident");
}

std::unique_ptr<DistDaemon> DistDaemon::Create(const DistDaemonConfig& config) {
  if (config.num_shards == 0 || config.shard_index >= config.num_shards ||
      config.max_rounds == 0) {
    return nullptr;
  }
  auto listener = net::TcpListener::Listen(config.port, net::TcpListener::kClientBacklog);
  if (!listener) {
    return nullptr;
  }
  return std::unique_ptr<DistDaemon>(new DistDaemon(config, std::move(*listener)));
}

void DistDaemon::Serve() {
  // Per-connection reassembly state: one streaming BatchAssembler, so peak
  // buffered memory per downloader stays one chunk.
  struct ConnState {
    BatchAssembler assembler;
    bool in_batch = false;
  };
  std::unordered_map<net::EventLoop::ConnId, ConnState> states;
  net::EventLoop* loop = nullptr;  // assigned before Run(); handlers run inside Run()

  auto send_error = [&loop](net::EventLoop::ConnId id, uint64_t round,
                            const std::string& message) {
    loop->Send(id, net::Frame{net::FrameType::kHopError, round,
                              util::Bytes(message.begin(), message.end())});
  };

  net::EventLoop::Handlers handlers;
  handlers.on_accept = [&states](net::EventLoop::ConnId id) { states.try_emplace(id); };
  handlers.on_close = [&states](net::EventLoop::ConnId id) { states.erase(id); };
  handlers.on_frame = [&, this](net::EventLoop::ConnId id, net::Frame&& frame) {
    auto it = states.find(id);
    if (it == states.end()) {
      return;
    }
    ConnState& state = it->second;
    if (!state.in_batch) {
      if (frame.type == net::FrameType::kShutdown) {
        // Orderly multi-process shutdown: stop the whole daemon, not just
        // this connection (the router owns the fleet's lifetime).
        Stop();
        return;
      }
      if (frame.type != net::FrameType::kInvitationPublish &&
          frame.type != net::FrameType::kInvitationFetch) {
        send_error(id, frame.round, "unsupported dist op");
        return;
      }
      state.in_batch = true;
      state.assembler = BatchAssembler();
    }
    BatchAssembler::Status status = state.assembler.Consume(std::move(frame));
    if (status == BatchAssembler::Status::kNeedMore) {
      return;
    }
    if (status == BatchAssembler::Status::kError) {
      state.in_batch = false;
      state.assembler = BatchAssembler();
      send_error(id, 0, "malformed batch message");
      return;
    }
    BatchMessage request = state.assembler.Take();
    state.in_batch = false;
    state.assembler = BatchAssembler();
    RpcReply reply = HandleRequest(request);
    if (!reply.ok) {
      send_error(id, request.round, reply.error);
      return;
    }
    auto frames =
        EncodeBatchChunks(reply.op, request.round, {}, util::ViewsOf(reply.items),
                          config_.chunk_payload);
    if (!frames) {
      send_error(id, request.round, "reply item exceeds chunk budget");
      return;
    }
    for (const net::Frame& chunk : *frames) {
      if (!loop->Send(id, chunk)) {
        return;  // client gone or write buffer blown; the loop closed it
      }
    }
  };

  auto owned_loop = net::EventLoop::Create(std::move(handlers));
  if (!owned_loop || !owned_loop->AddListener(std::move(listener_))) {
    VZ_LOG_ERROR << "dist shard " << config_.shard_index << ": reactor setup failed";
    return;
  }
  loop = owned_loop.get();
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    if (stop_) {
      return;  // Stop() ran before the loop was published
    }
    loop_ = owned_loop.get();
  }
  owned_loop->Run();
  std::lock_guard<std::mutex> lock(loop_mutex_);
  loop_ = nullptr;
}

void DistDaemon::Stop() {
  std::lock_guard<std::mutex> lock(loop_mutex_);
  stop_ = true;
  if (loop_ != nullptr) {
    loop_->Stop();
  }
}

DistDaemon::RpcReply DistDaemon::HandleRequest(const BatchMessage& request) {
  try {
    if (request.op == net::FrameType::kInvitationPublish) {
      return HandlePublish(request);
    }
    return HandleFetch(request);
  } catch (const std::exception& e) {
    VZ_LOG_WARN << "dist shard rpc failed (round " << request.round << "): " << e.what();
    return {.error = e.what()};
  }
}

DistDaemon::RpcReply DistDaemon::HandlePublish(const BatchMessage& request) {
  auto header = ParseInvitationPublishHeader(request.header);
  if (!header) {
    return {.error = "malformed invitation-publish header"};
  }
  if (header->shard_index != config_.shard_index || header->num_shards != config_.num_shards) {
    return {.error = "dist partition map mismatch"};
  }
  deaddrop::InvitationDropRange range = deaddrop::InvitationDropsOfShard(
      config_.shard_index, header->num_drops, config_.num_shards);

  RoundSlice slice;
  slice.num_drops = header->num_drops;
  slice.range_begin = range.begin;
  slice.buckets.resize(range.end - range.begin);
  for (const auto& item : request.items) {
    auto parsed = wire::DialRequest::Parse(item);
    if (!parsed) {
      return {.error = "malformed published invitation"};
    }
    if (parsed->dead_drop_index < range.begin || parsed->dead_drop_index >= range.end) {
      return {.error = "published invitation outside bucket range"};
    }
    slice.buckets[parsed->dead_drop_index - range.begin].push_back(parsed->invitation);
  }

  // A horizon beyond the shard's memory bound must fail loudly: silently
  // clamping would make this shard expire rounds the router still routes
  // fetches to — a divergence from the in-process backend that would only
  // surface as sporadic unknown-round errors.
  if (header->keep_latest > config_.max_rounds) {
    return {.error = "keep_latest exceeds shard --max-rounds"};
  }
  rounds_.Put(request.round, std::move(slice));
  rounds_.Expire(header->keep_latest);
  size_t held = rounds_.size();
  rounds_held_.store(held);
  publishes_stored_.fetch_add(1);
  obs_publishes_->Add();
  obs_rounds_held_->Set(static_cast<int64_t>(held));
  char detail[96];
  std::snprintf(detail, sizeof detail, "shard=%u invitations=%zu held=%zu", config_.shard_index,
                request.items.size(), held);
  obs::TraceJournal::Global().Emit(request.round, "dist/publish", detail);
  return {.ok = true, .op = request.op};  // ack: same op, zero items
}

DistDaemon::RpcReply DistDaemon::HandleFetch(const BatchMessage& request) {
  auto header = ParseInvitationFetchHeader(request.header);
  if (!header) {
    return {.error = "malformed invitation-fetch header"};
  }
  if (header->shard_index != config_.shard_index || header->num_shards != config_.num_shards) {
    return {.error = "dist partition map mismatch"};
  }
  const RoundSlice* slice = rounds_.Find(request.round);
  if (slice == nullptr) {
    return {.error = kDistUnknownRoundError};
  }
  if (header->num_drops != slice->num_drops) {
    return {.error = "bucket map mismatch"};
  }
  if (header->drop_index < slice->range_begin ||
      header->drop_index - slice->range_begin >= slice->buckets.size()) {
    return {.error = "bucket outside shard range"};
  }
  const auto& bucket = slice->buckets[header->drop_index - slice->range_begin];
  RpcReply reply{.ok = true, .op = request.op};
  reply.items.reserve(bucket.size());
  for (const auto& invitation : bucket) {
    reply.items.emplace_back(invitation.begin(), invitation.end());
  }
  fetches_served_.fetch_add(1);
  bytes_served_.fetch_add(reply.items.size() * wire::kInvitationSize);
  obs_fetches_->Add();
  obs_bytes_served_->Add(reply.items.size() * wire::kInvitationSize);
  return reply;
}

}  // namespace vuvuzela::transport

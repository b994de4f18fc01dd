#include "src/transport/dist_daemon.h"

#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

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
  auto listener = net::TcpListener::Listen(config.port, config.backlog);
  if (!listener) {
    return nullptr;
  }
  auto daemon = std::unique_ptr<DistDaemon>(new DistDaemon(config, std::move(*listener)));
  if (config.metrics_port >= 0) {
    if (config.reactor) {
      // The reactor path serves /metrics from a raw-mode listener on the
      // same loop; bind it now so the port is known before Serve() runs.
      auto metrics_listener =
          net::TcpListener::Listen(static_cast<uint16_t>(config.metrics_port));
      if (!metrics_listener) {
        return nullptr;  // the requested metrics port is taken
      }
      daemon->metrics_listener_port_ = metrics_listener->port();
      daemon->metrics_listener_ = std::move(*metrics_listener);
    } else {
      daemon->metrics_server_ =
          obs::MetricsHttpServer::Start(static_cast<uint16_t>(config.metrics_port));
      if (!daemon->metrics_server_) {
        return nullptr;
      }
    }
  }
  return daemon;
}

size_t DistDaemon::rounds_held() const {
  std::shared_lock<std::shared_mutex> lock(tables_mutex_);
  return rounds_.size();
}

uint16_t DistDaemon::metrics_port() const {
  if (metrics_server_) {
    return metrics_server_->port();
  }
  return metrics_listener_port_;
}

void DistDaemon::Serve() {
  if (config_.reactor) {
    ServeReactor();
    return;
  }
  ServeThreaded();
}

void DistDaemon::ServeReactor() {
  // Per-connection reassembly state: one streaming BatchAssembler, so peak
  // buffered memory per downloader stays one chunk, exactly as on the
  // threaded path.
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

  constexpr uint64_t kRpcTag = 0;
  constexpr uint64_t kMetricsTag = 1;

  net::EventLoop::Handlers handlers;
  handlers.on_accept = [&states](net::EventLoop::ConnId id, uint64_t tag) {
    if (tag == kRpcTag) {
      states.try_emplace(id);
    }
  };
  handlers.on_close = [&states](net::EventLoop::ConnId id) { states.erase(id); };
  // Scrape connections from the raw metrics listener: answer one request,
  // then close (responses carry Connection: close).
  handlers.on_data = [&loop](net::EventLoop::ConnId id, const util::Bytes& buffered) {
    auto response = obs::HandleRawHttp(
        std::string_view(reinterpret_cast<const char*>(buffered.data()), buffered.size()),
        obs::Registry::Global(), obs::TraceJournal::Global());
    if (!response) {
      return;  // request head still incomplete; keep buffering
    }
    loop->SendRaw(id, reinterpret_cast<const uint8_t*>(response->data()), response->size());
    loop->CloseConn(id);
  };
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
        EncodeBatchChunks(reply.op, request.round, {}, reply.items, config_.chunk_payload);
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
  if (!owned_loop || !owned_loop->AddListener(std::move(listener_), kRpcTag)) {
    VZ_LOG_ERROR << "dist shard " << config_.shard_index << ": reactor setup failed";
    return;
  }
  if (metrics_listener_ &&
      !owned_loop->AddListener(std::move(*metrics_listener_), kMetricsTag, /*raw=*/true)) {
    VZ_LOG_ERROR << "dist shard " << config_.shard_index << ": metrics listener setup failed";
    return;
  }
  loop = owned_loop.get();
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    if (stop_.load()) {
      return;  // Stop() ran before the loop was published
    }
    loop_ = owned_loop.get();
  }
  owned_loop->Run();
  std::lock_guard<std::mutex> lock(loop_mutex_);
  loop_ = nullptr;
}

void DistDaemon::ServeThreaded() {
  while (!stop_.load()) {
    auto conn = listener_.Accept();
    if (!conn) {
      break;  // listener closed (Stop) or unrecoverable accept error
    }
    ReapConnections(/*all=*/false);
    auto slot = std::make_unique<ConnSlot>();
    slot->conn = std::move(*conn);
    ConnSlot* raw = slot.get();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (stop_.load()) {
        // Stop() may have run between Accept() returning and this
        // registration; it could not see the connection, so cut it here.
        slot->conn.Shutdown();
      }
      conns_.push_back(std::move(slot));
      raw->thread = std::thread([this, raw] { ServeConnection(*raw); });
    }
  }
  ReapConnections(/*all=*/true);
}

void DistDaemon::Stop() {
  stop_.store(true);
  listener_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(loop_mutex_);
    if (loop_ != nullptr) {
      loop_->Stop();
    }
  }
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto& slot : conns_) {
    if (!slot->done.load()) {
      slot->conn.Shutdown();
    }
  }
}

void DistDaemon::ReapConnections(bool all) {
  std::vector<std::unique_ptr<ConnSlot>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || (*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock: a still-live thread (all=true) may be inside
  // ServeConnection, which never takes conns_mutex_, but keeping join
  // lock-free is cheap insurance.
  for (auto& slot : finished) {
    if (slot->thread.joinable()) {
      slot->thread.join();
    }
  }
}

void DistDaemon::ServeConnection(ConnSlot& slot) {
  net::TcpConnection& conn = slot.conn;
  if (config_.poll_interval_ms > 0) {
    conn.SetRecvTimeout(config_.poll_interval_ms);
  }
  for (;;) {
    auto frame = conn.RecvFrame();
    if (!frame) {
      if (conn.last_recv_status() == net::RecvStatus::kTimeout && !stop_.load()) {
        continue;
      }
      break;  // peer gone, garbage framing, or stopping
    }
    if (frame->type == net::FrameType::kShutdown) {
      // Orderly multi-process shutdown: stop the whole daemon, not just this
      // connection (the router owns the fleet's lifetime).
      Stop();
      break;
    }
    if (frame->type != net::FrameType::kInvitationPublish &&
        frame->type != net::FrameType::kInvitationFetch) {
      if (!SendError(conn, frame->round, "unsupported dist op")) {
        break;
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
        break;  // the connection itself failed mid-batch
      }
      if (!SendError(conn, 0, "malformed batch message")) {
        break;
      }
      continue;
    }
    if (!Dispatch(conn, std::move(*request))) {
      break;
    }
  }
  // Release the descriptor now rather than at the next Accept's reap: a
  // burst of downloaders must not pin file descriptors through an idle
  // period. Under conns_mutex_ so the close can never race Stop()'s
  // Shutdown() of not-yet-done slots (an fd reused between the two calls
  // would be shut down wrongly).
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conn.Close();
  slot.done.store(true);
}

bool DistDaemon::Dispatch(net::TcpConnection& conn, BatchMessage request) {
  RpcReply reply = HandleRequest(request);
  if (!reply.ok) {
    return SendError(conn, request.round, reply.error);
  }
  return SendBatchMessage(conn, reply.op, request.round, {}, reply.items, config_.chunk_payload);
}

DistDaemon::RpcReply DistDaemon::HandleRequest(const BatchMessage& request) {
  try {
    if (request.op == net::FrameType::kInvitationPublish) {
      return HandlePublish(request);
    }
    return HandleFetch(request);
  } catch (const std::exception& e) {
    VZ_LOG_WARN << "dist shard rpc failed (round " << request.round << "): " << e.what();
    RpcReply reply;
    reply.error = e.what();
    return reply;
  }
}

DistDaemon::RpcReply DistDaemon::HandlePublish(const BatchMessage& request) {
  RpcReply reply;
  auto fail = [&reply](const char* message) {
    reply.error = message;
    return reply;
  };
  auto header = ParseInvitationPublishHeader(request.header);
  if (!header) {
    return fail("malformed invitation-publish header");
  }
  if (header->shard_index != config_.shard_index || header->num_shards != config_.num_shards) {
    return fail("dist partition map mismatch");
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
      return fail("malformed published invitation");
    }
    if (parsed->dead_drop_index < range.begin || parsed->dead_drop_index >= range.end) {
      return fail("published invitation outside bucket range");
    }
    slice.buckets[parsed->dead_drop_index - range.begin].push_back(parsed->invitation);
  }

  // A horizon beyond the shard's memory bound must fail loudly: silently
  // clamping would make this shard expire rounds the router still routes
  // fetches to — a divergence from the in-process backend that would only
  // surface as sporadic unknown-round errors.
  if (header->keep_latest > config_.max_rounds) {
    return fail("keep_latest exceeds shard --max-rounds");
  }
  size_t held;
  {
    std::unique_lock<std::shared_mutex> lock(tables_mutex_);
    rounds_.Put(request.round, std::move(slice));
    rounds_.Expire(header->keep_latest);
    held = rounds_.size();
  }
  publishes_stored_.fetch_add(1);
  obs_publishes_->Add();
  obs_rounds_held_->Set(static_cast<int64_t>(held));
  char detail[96];
  std::snprintf(detail, sizeof detail, "shard=%u invitations=%zu held=%zu", config_.shard_index,
                request.items.size(), held);
  obs::TraceJournal::Global().Emit(request.round, "dist/publish", detail);
  reply.ok = true;
  reply.op = request.op;  // ack: same op, zero items
  return reply;
}

DistDaemon::RpcReply DistDaemon::HandleFetch(const BatchMessage& request) {
  RpcReply reply;
  auto fail = [&reply](const char* message) {
    reply.error = message;
    return reply;
  };
  auto header = ParseInvitationFetchHeader(request.header);
  if (!header) {
    return fail("malformed invitation-fetch header");
  }
  if (header->shard_index != config_.shard_index || header->num_shards != config_.num_shards) {
    return fail("dist partition map mismatch");
  }
  {
    std::shared_lock<std::shared_mutex> lock(tables_mutex_);
    const RoundSlice* found = rounds_.Find(request.round);
    if (found == nullptr) {
      return fail(kDistUnknownRoundError);
    }
    const RoundSlice& slice = *found;
    if (header->num_drops != slice.num_drops) {
      return fail("bucket map mismatch");
    }
    if (header->drop_index < slice.range_begin ||
        header->drop_index - slice.range_begin >= slice.buckets.size()) {
      return fail("bucket outside shard range");
    }
    uint32_t offset = header->drop_index - slice.range_begin;
    const auto& bucket = slice.buckets[offset];
    reply.items.reserve(bucket.size());
    for (const auto& invitation : bucket) {
      reply.items.emplace_back(invitation.begin(), invitation.end());
    }
  }
  fetches_served_.fetch_add(1);
  bytes_served_.fetch_add(reply.items.size() * wire::kInvitationSize);
  obs_fetches_->Add();
  obs_bytes_served_->Add(reply.items.size() * wire::kInvitationSize);
  reply.ok = true;
  reply.op = request.op;
  return reply;
}

}  // namespace vuvuzela::transport

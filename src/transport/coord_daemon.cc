#include "src/transport/coord_daemon.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/crypto/onion.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace vuvuzela::transport {

using Clock = std::chrono::steady_clock;
using util::SecondsSince;

namespace {

// Spaces a round's re-submissions so a fast-failing round (e.g. a hop
// reporting errors while its dependency restarts) cannot burn its whole
// attempt budget inside one short outage: retried rounds re-enter at
// admission-window cadence, not in a tight loop.
constexpr auto kRetryBackoff = std::chrono::milliseconds(100);

}  // namespace

CoordinatorDaemon::CoordinatorDaemon(CoordDaemonConfig config) : config_(std::move(config)) {
  auto& registry = obs::Registry::Global();
  obs_fetches_ = registry.GetCounter("vuvuzela_dialing_fetches_total",
                                     "Bucket downloads served through the coordinator");
  obs_fetch_bytes_ = registry.GetCounter("vuvuzela_dialing_fetch_bytes_total",
                                         "Invitation bytes served to downloaders (§5.5)");
  obs_retry_budget_ = registry.GetCounter(
      "vuvuzela_retry_budget_burned_total",
      "Round attempts that failed, each consuming one unit of the retry budget");
  obs_hop_reconnects_ = registry.GetCounter(
      "vuvuzela_hop_reconnects_total",
      "Hop-link reconnects after a connection failure (each re-sends the failed pass)");
  obs_banked_onions_ = registry.GetGauge(
      "vuvuzela_banked_onions",
      "Client onions banked for possible re-submission of in-flight rounds");
  obs_pending_rounds_ = registry.GetGauge("vuvuzela_pending_rounds",
                                          "Submitted rounds awaiting collection");
  obs_retry_depth_ = registry.GetGauge("vuvuzela_retry_queue_depth",
                                       "Failed rounds queued for re-submission");
  obs_rounds_refused_ = registry.GetCounter(
      "vuvuzela_privacy_rounds_refused_total",
      "Rounds refused before announcement because the privacy budget forbade them");
  obs_epsilon_spent_micro_ = registry.GetGauge(
      "vuvuzela_privacy_epsilon_spent_micro",
      "Composed cumulative epsilon spent, in micro-epsilon (Theorem 2)");
  obs_delta_spent_nano_ = registry.GetGauge(
      "vuvuzela_privacy_delta_spent_nano",
      "Composed cumulative delta spent, in nano-delta (Theorem 2)");
}

size_t CoordinatorDaemon::admission_dedup_rounds() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return admission_dedup_.size();
}

bool CoordinatorDaemon::Start() {
  if (config_.hops.empty() || config_.num_clients == 0 ||
      config_.scheduler.max_in_flight == 0) {
    return false;
  }
  if (config_.budget.epsilon_budget > 0.0) {
    try {
      accountant_.emplace(config_.budget);
    } catch (const std::exception& e) {
      VZ_LOG_ERROR << "coordinator: privacy budget misconfigured: " << e.what();
      return false;
    }
  }
  for (const auto& endpoint : config_.hops) {
    TcpTransportConfig transport_config;
    transport_config.host = endpoint.host;
    transport_config.port = endpoint.port;
    transport_config.recv_timeout_ms = config_.hop_timeout_ms;
    transport_config.connect_timeout_ms = config_.connect_timeout_ms;
    auto transport =
        std::make_unique<ReconnectingTransport>(transport_config, config_.reconnect,
                                                obs_hop_reconnects_);
    if (!transport->Connect()) {
      VZ_LOG_ERROR << "coordinator: hop " << endpoint.host << ":" << endpoint.port
                   << " unreachable";
      return false;
    }
    recon_hops_.push_back(transport.get());
    hop_transports_.push_back(std::move(transport));
  }
  // Clients fetch their buckets only once a dialing round is collected.
  // SubmitAttempt bounds the uncollected backlog to K+2 rounds (plus the one
  // being collected), so retaining K+4 publications guarantees a table can
  // never expire before its downloads run.
  size_t dist_keep_floor = config_.scheduler.max_in_flight + 4;
  if (config_.dist_keep_rounds < dist_keep_floor) {
    config_.dist_keep_rounds = dist_keep_floor;
  }
  if (!config_.dist.empty()) {
    DistRouterConfig dist_config;
    dist_config.shards = config_.dist;
    dist_config.recv_timeout_ms = config_.hop_timeout_ms;
    dist_config.connect_timeout_ms = config_.connect_timeout_ms;
    dist_config.keep_rounds = static_cast<uint32_t>(config_.dist_keep_rounds);
    auto router = DistRouter::Connect(dist_config);
    if (!router) {
      VZ_LOG_ERROR << "coordinator: dist shard fleet unreachable";
      return false;
    }
    dist_router_ = router.get();
    dist_backend_ = std::move(router);
  } else {
    dist_backend_ = std::make_unique<coord::InvitationDistributor>();
  }
  FrontDoorConfig door_config;
  door_config.port = config_.client_port;
  FrontDoorHandlers door_handlers;
  door_handlers.on_frame = [this](size_t index, net::Frame&& frame) {
    OnClientFrame(index, std::move(frame));
  };
  door_handlers.on_fetch = [this](size_t client, uint64_t round, util::Bytes payload) {
    net::Frame reply = BuildFetchReply(round, payload);
    std::lock_guard<std::mutex> lock(owed_fetch_mutex_);
    if (owed_fetches_.erase({round, client}) > 0) {
      owed_fetch_cv_.notify_all();
    }
    return reply;
  };
  door_handlers.on_disconnect = [this](size_t client) {
    {
      // A window waiting on "every live client contributed" must re-check.
      std::lock_guard<std::mutex> lock(admission_mutex_);
      admission_cv_.notify_all();
    }
    // A client that hung up owes no fetch.
    std::lock_guard<std::mutex> lock(owed_fetch_mutex_);
    std::erase_if(owed_fetches_, [client](const auto& owed) { return owed.second == client; });
    owed_fetch_cv_.notify_all();
  };
  front_door_ = FrontDoor::Create(door_config, std::move(door_handlers));
  if (!front_door_ || !front_door_->Start()) {
    front_door_.reset();
    return false;
  }
  if (config_.metrics_port >= 0) {
    metrics_server_ =
        obs::MetricsHttpServer::Start(static_cast<uint16_t>(config_.metrics_port));
    if (!metrics_server_) {
      VZ_LOG_ERROR << "coordinator: metrics port " << config_.metrics_port << " unavailable";
      return false;
    }
  }
  return true;
}

void CoordinatorDaemon::OnClientFrame(size_t index, net::Frame&& frame) {
  // Runs on the FrontDoor's reactor thread: fetches were already peeled off
  // to the blocking-safe worker, so everything here is a cheap admission
  // decision under admission_mutex_.
  if (frame.type == net::FrameType::kShutdown) {
    front_door_->Disconnect(index);  // client deregistering
    return;
  }
  bool conversation = frame.type == net::FrameType::kConversationRequest;
  bool dial = frame.type == net::FrameType::kDialRequest;
  if (!conversation && !dial) {
    return;
  }
  // Every hop drops an onion of the wrong size, so banking one (and
  // re-submitting it on retry) buys nothing; it is refused here and does not
  // take the client's slot, so a correctly sized resubmission still counts.
  size_t onion_size = crypto::OnionRequestSize(
      conversation ? wire::kExchangeRequestSize : wire::kDialRequestSize, config_.hops.size());
  if (frame.payload.size() != onion_size) {
    return;
  }
  std::lock_guard<std::mutex> lock(admission_mutex_);
  // Admission discipline (§3.1): only onions for the currently announced
  // round, while its window is open, enter the batch — at most one per
  // client, so duplicates cannot close the window early.
  bool type_matches = conversation ? admission_type_ == wire::RoundType::kConversation
                                   : admission_type_ == wire::RoundType::kDialing;
  auto dedup = admission_dedup_.find(frame.round);
  if (admission_open_ && frame.round == admission_round_ && type_matches &&
      dedup != admission_dedup_.end() && index < dedup->second.size() &&
      !dedup->second[index]) {
    dedup->second[index] = 1;
    admission_onions_.push_back(std::move(frame.payload));
    admission_contributors_.push_back(index);
    admission_cv_.notify_all();
  }
}

net::Frame CoordinatorDaemon::BuildFetchReply(uint64_t round, util::ByteSpan payload) {
  // Dialing download (§5.5): the coordinator proxies the bucket fetch
  // through the distribution backend for clients that have no direct
  // dist-fleet route. Runs on the FrontDoor's fetch worker; with a sharded
  // backend concurrent downloads serialize on the shard's dedicated fetch
  // link — never with the engine's publishes (DistRouter keeps the two
  // traffic classes on separate links).
  net::Frame reply;
  reply.round = round;
  if (payload.size() != 4 || dist_backend_ == nullptr) {
    reply.type = net::FrameType::kHopError;
    const char* what = "malformed invitation fetch";
    reply.payload.assign(what, what + std::strlen(what));
  } else {
    uint32_t bucket_index = util::LoadBe32(payload.data());
    bool known_dead = false;
    {
      std::lock_guard<std::mutex> lock(failed_fetch_mutex_);
      auto it = failed_fetch_buckets_.find(round);
      known_dead = it != failed_fetch_buckets_.end() && it->second.contains(bucket_index);
    }
    if (known_dead) {
      // One failed call per dead bucket per round, never one per fetching
      // client.
      reply.type = net::FrameType::kHopError;
      const char* what = "bucket unavailable this round";
      reply.payload.assign(what, what + std::strlen(what));
    } else {
      // Only served fetches are counted: a client fetching a bogus or
      // long-expired round gets an error reply, and that client-side mistake
      // must not read as a coordinator failure.
      try {
        std::vector<wire::Invitation> bucket = dist_backend_->Fetch(round, bucket_index);
        reply.type = net::FrameType::kInvitationDrop;
        reply.payload.reserve(bucket.size() * wire::kInvitationSize);
        for (const auto& invitation : bucket) {
          util::Append(reply.payload, invitation);
        }
        dialing_fetches_.fetch_add(1);
        dialing_fetch_bytes_.fetch_add(reply.payload.size());
        obs_fetches_->Add();
        obs_fetch_bytes_->Add(reply.payload.size());
      } catch (const HopRemoteError& e) {
        // The shard answered with a definitive report (fast, no deadline
        // paid): relay it without memoing — the shard is alive.
        reply.type = net::FrameType::kHopError;
        reply.payload.assign(e.what(), e.what() + std::strlen(e.what()));
      } catch (const HopError& e) {
        // A dead dist shard (connection-level failure on every attempt the
        // link's policy allows): memo the bucket so the fleet's remaining
        // fetches for it fail fast.
        {
          std::lock_guard<std::mutex> lock(failed_fetch_mutex_);
          failed_fetch_buckets_[round].insert(bucket_index);
          while (failed_fetch_buckets_.size() > 8) {
            failed_fetch_buckets_.erase(failed_fetch_buckets_.begin());
          }
        }
        reply.type = net::FrameType::kHopError;
        reply.payload.assign(e.what(), e.what() + std::strlen(e.what()));
      } catch (const std::exception& e) {
        // Cheap local failures (unknown/expired round) need no memo.
        reply.type = net::FrameType::kHopError;
        reply.payload.assign(e.what(), e.what() + std::strlen(e.what()));
      }
    }
  }
  return reply;
}

void CoordinatorDaemon::PruneAdmissionDedup(uint64_t announced_round) {
  // Same horizon the scheduler uses for hop-state expiry: once a round is
  // `keep` behind the newest announcement in its number space, it can no
  // longer complete — whether it finished or was abandoned on a dead hop —
  // so its dedup record is dead weight.
  uint64_t keep = engine::ExpireKeep(config_.scheduler);
  uint64_t base = announced_round >= coord::kDialingRoundBase ? coord::kDialingRoundBase : 0;
  if (announced_round - base <= keep) {
    return;
  }
  admission_dedup_.erase(admission_dedup_.lower_bound(base),
                         admission_dedup_.lower_bound(announced_round - keep));
}

std::pair<std::vector<util::Bytes>, std::vector<size_t>> CoordinatorDaemon::CloseAdmission() {
  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         config_.admission_window_seconds));
  std::unique_lock<std::mutex> lock(admission_mutex_);
  admission_cv_.wait_until(lock, deadline, [this] {
    return admission_onions_.size() >= front_door_->alive();
  });
  admission_open_ = false;
  return {std::move(admission_onions_), std::move(admission_contributors_)};
}

void CoordinatorDaemon::CollectLoop(CoordDaemonResult& result) {
  for (;;) {
    PendingRound round;
    {
      std::unique_lock<std::mutex> lock(pending_mutex_);
      pending_cv_.wait(lock, [this] { return !pending_.empty() || submitting_done_; });
      if (pending_.empty()) {
        return;
      }
      round = std::move(pending_.front());
      pending_.pop_front();
      obs_pending_rounds_->Set(static_cast<int64_t>(pending_.size()));
      // Wake an announcer blocked on the pending bound (SubmitAttempt).
      pending_cv_.notify_all();
    }
    try {
      if (round.announcement.type == wire::RoundType::kDialing) {
        // The scheduler drives the lifecycle's Complete transition (and the
        // Distribute stage that published the round's invitation table) as
        // the final pass finishes; this thread resolves the accounting and
        // the download side.
        round.dialing.get();
        ++result.dialing_rounds_completed;
        // Acknowledge the round to contributing clients; they follow up with
        // kInvitationFetch for their bucket (BuildFetchReply), which the
        // teardown waits for.
        {
          const uint64_t number = round.announcement.round;
          std::lock_guard<std::mutex> lock(owed_fetch_mutex_);
          std::erase_if(owed_fetches_, [&](const auto& owed) {
            return owed.first + config_.dist_keep_rounds <= number;  // no longer held
          });
          for (size_t contributor : round.contributors) {
            owed_fetches_.insert({number, contributor});
          }
        }
        for (size_t contributor : round.contributors) {
          front_door_->Send(contributor,
                            net::Frame{net::FrameType::kDialAck, round.announcement.round, {}});
        }
      } else {
        mixnet::Chain::ConversationResult conversation = round.conversation.get();
        result.messages_exchanged += conversation.messages_exchanged;
        ++result.conversation_rounds_completed;
        for (size_t slot = 0; slot < round.contributors.size(); ++slot) {
          front_door_->Send(round.contributors[slot],
                            net::Frame{net::FrameType::kConversationResponse,
                                       round.announcement.round,
                                       std::move(conversation.responses[slot])});
        }
      }
    } catch (const std::exception& e) {
      obs_retry_budget_->Add();
      if (round.attempt < config_.max_round_attempts) {
        // Recovery: re-enqueue the banked onions under the SAME round number
        // for the announcing thread to re-submit into the next admission
        // window. A crash costs latency, not messages.
        lifecycle_.Retrying(round.announcement.round, e.what());
        VZ_LOG_WARN << "coordinator: retrying round " << round.announcement.round
                    << " (attempt " << round.attempt << "): " << e.what();
        ++result.rounds_retried;
        ++round.attempt;
        round.not_before = Clock::now() + kRetryBackoff;
        round.conversation = {};
        round.dialing = {};
        {
          std::lock_guard<std::mutex> lock(retry_mutex_);
          retry_queue_.push_back(std::move(round));
          obs_retry_depth_->Set(static_cast<int64_t>(retry_queue_.size()));
        }
        retry_cv_.notify_all();
        continue;
      }
      // Bounded abandonment: the retry budget is exhausted (or retries are
      // disabled); the scheduler's expiry path reclaims the round's state at
      // the surviving hops.
      lifecycle_.Abandon(round.announcement.round, e.what());
      ++result.rounds_abandoned;
      VZ_LOG_WARN << "coordinator: abandoning round " << round.announcement.round << " after "
                  << round.attempt << " attempts: " << e.what();
    }
    // Terminal state reached (complete or abandoned): the banked onions are
    // released. Rounds re-queued for retry above never reach here.
    obs_banked_onions_->Add(-static_cast<int64_t>(round.onions.size()));
    {
      std::lock_guard<std::mutex> lock(retry_mutex_);
      --unresolved_rounds_;
    }
    retry_cv_.notify_all();
  }
}

void CoordinatorDaemon::SupervisorLoop() {
  // Between rounds, proactively reconnect dead hop links so a restarted
  // daemon rejoins the schedule before the next pass needs it. Probe() never
  // blocks on an in-flight RPC and honors each transport's backoff window.
  std::unique_lock<std::mutex> lock(supervisor_mutex_);
  while (!supervisor_stop_) {
    supervisor_cv_.wait_for(lock, std::chrono::milliseconds(config_.supervisor_interval_ms),
                            [this] { return supervisor_stop_; });
    if (supervisor_stop_) {
      return;
    }
    lock.unlock();
    for (ReconnectingTransport* hop : recon_hops_) {
      hop->Probe();
    }
    lock.lock();
  }
}

void CoordinatorDaemon::SubmitAttempt(engine::RoundScheduler& scheduler, PendingRound round) {
  {
    // Backpressure the announcer against the collector: the scheduler's K
    // bound covers rounds in flight, not rounds completed-but-uncollected,
    // and clients download a dialing round's buckets only once the collector
    // has acknowledged it. Without this bound a slow collector could lag
    // arbitrarily far behind — far enough for a published invitation table
    // to expire before its downloads ran.
    std::unique_lock<std::mutex> lock(pending_mutex_);
    pending_cv_.wait(lock, [this] {
      return pending_.size() < config_.scheduler.max_in_flight + 2;
    });
  }
  std::vector<util::Bytes> batch;
  if (round.attempt < config_.max_round_attempts) {
    batch = round.onions;  // bank for further attempts
    if (round.attempt == 1) {
      obs_banked_onions_->Add(static_cast<int64_t>(batch.size()));
    }
  } else {
    batch = std::move(round.onions);
    round.onions.clear();
    if (config_.max_round_attempts > 1) {
      // The final attempt ships the bank itself; nothing is held back.
      obs_banked_onions_->Add(-static_cast<int64_t>(batch.size()));
    }
  }
  // Submit blocks while K rounds are in flight — the §8.3 backpressure.
  if (round.announcement.type == wire::RoundType::kConversation) {
    round.conversation = scheduler.SubmitConversation(round.announcement.round, std::move(batch));
  } else {
    round.dialing = scheduler.SubmitDialing(round.announcement.round, std::move(batch),
                                            round.announcement.num_dial_dead_drops);
  }
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.push_back(std::move(round));
    obs_pending_rounds_->Set(static_cast<int64_t>(pending_.size()));
  }
  pending_cv_.notify_one();
}

void CoordinatorDaemon::SubmitRetries(engine::RoundScheduler& scheduler) {
  for (;;) {
    PendingRound retry;
    {
      std::lock_guard<std::mutex> lock(retry_mutex_);
      // Failures are timestamped in collection order, so the queue is sorted
      // by not_before: a not-yet-due head means nothing later is due either.
      if (retry_queue_.empty() || Clock::now() < retry_queue_.front().not_before) {
        return;
      }
      retry = std::move(retry_queue_.front());
      retry_queue_.pop_front();
      obs_retry_depth_->Set(static_cast<int64_t>(retry_queue_.size()));
    }
    SubmitAttempt(scheduler, std::move(retry));
  }
}

CoordDaemonResult CoordinatorDaemon::Run() {
  CoordDaemonResult result;

  // The reactor has been accepting since Start(); rounds begin once the
  // expected fleet is registered (disconnected clients keep their index).
  front_door_->WaitForClients(config_.num_clients);

  // The scheduler drives the pipeline phases of the shared round lifecycle;
  // this daemon drives announcements and the failure policy.
  engine::SchedulerConfig scheduler_config = config_.scheduler;
  scheduler_config.lifecycle = &lifecycle_;
  // The engine owns the Distribute stage: every dialing round's table is
  // published through the backend before the round completes.
  scheduler_config.distribution = dist_backend_.get();
  scheduler_config.distribution_keep = config_.dist_keep_rounds;
  engine::RoundScheduler scheduler(std::move(hop_transports_), scheduler_config);
  coord::RoundSchedule schedule(config_.schedule);
  std::thread collector([this, &result] { CollectLoop(result); });
  if (config_.supervisor_interval_ms > 0) {
    supervisor_ = std::thread([this] { SupervisorLoop(); });
  }

  auto start = Clock::now();
  for (uint64_t i = 0; i < config_.total_rounds; ++i) {
    // Recovered rounds rejoin ahead of the next admission window.
    SubmitRetries(scheduler);

    wire::RoundAnnouncement announcement = schedule.Next();
    if (accountant_) {
      // The budget gate runs before Announce: a refused round is never
      // admitted, never announced, and never reaches the hops — the §6.4
      // "shut down after k rounds" policy enforced per round.
      bool admitted = announcement.type == wire::RoundType::kConversation
                          ? accountant_->AdmitConversation()
                          : accountant_->AdmitDialing();
      noise::PrivacyBound spent = accountant_->Spent();
      obs_epsilon_spent_micro_->Set(static_cast<int64_t>(std::llround(spent.epsilon * 1e6)));
      obs_delta_spent_nano_->Set(static_cast<int64_t>(std::llround(spent.delta * 1e9)));
      char detail[128];
      std::snprintf(detail, sizeof detail,
                    "type=%s eps_spent=%.4f/%.4f delta_spent=%.3g/%.3g",
                    announcement.type == wire::RoundType::kConversation ? "conv" : "dialing",
                    spent.epsilon, config_.budget.epsilon_budget, spent.delta,
                    config_.budget.delta_budget);
      if (!admitted) {
        ++result.rounds_refused;
        obs_rounds_refused_->Add();
        obs::TraceJournal::Global().Emit(announcement.round, "budget/refused", detail);
        VZ_LOG_WARN << "coordinator: refusing round " << announcement.round
                    << " (privacy budget exhausted or per-round bound violated): " << detail;
        continue;
      }
      obs::TraceJournal::Global().Emit(announcement.round, "budget/charged", detail);
    }
    lifecycle_.Announce(announcement.round, announcement.type);
    {
      char detail[96];
      std::snprintf(detail, sizeof detail, "type=%s window=%.3f clients=%zu",
                    announcement.type == wire::RoundType::kConversation ? "conv" : "dialing",
                    config_.admission_window_seconds, front_door_->alive());
      obs::TraceJournal::Global().Emit(announcement.round, "admission/open", detail);
    }
    {
      std::lock_guard<std::mutex> lock(retry_mutex_);
      ++unresolved_rounds_;
    }
    PendingRound pending;
    pending.announcement = announcement;

    {
      std::lock_guard<std::mutex> lock(admission_mutex_);
      admission_open_ = true;
      admission_round_ = announcement.round;
      admission_type_ = announcement.type;
      admission_onions_.clear();
      admission_contributors_.clear();
      admission_dedup_[announcement.round].assign(front_door_->clients_seen(), 0);
      PruneAdmissionDedup(announcement.round);
    }
    front_door_->Broadcast(net::Frame{net::FrameType::kRoundAnnouncement, announcement.round,
                                      announcement.Serialize()});
    auto closed = CloseAdmission();
    pending.onions = std::move(closed.first);
    pending.contributors = std::move(closed.second);
    {
      char detail[64];
      std::snprintf(detail, sizeof detail, "onions=%zu", pending.onions.size());
      obs::TraceJournal::Global().Emit(announcement.round, "admission/close", detail);
    }
    SubmitAttempt(scheduler, std::move(pending));
  }

  // Tail drain: keep re-submitting recovered rounds until every announced
  // round reaches a terminal state (Complete or Abandoned).
  for (;;) {
    Clock::time_point not_before;
    {
      std::unique_lock<std::mutex> lock(retry_mutex_);
      retry_cv_.wait(lock,
                     [this] { return !retry_queue_.empty() || unresolved_rounds_ == 0; });
      if (retry_queue_.empty()) {
        if (unresolved_rounds_ == 0) {
          break;
        }
        continue;
      }
      not_before = retry_queue_.front().not_before;
    }
    std::this_thread::sleep_until(not_before);
    SubmitRetries(scheduler);
  }

  scheduler.Drain();
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    submitting_done_ = true;
  }
  pending_cv_.notify_all();
  collector.join();
  if (supervisor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(supervisor_mutex_);
      supervisor_stop_ = true;
    }
    supervisor_cv_.notify_all();
    supervisor_.join();
  }
  result.wall_seconds = SecondsSince(start);

  // Orderly cascade: answer the bucket fetches still owed for acked dialing
  // rounds (bounded, for clients that never fetch), announce shutdown, give
  // clients a beat to hang up themselves, cut the stragglers, then stop the
  // reactor.
  {
    std::unique_lock<std::mutex> lock(owed_fetch_mutex_);
    owed_fetch_cv_.wait_for(lock, std::chrono::seconds(2),
                            [this] { return owed_fetches_.empty(); });
  }
  front_door_->CloseClients(net::Frame{net::FrameType::kShutdown, 0, {}}, /*grace_ms=*/2000);
  front_door_->Shutdown();

  if (config_.shutdown_hops_on_exit) {
    for (ReconnectingTransport* hop : recon_hops_) {
      hop->SendShutdown();
    }
    if (dist_router_ != nullptr) {
      dist_router_->SendShutdown();
    }
  }
  recon_hops_.clear();

  result.dialing_fetches = dialing_fetches_.load();
  result.dialing_fetch_bytes = dialing_fetch_bytes_.load();
  if (accountant_) {
    noise::PrivacyBound spent = accountant_->Spent();
    result.epsilon_spent = spent.epsilon;
    result.delta_spent = spent.delta;
  }
  return result;
}

}  // namespace vuvuzela::transport

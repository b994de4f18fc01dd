#include "src/transport/coord_daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "src/crypto/onion.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace vuvuzela::transport {

using Clock = std::chrono::steady_clock;

// How often the supervisor probes disconnected hop links: often enough for
// a restarted hopd to rejoin within a round or two, rare enough that probing
// costs nothing beside the rounds themselves.
constexpr auto kSupervisorInterval = std::chrono::milliseconds(100);

CoordinatorDaemon::CoordinatorDaemon(CoordDaemonConfig config) : config_(std::move(config)) {
  auto& registry = obs::Registry::Global();
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
  std::lock_guard<std::mutex> lock(mutex_);
  return policy_ ? policy_->dedup_rounds() : 0;
}

bool CoordinatorDaemon::Start() {
  if (config_.hops.empty() || config_.num_clients == 0 ||
      config_.scheduler.max_in_flight == 0) {
    return false;
  }
  coord::RoundPolicyConfig policy;
  policy.schedule = config_.schedule;
  policy.total_rounds = config_.total_rounds;
  policy.max_in_flight = config_.scheduler.max_in_flight;
  policy.expire_keep = engine::ExpireKeep(config_.scheduler);
  policy.admission_window_seconds = config_.admission_window_seconds;
  policy.conversation_onion_size =
      crypto::OnionRequestSize(wire::kExchangeRequestSize, config_.hops.size());
  policy.dialing_onion_size = crypto::OnionRequestSize(wire::kDialRequestSize, config_.hops.size());
  policy.max_round_attempts = config_.max_round_attempts;
  policy.budget = config_.budget;
  try {
    policy_.emplace(policy);
  } catch (const std::exception& e) {
    VZ_LOG_ERROR << "coordinator: privacy budget misconfigured: " << e.what();
    return false;
  }
  for (const auto& endpoint : config_.hops) {
    TcpTransportConfig link{.host = endpoint.host, .port = endpoint.port};
    link.recv_timeout_ms = config_.hop_timeout_ms;
    link.connect_timeout_ms = config_.connect_timeout_ms;
    auto transport =
        std::make_unique<ReconnectingTransport>(link, config_.reconnect, obs_hop_reconnects_);
    if (!transport->Connect()) {
      VZ_LOG_ERROR << "coordinator: hop " << endpoint.host << ":" << endpoint.port
                   << " unreachable";
      return false;
    }
    recon_hops_.push_back(transport.get());
    hop_transports_.push_back(std::move(transport));
  }
  if (!config_.dist.empty()) {
    DistRouterConfig dist_config;
    dist_config.shards = config_.dist;
    dist_config.recv_timeout_ms = config_.hop_timeout_ms;
    dist_config.connect_timeout_ms = config_.connect_timeout_ms;
    dist_config.keep_rounds = static_cast<uint32_t>(policy_->dist_keep());
    dist_router_ = DistRouter::Connect(dist_config);
    if (!dist_router_) {
      VZ_LOG_ERROR << "coordinator: dist shard fleet unreachable";
      return false;
    }
  }
  FrontDoorHandlers door_handlers;
  door_handlers.on_frame = [this](size_t index, net::Frame&& frame) {
    // Admission runs on the reactor thread: a cheap decision under the lock.
    if (frame.type == net::FrameType::kShutdown) {
      front_door_->Disconnect(index);  // client deregistering
      return;
    }
    bool conversation = frame.type == net::FrameType::kConversationRequest;
    if (!conversation && frame.type != net::FrameType::kDialRequest) {
      return;
    }
    auto type = conversation ? wire::RoundType::kConversation : wire::RoundType::kDialing;
    std::lock_guard<std::mutex> lock(mutex_);
    if (policy_->Admit(index, type, frame.round, std::move(frame.payload))) {
      cv_.notify_all();
    }
  };
  door_handlers.on_disconnect = [this](size_t client) {
    std::lock_guard<std::mutex> lock(mutex_);
    policy_->ClientDisconnected(client);
    cv_.notify_all();
  };
  // Clients send onions only, so a frame announcing more than the larger
  // onion is cut off at its header.
  FrontDoorConfig door_config{.port = config_.client_port};
  door_config.max_frame_payload =
      std::max(policy.conversation_onion_size, policy.dialing_onion_size);
  front_door_ = FrontDoor::Create(door_config, std::move(door_handlers));
  if (!front_door_ || !front_door_->Start()) {
    front_door_.reset();
    return false;
  }
  return true;
}

void CoordinatorDaemon::PublishGauges() {
  obs_banked_onions_->Set(static_cast<int64_t>(policy_->banked_onions()));
  obs_pending_rounds_->Set(static_cast<int64_t>(policy_->pending_rounds()));
  obs_retry_depth_->Set(static_cast<int64_t>(policy_->retry_depth()));
}

void CoordinatorDaemon::SubmitAttempt(std::unique_lock<std::mutex>& lock,
                                      engine::RoundScheduler& scheduler, coord::Attempt attempt) {
  PublishGauges();  // the attempt's bank
  const wire::RoundAnnouncement round = attempt.announcement;
  Submission submission;
  lock.unlock();
  if (round.type == wire::RoundType::kConversation) {
    submission.conversation = scheduler.SubmitConversation(round.round, std::move(attempt.onions));
  } else {
    submission.dialing = scheduler.SubmitDialing(round.round, std::move(attempt.onions),
                                                 round.num_dial_dead_drops);
  }
  lock.lock();
  submissions_.emplace(round.round, std::move(submission));
  cv_.notify_all();
}

void CoordinatorDaemon::CollectLoop(CoordDaemonResult& result) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return policy_->pending_rounds() > 0 || policy_->Done(); });
    std::optional<wire::RoundAnnouncement> round = policy_->Collect();
    if (!round) {
      return;  // every round is terminal
    }
    // Its attempt may still be on its way into the scheduler.
    cv_.wait(lock, [&] { return submissions_.contains(round->round); });
    Submission submission = std::move(submissions_.extract(round->round).mapped());
    PublishGauges();
    cv_.notify_all();  // room under the backlog bound
    lock.unlock();
    // The scheduler drives the lifecycle's pipeline phases, Complete
    // included; the failure transitions are the policy's.
    std::optional<mixnet::Chain::ConversationResult> conversation;
    std::optional<std::string> error;
    try {
      if (round->type == wire::RoundType::kDialing) {
        submission.dialing.get();
      } else {
        conversation = submission.conversation.get();
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    lock.lock();
    coord::Settlement settlement = policy_->Finish(round->round, !error, Clock::now());
    PublishGauges();
    cv_.notify_all();
    if (settlement.kind != coord::Settlement::Kind::kDeliver) {
      // Recorded under the lock, so a retry cannot be re-submitted ahead of
      // its Retrying transition.
      obs_retry_budget_->Add();
      if (settlement.kind == coord::Settlement::Kind::kRetry) {
        ++result.rounds_retried;
        lifecycle_.Retrying(round->round, *error);
        VZ_LOG_WARN << "coordinator: retrying round " << round->round << " (attempt "
                    << settlement.attempt << "): " << *error;
      } else {
        ++result.rounds_abandoned;
        lifecycle_.Abandon(round->round, *error);
        VZ_LOG_WARN << "coordinator: abandoning round " << round->round << " after "
                    << settlement.attempt << " attempts: " << *error;
      }
      continue;
    }
    lock.unlock();
    if (round->type == wire::RoundType::kDialing) {
      // Contributors follow the ack with their bucket download from distd.
      ++result.dialing_rounds_completed;
      for (size_t contributor : settlement.contributors) {
        front_door_->Send(contributor, net::Frame{net::FrameType::kDialAck, round->round, {}});
      }
    } else {
      result.messages_exchanged += conversation->messages_exchanged;
      ++result.conversation_rounds_completed;
      for (size_t slot = 0; slot < settlement.contributors.size(); ++slot) {
        front_door_->Send(settlement.contributors[slot],
                          net::Frame{net::FrameType::kConversationResponse, round->round,
                                     std::move(conversation->responses[slot])});
      }
    }
    lock.lock();
  }
}

CoordDaemonResult CoordinatorDaemon::Run() {
  CoordDaemonResult result;
  // Rounds begin once the expected fleet is registered.
  front_door_->WaitForClients(config_.num_clients);
  engine::SchedulerConfig scheduler_config = config_.scheduler;
  scheduler_config.lifecycle = &lifecycle_;
  scheduler_config.distribution = dist_router_.get();
  scheduler_config.distribution_keep = policy_->dist_keep();
  engine::RoundScheduler scheduler(std::move(hop_transports_), scheduler_config);
  std::thread collector([this, &result] { CollectLoop(result); });
  std::thread supervisor([this] {
    // Reconnects dead hop links between rounds, so a restarted hop rejoins
    // before the next pass needs it. Probe() never blocks on an RPC.
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, kSupervisorInterval, [this] { return policy_->Done(); })) {
      lock.unlock();
      for (ReconnectingTransport* hop : recon_hops_) {
        hop->Probe();
      }
      lock.lock();
    }
  });

  auto start = Clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  while (!policy_->Done()) {
    // Recovered rounds rejoin ahead of the next announcement.
    if (std::optional<coord::Attempt> retry = policy_->TakeDueRetry(Clock::now())) {
      SubmitAttempt(lock, scheduler, std::move(*retry));
      continue;
    }
    std::optional<coord::Announcement> next =
        policy_->Announce(Clock::now(), front_door_->clients_seen());
    if (!next) {
      // Held by the backlog bound or a retry's backoff, or past the last
      // announcement with rounds still in flight.
      if (std::optional<Clock::time_point> wake = policy_->NextRetry()) {
        cv_.wait_until(lock, *wake);
      } else {
        cv_.wait(lock);
      }
      continue;
    }
    const wire::RoundAnnouncement& round = next->round;
    const char* type = round.type == wire::RoundType::kConversation ? "conv" : "dialing";
    char detail[128];
    if (next->spent) {
      // The budget gate ran before Announce (§6.4: "shut down after k
      // rounds", enforced per round).
      result.epsilon_spent = next->spent->epsilon;
      result.delta_spent = next->spent->delta;
      obs_epsilon_spent_micro_->Set(std::llround(next->spent->epsilon * 1e6));
      obs_delta_spent_nano_->Set(std::llround(next->spent->delta * 1e9));
      std::snprintf(detail, sizeof detail, "type=%s eps_spent=%.4f/%.4f delta_spent=%.3g/%.3g",
                    type, next->spent->epsilon, config_.budget.epsilon_budget,
                    next->spent->delta, config_.budget.delta_budget);
      obs::TraceJournal::Global().Emit(round.round,
                                       next->refused ? "budget/refused" : "budget/charged", detail);
      if (next->refused) {
        ++result.rounds_refused;
        obs_rounds_refused_->Add();
        VZ_LOG_WARN << "coordinator: refusing round " << round.round
                    << " (privacy budget exhausted or per-round bound violated): " << detail;
        continue;
      }
    }
    lifecycle_.Announce(round.round, round.type);
    std::snprintf(detail, sizeof detail, "type=%s window=%.3f clients=%zu", type,
                  config_.admission_window_seconds, front_door_->alive());
    obs::TraceJournal::Global().Emit(round.round, "admission/open", detail);
    front_door_->Broadcast(
        net::Frame{net::FrameType::kRoundAnnouncement, round.round, round.Serialize()});
    std::optional<coord::Attempt> batch;
    while (!(batch = policy_->CloseAdmission(Clock::now()))) {
      cv_.wait_until(lock, policy_->admission_deadline());
    }
    std::snprintf(detail, sizeof detail, "onions=%zu", batch->onions.size());
    obs::TraceJournal::Global().Emit(round.round, "admission/close", detail);
    SubmitAttempt(lock, scheduler, std::move(*batch));
  }
  lock.unlock();
  scheduler.Drain();
  collector.join();
  supervisor.join();
  result.wall_seconds = util::SecondsSince(start);

  // Orderly cascade: the clients, the reactor, then optionally the hops and
  // dist shards. No bucket download is cut short: a client finishes the
  // fetch that follows its ack before it reads kShutdown, and CloseClients
  // waits for every client to hang up before the shards get theirs.
  front_door_->CloseClients(net::Frame{net::FrameType::kShutdown, 0, {}}, /*grace_ms=*/2000);
  front_door_->Shutdown();
  if (config_.shutdown_hops_on_exit) {
    for (ReconnectingTransport* hop : recon_hops_) {
      hop->SendShutdown();
    }
    if (dist_router_) {
      dist_router_->SendShutdown();
    }
  }
  recon_hops_.clear();
  return result;
}

}  // namespace vuvuzela::transport

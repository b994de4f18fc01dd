// The coordinator process (§7).
//
// In the paper's deployment the first server coordinates rounds: it announces
// the round number, holds the admission window open while clients submit
// onions, closes the batch, and pushes it down the chain. CoordinatorDaemon
// is that process for the hop-transport deployment: it connects one
// ReconnectingTransport per remote hop, drives rounds through engine::RoundScheduler
// (K in flight, §8.3), and multiplexes client connections — the untrusted
// entry-server role folded in, seeing only onion ciphertexts.
//
// Failure model: each hop link carries a receive deadline, so a hop that
// stops answering fails the rounds that touch it (HopTimeoutError through
// the round future, once the link's policy has no re-send left) instead of
// wedging the pipeline. Recovery is part of the round state machine
// (engine::RoundLifecycle), in three layers:
//
//  1. The link's policy. Every hop connection is one transport::PeerLink
//     under the configured ReconnectPolicy (bounded-backoff reconnect and
//     in-call re-send, idempotent thanks to the hop daemons' replay slots;
//     peer_link.h), counted in vuvuzela_hop_reconnects_total, and a
//     connection supervisor thread Probe()s disconnected hops between
//     rounds, so a restarted vuvuzela-hopd rejoins mid-schedule.
//  2. Onion re-submission. The coordinator banks every admitted round's
//     client onions until the round completes; a round that still fails
//     (kRetrying) is re-enqueued into the next admission window as the SAME
//     round number with the SAME onions (onions are round-bound by the
//     onion nonce), up to max_round_attempts. A crash costs latency, never
//     messages.
//  3. Bounded abandonment. A hop that never comes back exhausts the retry
//     budget and the round is abandoned (kAbandoned) — the pre-existing
//     accounting — and the scheduler's expiry path reclaims its state at
//     the surviving hops.
//
// Admission: num_clients TCP clients connect through the FrontDoor and
// submit onions inside a per-round admission window (clients that miss it
// are excluded from the batch). The coordinator holds no chain keys: it
// admits only onions of the chain's request size for the round type, and a
// missized frame does not take the client's slot. §8.1's simulated users are
// a client fleet on the far side of the socket (sim::RunClientFleet).

#ifndef VUVUZELA_SRC_TRANSPORT_COORD_DAEMON_H_
#define VUVUZELA_SRC_TRANSPORT_COORD_DAEMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/noise/accountant.h"
#include "src/coord/distributor.h"
#include "src/engine/round_lifecycle.h"
#include "src/engine/round_scheduler.h"
#include "src/net/tcp.h"
#include "src/obs/http.h"
#include "src/transport/dist_router.h"
#include "src/transport/front_door.h"
#include "src/transport/reconnecting_transport.h"

namespace vuvuzela::obs {
class Counter;
class Gauge;
}  // namespace vuvuzela::obs

namespace vuvuzela::transport {

struct CoordDaemonConfig {
  std::vector<net::Endpoint> hops;
  engine::SchedulerConfig scheduler;
  coord::ScheduleConfig schedule;
  uint64_t total_rounds = 20;
  // Admission window per round (§3.1): the longest the coordinator waits for
  // submissions. It closes early once every live client has contributed.
  double admission_window_seconds = 0.05;
  // Receive deadline per hop RPC — the dead-hop detector.
  int hop_timeout_ms = 10000;
  // Connect deadline per hop (re)connect attempt.
  int connect_timeout_ms = 5000;
  // On exit, send kShutdown to every hop daemon and dist shard
  // (multi-process deployments; the last hop cascades to its exchange
  // partitions).
  bool shutdown_hops_on_exit = false;

  // Invitation distribution (§5.5). Non-empty: the engine's Distribute stage
  // publishes each dialing round's table to these vuvuzela-distd shards
  // through a DistRouter. Empty: an in-process InvitationDistributor — the
  // same engine-driven path, single-process. Either way the coordinator
  // serves kInvitationFetch to its clients.
  std::vector<net::Endpoint> dist;
  // Publications each distribution backend keeps.
  size_t dist_keep_rounds = 4;

  // Fault tolerance (see the class comment). max_round_attempts = 1 restores
  // the pre-recovery abandon-on-first-failure behavior; supervisor interval
  // 0 disables the background reconnect probes (in-call reconnect remains).
  ReconnectPolicy reconnect;
  uint32_t max_round_attempts = 3;
  int supervisor_interval_ms = 100;

  // Client admission. Rounds begin once num_clients (>= 1) clients have
  // connected. The client edge is a net::EventLoop reactor
  // (transport::FrontDoor): one thread serves every client, and one
  // connection multiplexes submissions and bucket fetches by frame type.
  uint16_t client_port = 0;  // 0 picks an ephemeral port
  size_t num_clients = 0;

  // /metrics + /trace HTTP port: < 0 disables it, 0 picks an ephemeral port
  // (metrics_port() reports the binding). Start() opens it last, once the
  // hop, dist and client connections are up.
  int metrics_port = -1;

  // ε/δ budget accountant (§6): budget.epsilon_budget > 0 arms it, and the
  // coordinator then refuses — before announcement — any round whose charge
  // would push the composed cumulative bound past the budget. The noise
  // parameters must mirror what the hop daemons actually add (vuvuzela-hopd
  // derives {µ, µ/20 + 1} from --mu); a degenerate configuration (b <= 0)
  // fails Start(). Refusals surface in the result, the
  // vuvuzela_privacy_rounds_refused_total counter, and a budget/refused
  // trace span.
  noise::BudgetAccountantConfig budget;
};

struct CoordDaemonResult {
  uint64_t conversation_rounds_completed = 0;
  uint64_t dialing_rounds_completed = 0;
  uint64_t rounds_abandoned = 0;
  // Dialing download fan-out (§5.5/§8.3): bucket fetches the coordinator
  // served for its clients, and the bytes they transferred. Clients fetch
  // on their own schedule, so nothing here counts fetches owed.
  uint64_t dialing_fetches = 0;
  uint64_t dialing_fetch_bytes = 0;
  // Re-submissions of failed rounds (a round retried twice counts twice).
  uint64_t rounds_retried = 0;
  uint64_t messages_exchanged = 0;
  // Budget accountant (when armed): rounds refused before announcement and
  // the composed cumulative (ε', δ') actually spent.
  uint64_t rounds_refused = 0;
  double epsilon_spent = 0.0;
  double delta_spent = 0.0;
  double wall_seconds = 0.0;
};

class CoordinatorDaemon {
 public:
  explicit CoordinatorDaemon(CoordDaemonConfig config);

  // Connects every hop and binds the client listener. False if the config
  // has no hops, no clients or K = 0, if a hop is unreachable, or if a
  // listener cannot bind.
  bool Start();

  // Valid after Start().
  uint16_t client_port() const { return front_door_ ? front_door_->port() : 0; }

  // Bound /metrics port (valid after Start()); 0 when disabled.
  uint16_t metrics_port() const { return metrics_server_ ? metrics_server_->port() : 0; }

  // Waits for the clients, announces and drives all rounds, drains the
  // pipeline, and shuts clients (and optionally hops) down.
  CoordDaemonResult Run();

  // Rounds with a live admission-dedup record. Bounded by the
  // round-expiry window however many rounds were announced or abandoned; the
  // dedup-pruning regression test pins that down.
  size_t admission_dedup_rounds() const;

  // Live view of the per-round state machine (poll-safe from other threads;
  // the recovery tests use it to time failure injection).
  const engine::RoundLifecycle& lifecycle() const { return lifecycle_; }

 private:
  struct PendingRound {
    wire::RoundAnnouncement announcement;
    std::vector<size_t> contributors;  // client index per batch slot
    // Banked onions: held until the round completes so a failed round can be
    // re-submitted with the identical batch (onions are round-bound).
    std::vector<util::Bytes> onions;
    uint32_t attempt = 1;
    // Earliest re-submission time (retry backoff).
    std::chrono::steady_clock::time_point not_before{};
    std::future<mixnet::Chain::ConversationResult> conversation;
    std::future<mixnet::Chain::DialingResult> dialing;
  };

  // FrontDoor admission handler (reactor loop thread): one client's
  // kConversationRequest / kDialRequest / kShutdown frame.
  void OnClientFrame(size_t index, net::Frame&& frame);
  // Builds the reply to one client's kInvitationFetch through the
  // distribution backend (the coordinator proxies for TCP clients that have
  // no dist-fleet route). Runs on the FrontDoor fetch worker.
  net::Frame BuildFetchReply(uint64_t round, util::ByteSpan payload);
  // Submits one attempt of a round into the scheduler and enqueues it for
  // the collector. Banks the onions when further attempts remain.
  void SubmitAttempt(engine::RoundScheduler& scheduler, PendingRound round);
  // Drains the retry queue into the scheduler (called from the announcing
  // thread between admission windows and during the tail drain).
  void SubmitRetries(engine::RoundScheduler& scheduler);
  void SupervisorLoop();
  // Drops dedup records for rounds that left the expiry window (same horizon
  // the scheduler uses for hop state). Requires admission_mutex_ held.
  void PruneAdmissionDedup(uint64_t announced_round);
  // Waits out the admission window (returning early once every live client
  // contributed) and closes the round's batch.
  std::pair<std::vector<util::Bytes>, std::vector<size_t>> CloseAdmission();
  void CollectLoop(CoordDaemonResult& result);

  CoordDaemonConfig config_;
  std::vector<std::unique_ptr<HopTransport>> hop_transports_;
  // Borrowed views for the supervisor's Probe() and shutdown frames; valid
  // while the scheduler (which takes ownership) is alive.
  std::vector<ReconnectingTransport*> recon_hops_;
  engine::RoundLifecycle lifecycle_;

  // Invitation distribution: the backend the scheduler's Distribute stage
  // publishes into and fetches are served from. dist_router_ is the borrowed
  // sharded view (nullptr for the in-process backend), kept for the shutdown
  // cascade.
  std::unique_ptr<coord::DistributionBackend> dist_backend_;
  DistRouter* dist_router_ = nullptr;
  // Fetch accounting, written by the FrontDoor fetch worker.
  std::atomic<uint64_t> dialing_fetches_{0};
  std::atomic<uint64_t> dialing_fetch_bytes_{0};
  // Dead-bucket memo for proxied fetches: a (round, bucket) whose download
  // hit a dead dist shard is refused immediately for the rest of its round,
  // so N fetching clients pay one failed call — up to the link policy's
  // attempts, each a connect or receive deadline plus backoff — not N serial
  // ones (the reader threads that would otherwise queue on the shard link
  // also carry the clients' onion submissions). Bounded to a handful of
  // recent rounds.
  std::mutex failed_fetch_mutex_;
  std::map<uint64_t, std::set<uint32_t>> failed_fetch_buckets_;
  // Bucket fetches owed for acked dialing rounds, as (round, client): acked,
  // and neither fetched nor hung up. The teardown waits for them, so a fetch
  // sent right after the last ack is answered instead of arriving after
  // kShutdown. Bounded to the rounds the distribution tier still holds.
  std::mutex owed_fetch_mutex_;
  std::condition_variable owed_fetch_cv_;
  std::set<std::pair<uint64_t, size_t>> owed_fetches_;

  // Connection supervisor.
  std::thread supervisor_;
  std::mutex supervisor_mutex_;
  std::condition_variable supervisor_cv_;
  bool supervisor_stop_ = false;

  // Failed rounds awaiting re-submission, and the resolution accounting the
  // announcing thread's tail drain blocks on.
  std::mutex retry_mutex_;
  std::condition_variable retry_cv_;
  std::deque<PendingRound> retry_queue_;
  uint64_t unresolved_rounds_ = 0;

  // The reactor-backed client edge (set by Start()).
  std::unique_ptr<FrontDoor> front_door_;
  // Optional /metrics + /trace endpoint (config.metrics_port >= 0).
  std::unique_ptr<obs::MetricsHttpServer> metrics_server_;

  // Global-registry telemetry: admission/collection health and the §5.5
  // download-side accounting mirrors.
  obs::Counter* obs_fetches_;
  obs::Counter* obs_fetch_bytes_;
  obs::Counter* obs_retry_budget_;
  // Hop-link reconnects (each re-sends the pass it failed on).
  obs::Counter* obs_hop_reconnects_;
  obs::Gauge* obs_banked_onions_;
  obs::Gauge* obs_pending_rounds_;
  obs::Gauge* obs_retry_depth_;
  // Budget-accountant surface (registered unconditionally so a disabled
  // accountant still exports zeros the CI smoke can assert on). Gauges are
  // integer-valued, so budget burn exports in fixed-point units: micro-ε and
  // nano-δ.
  obs::Counter* obs_rounds_refused_;
  obs::Gauge* obs_epsilon_spent_micro_;
  obs::Gauge* obs_delta_spent_nano_;

  // Armed in Start() when config_.budget.epsilon_budget > 0.
  std::optional<noise::BudgetAccountant> accountant_;

  // Admission state for the currently announced round.
  mutable std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  bool admission_open_ = false;
  uint64_t admission_round_ = 0;
  wire::RoundType admission_type_ = wire::RoundType::kConversation;
  std::vector<util::Bytes> admission_onions_;
  std::vector<size_t> admission_contributors_;
  // Per-round contribution record, keyed by the round it belongs to: a
  // client flooding duplicates must not close the window early, crowd out
  // honest clients, or earn two responses. Keying by round (rather than one
  // vector reassigned per announcement) ties each record to its round for
  // the round's whole pipeline lifetime, which makes reclamation an explicit
  // obligation: entries are reclaimed by round *expiry*
  // (PruneAdmissionDedup), never by round completion, so rounds abandoned on
  // a dead hop cannot pin coordinator memory however long the deployment
  // runs.
  std::map<uint64_t, std::vector<uint8_t>> admission_dedup_;

  // FIFO of submitted rounds awaiting completion (collector thread).
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::deque<PendingRound> pending_;
  bool submitting_done_ = false;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_COORD_DAEMON_H_

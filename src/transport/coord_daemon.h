// The coordinator process (§7): the I/O shell around coord::RoundPolicy,
// which makes every round decision. CoordinatorDaemon owns the hop links,
// the dist-shard router, the client edge (transport::FrontDoor), the clock
// and three threads: Run() announces rounds and submits them to
// engine::RoundScheduler (K in flight, §8.3), a collector delivers each
// round's result, and a supervisor probes dead hop links. The policy sits
// behind one mutex and one condition variable; scheduler submissions and
// client sends run outside that lock. The coordinator holds no chain keys
// and sees only onion ciphertexts. It takes onions from clients and
// nothing else: clients download their invitation buckets straight from
// the vuvuzela-distd shards (client::DialingFetcher, §5.5).
//
// Failure model: a hop link's receive deadline fails the rounds a dead hop
// touches instead of wedging the pipeline. Recovery has three layers: the
// link's ReconnectPolicy (reconnect and in-call re-send, idempotent thanks to
// the hops' replay slots; peer_link.h) plus the supervisor's probes; the
// policy's re-submission of a failed round's banked onions under the same
// round number, so a crash costs latency, never messages; and abandonment
// after max_round_attempts, with the scheduler's expiry path reclaiming the
// round's state at the surviving hops. /metrics and /trace are served by
// the process shell (obs::DaemonProcess), not by the daemon.

#ifndef VUVUZELA_SRC_TRANSPORT_COORD_DAEMON_H_
#define VUVUZELA_SRC_TRANSPORT_COORD_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/coord/round_policy.h"
#include "src/engine/round_lifecycle.h"
#include "src/engine/round_scheduler.h"
#include "src/net/tcp.h"
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
  // submissions. It closes early once every connected client that held a
  // slot in the round has contributed.
  double admission_window_seconds = 0.05;
  // Receive deadline per hop RPC — the dead-hop detector.
  int hop_timeout_ms = 10000;
  // Connect deadline per hop (re)connect attempt.
  int connect_timeout_ms = 5000;
  // On exit, send kShutdown to every hop daemon and dist shard (the last
  // hop cascades to its exchange partitions).
  bool shutdown_hops_on_exit = false;

  // Invitation distribution (§5.5): the engine's Distribute stage publishes
  // each dialing round's table to these vuvuzela-distd shards, which keep
  // the policy's dist_keep() (K+4) rounds and serve the clients' bucket
  // downloads. Empty: dialing tables are not published.
  std::vector<net::Endpoint> dist;

  // Fault tolerance (see the header comment).
  ReconnectPolicy reconnect;
  uint32_t max_round_attempts = 3;

  // Rounds begin once num_clients (>= 1) clients have connected.
  uint16_t client_port = 0;  // 0 picks an ephemeral port
  size_t num_clients = 0;

  // ε/δ budget accountant (§6), armed by budget.epsilon_budget > 0. Its
  // noise parameters must mirror the hop daemons' (vuvuzela-hopd derives
  // {µ, µ/20 + 1} from --mu); a degenerate one (b <= 0) fails Start().
  noise::BudgetAccountantConfig budget;
};

struct CoordDaemonResult {
  uint64_t conversation_rounds_completed = 0;
  uint64_t dialing_rounds_completed = 0;
  uint64_t rounds_abandoned = 0;
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

  // Connects every hop and dist shard and binds the client listener. False
  // if the config has no hops, no clients or K = 0, if a hop or dist shard
  // is unreachable, or if a listener cannot bind.
  bool Start();

  // Valid after Start().
  uint16_t client_port() const { return front_door_ ? front_door_->port() : 0; }

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
  // The engine's handle on one submitted attempt (one future is valid).
  struct Submission {
    std::future<mixnet::Chain::ConversationResult> conversation;
    std::future<mixnet::Chain::DialingResult> dialing;
  };

  // Submits one attempt with `lock` released (Submit blocks while K rounds
  // are in flight) and files its future for the collector.
  void SubmitAttempt(std::unique_lock<std::mutex>& lock, engine::RoundScheduler& scheduler,
                     coord::Attempt attempt);
  // Waits on each submitted round in submission order and carries out what
  // the policy makes of its result.
  void CollectLoop(CoordDaemonResult& result);
  void PublishGauges();  // requires mutex_ held

  CoordDaemonConfig config_;
  std::vector<std::unique_ptr<HopTransport>> hop_transports_;
  // Borrowed views for the supervisor's Probe() and shutdown frames; valid
  // while the scheduler (which takes ownership) is alive.
  std::vector<ReconnectingTransport*> recon_hops_;
  engine::RoundLifecycle lifecycle_;

  // What the Distribute stage publishes into (nullptr without dist shards),
  // kept for the shutdown cascade.
  std::unique_ptr<DistRouter> dist_router_;

  // The reactor-backed client edge (set by Start()).
  std::unique_ptr<FrontDoor> front_door_;

  // Registry telemetry. The budget series are registered even when the
  // accountant is off, so smoke runs can assert zeros; gauges are integers,
  // so budget burn exports in micro-ε and nano-δ.
  obs::Counter* obs_retry_budget_;
  obs::Counter* obs_hop_reconnects_;
  obs::Gauge* obs_banked_onions_;
  obs::Gauge* obs_pending_rounds_;
  obs::Gauge* obs_retry_depth_;
  obs::Counter* obs_rounds_refused_;
  obs::Gauge* obs_epsilon_spent_micro_;
  obs::Gauge* obs_delta_spent_nano_;

  // The one lock guards the policy and the submissions; the one condition
  // variable wakes every thread that waits on the policy.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<coord::RoundPolicy> policy_;  // set by Start()
  std::map<uint64_t, Submission> submissions_;  // by round
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_COORD_DAEMON_H_

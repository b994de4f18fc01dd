// Pipelined round engine (§8.3).
//
// The paper's headline throughput (68,000 messages/sec at 1M users) does not
// come from making one round faster — a round is latency-bound by the chain's
// sequential passes — but from overlapping rounds: "the Vuvuzela servers
// pipeline rounds: while the first server is collecting messages for one
// round, other servers process previous rounds" (§8.3). RoundScheduler is the
// one round driver: coordd, the in-process sim::Deployment, the benches and
// the tests all run their rounds through it. K = 1 (one round in flight,
// each future awaited before the next submission) is the lock-step shape.
//
// RoundScheduler gives each server its own stage worker thread and moves a
// round across them: round r's forward pass at server 1 runs concurrently
// with round r+1's forward pass at server 0 and round r-1's return pass.
// Within one server, passes stay serialized (the §8.2 constraint: a server
// cannot start a pass until it has the previous hop's whole batch), which a
// single worker thread per server enforces by construction. Per-request
// crypto inside a pass still fans out over util::GlobalPool(), and the last
// hop's dead-drop exchange is sharded — across threads
// (deaddrop::ShardedExchangeRound) or across vuvuzela-exchanged shard-server
// processes when the last hop's MixServer carries a partitioned backend
// (transport::ExchangeRouter; the last-hop stage drives it transparently
// through ProcessConversationLastHop). The engine thus composes four layers
// of parallelism: cross-round pipelining, per-request crypto, sharded
// exchange, and exchange partitioning across processes.
//
// Dialing rounds gain a fifth layer when a coord::DistributionBackend is
// configured: an explicit Distribute stage publishes each finished round's
// invitation table into the distribution tier (in-process distributor or the
// sharded vuvuzela-distd fleet via transport::DistRouter) on its own stage
// worker, so the §5.5 download fan-out overlaps conversation rounds the same
// way every chain pass does.
//
// Both round types run through one pipeline: one context type, one submit
// path, and one stage runner that posts a stage to its worker, times the
// pass, makes the hop call, records the stage span and routes the round to
// its next stage. The stages are the RoundLifecycle pipeline phases:
//
//   conversation: Forward(0..n-2) → Exchange(n-1) → Backward(n-2..0)
//   dialing:      Forward(0..n-2) → Exchange(n-1) [→ Distribute]
//
// so the stage a round runs and the phase its lifecycle record enters are
// the same value, and a round moves to its next stage in one place.
//
// At most `max_in_flight` (K) rounds are admitted at once; Submit* blocks
// when the pipeline is full, which is the backpressure the paper gets from
// its fixed round epoch. A submission the lifecycle rejects (a re-submitted
// live round) throws and gives its slot back. Forward stages expire stalled
// per-round state (MixServer::ExpireRounds) as newer rounds flow through, so
// a round abandoned mid-pipeline — a crashed downstream server, a DoS —
// cannot pin server memory.
//
// Each stage drives a transport::HopTransport rather than a MixServer
// directly, so the same pipelining discipline runs over in-process servers
// (LocalTransport; transport::MakeLocalTransports wraps a mixnet::Chain's
// servers) or remote per-hop daemons (transport::ReconnectingTransport, §7's
// one-process-per-server deployment). A hop that times out or fails once its
// link's policy has no re-send left surfaces through the round's future as a
// transport::HopError; the slot is released and the expiry path reclaims the
// abandoned round's state at the surviving hops.

#ifndef VUVUZELA_SRC_ENGINE_ROUND_SCHEDULER_H_
#define VUVUZELA_SRC_ENGINE_ROUND_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/coord/distributor.h"
#include "src/engine/round_lifecycle.h"
#include "src/mixnet/chain.h"
#include "src/transport/hop_transport.h"

namespace vuvuzela::obs {
class Counter;
class Histogram;
}  // namespace vuvuzela::obs

namespace vuvuzela::engine {

struct SchedulerConfig {
  // K: rounds admitted into the pipeline at once. 1 degenerates to
  // lock-step; the paper's deployment keeps a few rounds in flight
  // (one per chain stage plus the collection window).
  size_t max_in_flight = 3;
  // Forward stages drop per-round state older than this many conversation
  // rounds behind the newest admitted round. 0 derives a safe default
  // (2*K + 2, so in-flight rounds are never expired).
  uint64_t expire_keep = 0;
  // Optional round-lifecycle registry (must outlive the scheduler). The
  // scheduler drives the pipeline phases — Submitting, Forward(i), Exchange,
  // Backward(i), Complete — as a round crosses stage workers; the *failure*
  // transitions (Retrying / Abandoned) belong to whoever owns the round
  // future, since only that layer knows the retry policy.
  RoundLifecycle* lifecycle = nullptr;
  // Optional invitation-distribution backend (must outlive the scheduler).
  // When set, dialing rounds gain an explicit Distribute stage: the last
  // hop's finished invitation table is published into the backend (and old
  // rounds expired to `distribution_keep`) on a dedicated stage worker, so
  // the §5.5 download side pipelines with conversation rounds exactly like a
  // chain pass. The round's DialingResult then carries an *empty* table of
  // the same bucket count — the invitations live in the backend, where
  // clients download them by bucket.
  coord::DistributionBackend* distribution = nullptr;
  // Publications each backend keeps (the dialing analog of expire_keep).
  size_t distribution_keep = 4;
  // Keep per-round submit→complete conversation latencies in stats()
  // (SchedulerStats::conversation_latencies; benches derive p50/p99). Off by
  // default: a long-running deployment must not grow a vector per round.
  bool record_latencies = false;
};

// The round-expiry horizon: expire_keep, or 2*K + 2 when that is 0. State
// kept per round beside the scheduler is reclaimed on the same horizon.
inline uint64_t ExpireKeep(const SchedulerConfig& config) {
  return config.expire_keep != 0 ? config.expire_keep : 2 * config.max_in_flight + 2;
}

// Aggregate counters; one snapshot is cheap and thread-safe to take.
struct SchedulerStats {
  uint64_t conversation_rounds_completed = 0;
  uint64_t dialing_rounds_completed = 0;
  uint64_t rounds_failed = 0;
  // Invitation tables published through the Distribute stage.
  uint64_t invitation_tables_distributed = 0;
  size_t max_observed_in_flight = 0;
  // Sum over completed conversation rounds of submit→complete latency.
  double total_conversation_latency_seconds = 0.0;
  // Per-round submit→complete latencies, populated only when
  // SchedulerConfig::record_latencies is set.
  std::vector<double> conversation_latencies;
};

class RoundScheduler {
 public:
  // hops[i] is stage i's backend: local servers, remote daemons, or a mix.
  // `observer` (optional, must outlive the scheduler) sees each forward
  // pass's batches and the last hop's dead-drop view. It is invoked from
  // stage worker threads: per-server callbacks are serialized, but callbacks
  // for different servers run concurrently.
  RoundScheduler(std::vector<std::unique_ptr<transport::HopTransport>> hops,
                 SchedulerConfig config = {}, mixnet::ChainObserver* observer = nullptr);

  ~RoundScheduler();

  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  // Admits a conversation round. Blocks while K rounds are in flight.
  // Conversation round numbers should be monotonically increasing across
  // calls (they drive state expiry; coord::RoundSchedule produces exactly
  // that). Expiry is measured from the oldest round still in flight, so
  // gaps in the numbering can never expire a live round.
  std::future<mixnet::Chain::ConversationResult> SubmitConversation(
      uint64_t round, std::vector<util::Bytes> onions);

  // Admits a dialing round (forward-only; §5.5). Blocks while K rounds are
  // in flight. Dialing round numbers live in their own space
  // (coord::kDialingRoundBase) and do not participate in expiry.
  std::future<mixnet::Chain::DialingResult> SubmitDialing(uint64_t round,
                                                          std::vector<util::Bytes> onions,
                                                          uint32_t num_drops);

  // Blocks until every admitted round has completed (or failed).
  void Drain();

  size_t in_flight() const;
  SchedulerStats stats() const;

 private:
  // One queue+thread per server: the stage-serialization unit.
  class StageWorker {
   public:
    StageWorker();
    ~StageWorker();
    void Post(std::function<void()> fn);
    // Drains the queue and joins the worker thread (idempotent). The
    // scheduler stops every worker before destroying any of them — see the
    // destructor comment.
    void Stop();

   private:
    void Loop();

    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
  };

  // One context type for both round types; the promise's alternative says
  // which.
  struct RoundContext;
  // How a round gives back its pipeline slot: completed or failed rounds
  // are counted in stats(); a submission the lifecycle rejected never
  // entered the pipeline and is not.
  enum class Outcome { kCompleted, kFailed, kRejected };

  size_t num_stages() const { return hops_.size(); }

  void Admit();
  void Release(const RoundContext& ctx, Outcome outcome, double latency_seconds = 0.0);
  // The round number expiry is measured against: the oldest conversation
  // round still in flight (never expires live state), or the newest
  // submitted round when nothing is in flight.
  uint64_t ExpiryHorizon() const;

  // The one submit path: admission, the lifecycle's Submitting, then the
  // first stage (Forward at hop 0, or the last hop on a one-hop chain).
  void Submit(std::shared_ptr<RoundContext> ctx);
  // The one stage runner: posts `stage` (a pipeline phase) to the worker of
  // `hop`, times the pass, records it, and hands the round to Advance. The
  // Distribute stage (config_.distribution set) runs at hop num_stages() on
  // dist_worker_.
  void PostStage(std::shared_ptr<RoundContext> ctx, RoundPhase stage, size_t hop);
  // The stage's hop call (or publish), run on its worker.
  void RunPass(RoundContext& ctx, RoundPhase stage, size_t hop);
  // Routes a round whose pass succeeded to its next stage, or completes it.
  void Advance(std::shared_ptr<RoundContext> ctx, RoundPhase stage, size_t hop);
  void Complete(std::shared_ptr<RoundContext> ctx);
  void Fail(std::shared_ptr<RoundContext> ctx, std::exception_ptr error);

  std::vector<std::unique_ptr<transport::HopTransport>> hops_;
  mixnet::ChainObserver* observer_ = nullptr;
  SchedulerConfig config_;
  std::vector<std::unique_ptr<StageWorker>> workers_;
  // The Distribute stage's serialization unit (distribution backend set):
  // publishes happen in completion order, off the last hop's worker, so the
  // download tier never stalls the chain.
  std::unique_ptr<StageWorker> dist_worker_;

  mutable std::mutex mutex_;
  std::condition_variable admit_cv_;
  std::condition_variable drain_cv_;
  size_t in_flight_ = 0;
  uint64_t newest_conversation_round_ = 0;
  std::multiset<uint64_t> active_conversation_rounds_;
  SchedulerStats stats_;

  // Hot-path telemetry in obs::Registry::Global(): onion volume, per-pass
  // wall time (the crypto-batching push's baseline), and stage throughput.
  // Stage enqueue/pass spans land in obs::TraceJournal::Global().
  obs::Counter* obs_onions_submitted_;
  obs::Counter* obs_stage_onions_;
  obs::Histogram* obs_pass_seconds_;
};

}  // namespace vuvuzela::engine

#endif  // VUVUZELA_SRC_ENGINE_ROUND_SCHEDULER_H_

// Explicit per-round lifecycle (the fault-tolerance seam).
//
// Before this existed, a round's progress lived implicitly in scheduler
// bookkeeping (which stage worker held its context) and a failure was just an
// exception through a future — there was no place to hang retry policy, and
// recovery behavior grew ad hoc. RoundLifecycle makes the round's journey an
// explicit state machine that every layer drives through one seam:
//
//   Announced → Submitting → Forward(0..i) → Exchange → Backward(i..0)
//            → Complete | Retrying | Abandoned
//
// with Retrying → Submitting on re-submission (the attempt counter ticks).
// The coordinator announces rounds and decides failure policy (retry with the
// banked onions, or abandon); the scheduler drives the per-hop phases
// through one seam, Enter(round, phase, hop), as the round crosses stage
// workers; tests and operators observe the same record.
// Dialing rounds are forward-only: Submitting → Forward(0..i) → Exchange →
// [Distributing →] Complete (the invitation-table deposit is their exchange;
// Distributing appears when the engine publishes the finished table through a
// coord::DistributionBackend, §5.5).
//
// Keeping recovery inside the state machine — a retried round re-enters the
// pipeline as the *same* round number carrying the *same* onions — is what
// keeps the observable wire footprint of a recovered round identical to a
// never-failed one (traffic-analysis resistance literature is clear that
// recovery behavior is as fingerprintable as steady state).
//
// Every transition, whichever seam drives it, goes through one private step
// that checks it against one table of legal edges (round_lifecycle.cc): an
// impossible transition throws std::logic_error so a mis-driven pipeline
// fails loudly in tests instead of silently corrupting accounting. All
// methods are thread-safe (phases are driven from stage worker threads,
// failure policy from the collector thread).

#ifndef VUVUZELA_SRC_ENGINE_ROUND_LIFECYCLE_H_
#define VUVUZELA_SRC_ENGINE_ROUND_LIFECYCLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/wire/messages.h"

namespace vuvuzela::obs {
class Counter;
class Gauge;
}  // namespace vuvuzela::obs

namespace vuvuzela::engine {

enum class RoundPhase : uint8_t {
  kAnnounced = 0,
  kSubmitting,
  kForward,
  kExchange,
  kBackward,
  // Dialing only: the finished round's invitation table is being published
  // to the distribution tier (§5.5) before the round completes.
  kDistributing,
  kComplete,
  kRetrying,
  kAbandoned,
};

const char* RoundPhaseName(RoundPhase phase);

struct RoundStatus {
  uint64_t round = 0;
  wire::RoundType type = wire::RoundType::kConversation;
  RoundPhase phase = RoundPhase::kAnnounced;
  // Hop position, meaningful in kForward / kBackward.
  size_t hop = 0;
  // Submission attempts so far (1 = first attempt).
  uint32_t attempt = 1;
  // Last failure reported for this round (kRetrying / kAbandoned).
  std::string last_error;
};

class RoundLifecycle {
 public:
  struct Counters {
    uint64_t announced = 0;
    uint64_t completed = 0;
    uint64_t abandoned = 0;
    // Re-submissions (Retrying → Submitting edges taken).
    uint64_t retries = 0;
  };

  // Observes every transition (called with the registry lock released, in
  // transition order per round). Optional.
  using Listener = std::function<void(const RoundStatus&)>;

  explicit RoundLifecycle(Listener listener = nullptr);

  // Coordinator seam: registers the round at announcement time.
  void Announce(uint64_t round, wire::RoundType type);

  // Scheduler seam: the round enters the pipeline. Creates the record if the
  // driver never announced (direct scheduler users), resumes a kRetrying
  // round with attempt+1, and rejects re-submission of a live round.
  void BeginAttempt(uint64_t round, wire::RoundType type);

  // Scheduler seam: the round enters a pipeline phase — kForward or
  // kBackward at `hop`, kExchange at the last hop, or (dialing rounds with a
  // distribution backend) kDistributing while its invitation table is
  // published to the distribution tier. `hop` is recorded only for kForward
  // and kBackward. Any other phase is not a pipeline phase and throws
  // std::logic_error.
  void Enter(uint64_t round, RoundPhase phase, size_t hop = 0);

  // Terminal / failure-policy seam (driven by whoever owns the round future).
  void Complete(uint64_t round);
  void Retrying(uint64_t round, const std::string& error);
  void Abandon(uint64_t round, const std::string& error);

  // Live rounds only (terminal rounds are counted, then dropped).
  std::optional<RoundStatus> Status(uint64_t round) const;
  size_t live_rounds() const;
  Counters counters() const;

 private:
  // The one transition step: checks `to` against the edge table, applies it
  // under the lock, and notifies with the lock released. `type` is used only
  // when the step creates the round's record; `error` only by the failure
  // phases.
  void Step(uint64_t round, RoundPhase to, size_t hop, wire::RoundType type,
            const std::string& error);
  void Notify(const RoundStatus& status);

  Listener listener_;
  mutable std::mutex mutex_;
  std::map<uint64_t, RoundStatus> rounds_;
  Counters counters_;

  // Mirrors of `counters_` in obs::Registry::Global(), plus a live-round
  // gauge; every transition also lands a span in obs::TraceJournal::Global()
  // (emitted from Notify, lock released). Shared across lifecycles in one
  // process by design — telemetry is aggregate-only.
  obs::Counter* obs_announced_;
  obs::Counter* obs_completed_;
  obs::Counter* obs_abandoned_;
  obs::Counter* obs_retries_;
  obs::Gauge* obs_live_;
};

}  // namespace vuvuzela::engine

#endif  // VUVUZELA_SRC_ENGINE_ROUND_LIFECYCLE_H_

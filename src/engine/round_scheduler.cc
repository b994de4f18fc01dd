#include "src/engine/round_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/util/stats.h"

namespace vuvuzela::engine {

namespace {

using Clock = std::chrono::steady_clock;
using util::SecondsSince;

// One span per stage handoff and one per finished pass; the pass span's
// detail carries what the timeline reader wants at a glance.
void EmitStageSpan(uint64_t round, const char* span, const char* stage, size_t hop,
                   size_t onions, double seconds = -1.0) {
  std::string detail = std::string("stage=") + stage + " hop=" + std::to_string(hop) +
                       " onions=" + std::to_string(onions);
  if (seconds >= 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " secs=%.6f", seconds);
    detail += buf;
  }
  obs::TraceJournal::Global().Emit(round, span, detail);
}

// Re-materializes a failure as a FRESH exception object before it enters a
// round future. current_exception() shares the in-flight exception between
// the throwing stage thread and every future.get() consumer; that sharing is
// correct (libstdc++ refcounts it) but the refcount lives in the
// uninstrumented runtime, where TSan cannot see it — and, more to the point,
// a failure report has no business keeping the stage thread's exception
// object alive across threads. Known types are copied faithfully (retry
// policy dispatches on the Hop*Error hierarchy); anything else degrades to a
// runtime_error carrying the same message.
std::exception_ptr CopyForFuture(std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const transport::HopTimeoutError& e) {
    return std::make_exception_ptr(transport::HopTimeoutError(e.what()));
  } catch (const transport::HopRemoteError& e) {
    return std::make_exception_ptr(transport::HopRemoteError(e.what()));
  } catch (const transport::HopError& e) {
    return std::make_exception_ptr(transport::HopError(e.what()));
  } catch (const std::invalid_argument& e) {
    return std::make_exception_ptr(std::invalid_argument(e.what()));
  } catch (const std::out_of_range& e) {
    return std::make_exception_ptr(std::out_of_range(e.what()));
  } catch (const std::logic_error& e) {
    return std::make_exception_ptr(std::logic_error(e.what()));
  } catch (const std::exception& e) {
    return std::make_exception_ptr(std::runtime_error(e.what()));
  } catch (...) {
    return std::current_exception();  // untyped; nothing to copy
  }
}

const char* StageName(RoundPhase stage) {
  switch (stage) {
    case RoundPhase::kForward:
      return "forward";
    case RoundPhase::kExchange:
      return "exchange";
    case RoundPhase::kBackward:
      return "backward";
    default:
      return "distribute";
  }
}

}  // namespace

// --- StageWorker ------------------------------------------------------------

RoundScheduler::StageWorker::StageWorker() : thread_([this] { Loop(); }) {}

RoundScheduler::StageWorker::~StageWorker() { Stop(); }

void RoundScheduler::StageWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void RoundScheduler::StageWorker::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void RoundScheduler::StageWorker::Loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop requested and queue drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// --- Round context ----------------------------------------------------------

struct RoundScheduler::RoundContext {
  using Promise = std::variant<std::promise<mixnet::Chain::ConversationResult>,
                               std::promise<mixnet::Chain::DialingResult>>;

  RoundContext(uint64_t round, std::vector<util::Bytes> batch, uint32_t num_drops,
               Promise promise)
      : round(round), num_drops(num_drops), batch(std::move(batch)), promise(std::move(promise)) {}

  bool dialing() const { return promise.index() == 1; }
  wire::RoundType type() const {
    return dialing() ? wire::RoundType::kDialing : wire::RoundType::kConversation;
  }

  uint64_t round;
  uint32_t num_drops;  // dialing
  std::vector<util::Bytes> batch;
  // The conversation result as the stages fill it in; a dialing round uses
  // only its stats.
  mixnet::Chain::ConversationResult result;
  // Dialing: the last hop's invitation table. With a distribution backend it
  // parks here until the Distribute stage moves it into the backend.
  std::optional<deaddrop::InvitationTable> table;
  Promise promise;
  Clock::time_point submitted;
  Clock::time_point backward_start;
};

// --- RoundScheduler ---------------------------------------------------------

RoundScheduler::RoundScheduler(std::vector<std::unique_ptr<transport::HopTransport>> hops,
                               SchedulerConfig config, mixnet::ChainObserver* observer)
    : hops_(std::move(hops)), observer_(observer), config_(config) {
  if (hops_.empty()) {
    throw std::invalid_argument("RoundScheduler: need at least one hop");
  }
  if (config_.max_in_flight == 0) {
    throw std::invalid_argument("RoundScheduler: max_in_flight must be >= 1");
  }
  config_.expire_keep = ExpireKeep(config_);
  if (config_.expire_keep < config_.max_in_flight) {
    throw std::invalid_argument("RoundScheduler: expire_keep must cover the in-flight window");
  }
  workers_.reserve(hops_.size());
  for (size_t i = 0; i < hops_.size(); ++i) {
    workers_.push_back(std::make_unique<StageWorker>());
  }
  if (config_.distribution != nullptr) {
    if (config_.distribution_keep == 0) {
      throw std::invalid_argument("RoundScheduler: distribution_keep must be >= 1");
    }
    dist_worker_ = std::make_unique<StageWorker>();
  }
  obs::Registry& registry = obs::Registry::Global();
  obs_onions_submitted_ = registry.GetCounter("vuvuzela_onions_submitted_total",
                                              "Onions admitted into the round pipeline");
  obs_stage_onions_ =
      registry.GetCounter("vuvuzela_stage_onions_total", "Onions crossing any pipeline stage");
  obs_pass_seconds_ = registry.GetHistogram(
      "vuvuzela_pass_seconds", "Wall time of one chain pass at one stage worker",
      obs::PassLatencyBuckets());
}

RoundScheduler::~RoundScheduler() {
  Drain();
  // Join every stage thread before destroying any worker: a cross-stage
  // Post's condition-variable signal may still be executing on the posting
  // stage's thread after the posted task (and the whole round) completed, so
  // a worker's cv is safe to destroy only once all *other* stage threads are
  // gone too (TSan-caught destruction race).
  for (auto& worker : workers_) {
    worker->Stop();
  }
  if (dist_worker_) {
    dist_worker_->Stop();
  }
  workers_.clear();
  dist_worker_.reset();
}

void RoundScheduler::Admit() {
  std::unique_lock<std::mutex> lock(mutex_);
  admit_cv_.wait(lock, [this] { return in_flight_ < config_.max_in_flight; });
  ++in_flight_;
  stats_.max_observed_in_flight = std::max(stats_.max_observed_in_flight, in_flight_);
}

void RoundScheduler::Release(const RoundContext& ctx, Outcome outcome, double latency_seconds) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    if (outcome != Outcome::kRejected && !ctx.dialing()) {
      auto it = active_conversation_rounds_.find(ctx.round);
      if (it != active_conversation_rounds_.end()) {
        active_conversation_rounds_.erase(it);
      }
    }
    if (outcome == Outcome::kFailed) {
      ++stats_.rounds_failed;
    } else if (outcome == Outcome::kCompleted && ctx.dialing()) {
      ++stats_.dialing_rounds_completed;
    } else if (outcome == Outcome::kCompleted) {
      ++stats_.conversation_rounds_completed;
      stats_.total_conversation_latency_seconds += latency_seconds;
      if (config_.record_latencies) {
        stats_.conversation_latencies.push_back(latency_seconds);
      }
    }
  }
  admit_cv_.notify_one();
  drain_cv_.notify_all();
}

uint64_t RoundScheduler::ExpiryHorizon() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_conversation_rounds_.empty() ? newest_conversation_round_
                                             : *active_conversation_rounds_.begin();
}

void RoundScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

size_t RoundScheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

SchedulerStats RoundScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// --- The pipeline -----------------------------------------------------------

std::future<mixnet::Chain::ConversationResult> RoundScheduler::SubmitConversation(
    uint64_t round, std::vector<util::Bytes> onions) {
  std::promise<mixnet::Chain::ConversationResult> promise;
  auto future = promise.get_future();
  Submit(std::make_shared<RoundContext>(round, std::move(onions), 0, std::move(promise)));
  return future;
}

std::future<mixnet::Chain::DialingResult> RoundScheduler::SubmitDialing(
    uint64_t round, std::vector<util::Bytes> onions, uint32_t num_drops) {
  std::promise<mixnet::Chain::DialingResult> promise;
  auto future = promise.get_future();
  Submit(std::make_shared<RoundContext>(round, std::move(onions), num_drops, std::move(promise)));
  return future;
}

void RoundScheduler::Submit(std::shared_ptr<RoundContext> ctx) {
  Admit();
  if (config_.lifecycle) {
    try {
      config_.lifecycle->BeginAttempt(ctx->round, ctx->type());
    } catch (...) {
      // The round never entered the pipeline; its slot goes back.
      Release(*ctx, Outcome::kRejected);
      throw;
    }
  }
  ctx->result.stats.forward.resize(num_stages());
  if (!ctx->dialing()) {
    std::lock_guard<std::mutex> lock(mutex_);
    newest_conversation_round_ = std::max(newest_conversation_round_, ctx->round);
    active_conversation_rounds_.insert(ctx->round);
    ctx->result.stats.backward.resize(num_stages() - 1);
  }
  ctx->submitted = Clock::now();
  obs_onions_submitted_->Add(ctx->batch.size());
  if (num_stages() == 1) {
    PostStage(std::move(ctx), RoundPhase::kExchange, 0);
  } else {
    PostStage(std::move(ctx), RoundPhase::kForward, 0);
  }
}

void RoundScheduler::PostStage(std::shared_ptr<RoundContext> ctx, RoundPhase stage, size_t hop) {
  const char* name = StageName(stage);
  EmitStageSpan(ctx->round, "stage/enqueue", name, hop, ctx->batch.size());
  StageWorker& worker = hop == num_stages() ? *dist_worker_ : *workers_[hop];
  worker.Post([this, ctx = std::move(ctx), stage, hop, name]() mutable {
    const auto pass_start = Clock::now();
    try {
      if (config_.lifecycle) {
        config_.lifecycle->Enter(ctx->round, stage, hop);
      }
      RunPass(*ctx, stage, hop);
    } catch (...) {
      Fail(std::move(ctx), std::current_exception());
      return;
    }
    const double pass_seconds = SecondsSince(pass_start);
    obs_pass_seconds_->Observe(pass_seconds);
    obs_stage_onions_->Add(ctx->batch.size());
    EmitStageSpan(ctx->round, "stage/pass", name, hop, ctx->batch.size(), pass_seconds);
    Advance(std::move(ctx), stage, hop);
  });
}

void RoundScheduler::RunPass(RoundContext& ctx, RoundPhase stage, size_t hop) {
  mixnet::RoundStats& stats = ctx.result.stats;
  std::vector<util::Bytes> input;  // the observer's copy of the pass input
  switch (stage) {
    case RoundPhase::kForward:
      if (!ctx.dialing()) {
        // Shed state from rounds abandoned mid-pipeline before taking on
        // more. The horizon is the oldest round still in flight, so a live
        // round can never be expired, whatever the round numbering gaps.
        // (Remote hops piggyback this on the forward request.)
        hops_[hop]->ExpireRounds(ExpiryHorizon(), config_.expire_keep);
      }
      if (observer_) {
        input = ctx.batch;
      }
      if (ctx.dialing()) {
        ctx.batch = hops_[hop]->ForwardDialing(ctx.round, std::move(ctx.batch), ctx.num_drops,
                                               &stats.forward[hop]);
      } else {
        ctx.batch = hops_[hop]->ForwardConversation(ctx.round, std::move(ctx.batch),
                                                    &stats.forward[hop]);
      }
      if (observer_) {
        observer_->OnForwardPass(hop, ctx.round, input, ctx.batch);
      }
      return;
    case RoundPhase::kExchange:
      if (ctx.dialing()) {
        // The invitation table replaces the batch: the pass reports no onions.
        ctx.table = hops_[hop]->ProcessDialingLastHop(ctx.round, std::move(ctx.batch),
                                                      ctx.num_drops, &stats.forward[hop]);
        ctx.batch.clear();
      } else {
        if (observer_) {
          input = ctx.batch;
        }
        mixnet::MixServer::LastServerResult last = hops_[hop]->ProcessConversationLastHop(
            ctx.round, std::move(ctx.batch), &stats.forward[hop]);
        ctx.result.histogram = std::move(last.histogram);
        ctx.result.messages_exchanged = last.messages_exchanged;
        ctx.batch = std::move(last.responses);
        if (observer_) {
          observer_->OnForwardPass(hop, ctx.round, input, ctx.batch);
          observer_->OnDeadDrops(ctx.round, ctx.result.histogram);
        }
      }
      stats.forward_seconds = SecondsSince(ctx.submitted);
      ctx.backward_start = Clock::now();
      return;
    case RoundPhase::kBackward:
      ctx.batch = hops_[hop]->BackwardConversation(ctx.round, std::move(ctx.batch),
                                                   &stats.backward[hop]);
      return;
    case RoundPhase::kDistributing: {
      // The table moves into the distribution tier, where clients download
      // it by bucket; the round's result keeps only the bucket count. A
      // failed publish (dead dist shard) fails this dialing round alone —
      // the coordinator's retry policy re-publishes idempotently.
      config_.distribution->Publish(ctx.round, std::move(*ctx.table));
      ctx.table.reset();
      config_.distribution->Expire(config_.distribution_keep);
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.invitation_tables_distributed;
      return;
    }
    default:
      throw std::logic_error("RoundScheduler: not a pipeline stage");
  }
}

void RoundScheduler::Advance(std::shared_ptr<RoundContext> ctx, RoundPhase stage, size_t hop) {
  switch (stage) {
    case RoundPhase::kForward:
      PostStage(std::move(ctx),
                hop + 2 == num_stages() ? RoundPhase::kExchange : RoundPhase::kForward, hop + 1);
      return;
    case RoundPhase::kExchange:
      if (ctx->dialing()) {
        if (config_.distribution != nullptr) {
          PostStage(std::move(ctx), RoundPhase::kDistributing, num_stages());
        } else {
          Complete(std::move(ctx));
        }
        return;
      }
      [[fallthrough]];  // a conversation round returns along the chain
    case RoundPhase::kBackward:
      if (hop == 0) {
        Complete(std::move(ctx));
      } else {
        PostStage(std::move(ctx), RoundPhase::kBackward, hop - 1);
      }
      return;
    default:  // kDistributing: RunPass admits no other stage
      Complete(std::move(ctx));
      return;
  }
}

void RoundScheduler::Complete(std::shared_ptr<RoundContext> ctx) {
  double latency = 0.0;
  if (ctx->dialing()) {
    if (!ctx->table) {
      ctx->table.emplace(ctx->num_drops);  // distributed: keep the bucket count
    }
  } else {
    ctx->result.stats.backward_seconds = SecondsSince(ctx->backward_start);
    ctx->result.responses = std::move(ctx->batch);
    latency = SecondsSince(ctx->submitted);
  }
  if (config_.lifecycle) {
    config_.lifecycle->Complete(ctx->round);
  }
  // Release before fulfilling the promise: a caller woken by future.get()
  // must observe the round already counted in stats() and in_flight().
  Release(*ctx, Outcome::kCompleted, latency);
  if (ctx->dialing()) {
    std::get<1>(ctx->promise).set_value(
        mixnet::Chain::DialingResult{std::move(*ctx->table), std::move(ctx->result.stats)});
  } else {
    std::get<0>(ctx->promise).set_value(std::move(ctx->result));
  }
}

// The failure path mirrors the completion path's ordering: account the round
// first, then surface the exception, so future.get() never observes stale
// scheduler state.
void RoundScheduler::Fail(std::shared_ptr<RoundContext> ctx, std::exception_ptr error) {
  Release(*ctx, Outcome::kFailed);
  std::exception_ptr copy = CopyForFuture(std::move(error));
  std::visit([&](auto& promise) { promise.set_exception(copy); }, ctx->promise);
}

}  // namespace vuvuzela::engine

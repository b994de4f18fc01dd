// The traced run's per-round ledger, measured from outside the daemons.
//
// TracedHop decorates the coordinator's transport::HopTransport for one hop
// and TracedDistribution decorates its coord::DistributionBackend; each
// records a (round, op, start, end, ServerRoundStats) span around every call
// into the layer below. Spans stay in memory until the run ends. The hop
// daemons' own `hop/pass` records (scraped from /trace) supply the server
// side of each RPC, which splits a round's latency into
//
//   mixnet pass   Σ hop pass seconds
//   transport     Σ (RPC span − pass)          wire encode/decode + loopback
//   engine        due → first RPC, gaps between RPCs, last RPC → collected
//
// and whatever the three do not cover is the ledger gap.

#ifndef VUVUZELA_BENCH_VZBENCH_LEDGER_H_
#define VUVUZELA_BENCH_VZBENCH_LEDGER_H_

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/coord/distributor.h"
#include "src/transport/hop_transport.h"

namespace vzbench {

using namespace vuvuzela;
using Clock = std::chrono::steady_clock;

// The eight hop operations of a conversation and a dialing round, in the
// order a round performs them.
enum Op : int {
  kHop0Fwd,
  kHop1Fwd,
  kHop2Last,
  kHop1Bwd,
  kHop0Bwd,
  kHop0Dfwd,
  kHop1Dfwd,
  kHop2Dlast,
  kNumOps
};
inline constexpr const char* kOpNames[kNumOps] = {"hop0.fwd", "hop1.fwd",  "hop2.last",
                                                  "hop1.bwd", "hop0.bwd",  "hop0.dfwd",
                                                  "hop1.dfwd", "hop2.dlast"};
inline constexpr size_t kOpHop[kNumOps] = {0, 1, 2, 1, 0, 0, 1, 2};

struct Span {
  uint64_t round = 0;
  Op op = kHop0Fwd;
  Clock::time_point start;
  Clock::time_point end;
  mixnet::ServerRoundStats stats;
};

struct PublishSpan {
  uint64_t round = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  void Record(const Span& span) {
    auto t0 = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    bookkeeping_ += Clock::now() - t0;
  }
  void Record(const PublishSpan& span) {
    auto t0 = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    publishes_.push_back(span);
    bookkeeping_ += Clock::now() - t0;
  }

  // Call once every recording thread is quiescent (the scheduler drained).
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }
  std::vector<PublishSpan> publishes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return publishes_;
  }
  // Time the recording itself took: the decorators' cost to the run.
  double bookkeeping_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::chrono::duration<double>(bookkeeping_).count();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<PublishSpan> publishes_;
  Clock::duration bookkeeping_{};
};

class TracedHop final : public transport::HopTransport {
 public:
  TracedHop(std::unique_ptr<transport::HopTransport> inner, size_t position, SpanLog& log)
      : inner_(std::move(inner)), position_(position), log_(log) {}

  std::vector<util::Bytes> ForwardConversation(uint64_t round, std::vector<util::Bytes> batch,
                                               mixnet::ServerRoundStats* stats) override {
    return Timed(round, position_ == 0 ? kHop0Fwd : kHop1Fwd, stats, [&] {
      return inner_->ForwardConversation(round, std::move(batch), stats);
    });
  }
  std::vector<util::Bytes> BackwardConversation(uint64_t round,
                                                std::vector<util::Bytes> responses,
                                                mixnet::ServerRoundStats* stats) override {
    return Timed(round, position_ == 0 ? kHop0Bwd : kHop1Bwd, stats, [&] {
      return inner_->BackwardConversation(round, std::move(responses), stats);
    });
  }
  mixnet::MixServer::LastServerResult ProcessConversationLastHop(
      uint64_t round, std::vector<util::Bytes> batch, mixnet::ServerRoundStats* stats) override {
    return Timed(round, kHop2Last, stats, [&] {
      return inner_->ProcessConversationLastHop(round, std::move(batch), stats);
    });
  }
  std::vector<util::Bytes> ForwardDialing(uint64_t round, std::vector<util::Bytes> batch,
                                          uint32_t num_drops,
                                          mixnet::ServerRoundStats* stats) override {
    return Timed(round, position_ == 0 ? kHop0Dfwd : kHop1Dfwd, stats, [&] {
      return inner_->ForwardDialing(round, std::move(batch), num_drops, stats);
    });
  }
  deaddrop::InvitationTable ProcessDialingLastHop(uint64_t round, std::vector<util::Bytes> batch,
                                                  uint32_t num_drops,
                                                  mixnet::ServerRoundStats* stats) override {
    return Timed(round, kHop2Dlast, stats, [&] {
      return inner_->ProcessDialingLastHop(round, std::move(batch), num_drops, stats);
    });
  }
  void ExpireRounds(uint64_t newest_round, uint64_t keep) override {
    inner_->ExpireRounds(newest_round, keep);  // deferred onto the next RPC; no span
  }

 private:
  template <typename Fn>
  auto Timed(uint64_t round, Op op, mixnet::ServerRoundStats* stats, Fn&& call)
      -> decltype(call()) {
    Span span;
    span.round = round;
    span.op = op;
    span.start = Clock::now();
    auto result = call();
    span.end = Clock::now();
    if (stats != nullptr) {
      span.stats = *stats;
    }
    log_.Record(span);
    return result;
  }

  std::unique_ptr<transport::HopTransport> inner_;
  size_t position_;
  SpanLog& log_;
};

class TracedDistribution final : public coord::DistributionBackend {
 public:
  TracedDistribution(coord::DistributionBackend& inner, SpanLog& log) : inner_(inner), log_(log) {}

  void Publish(uint64_t round, deaddrop::InvitationTable table) override {
    PublishSpan span{round, Clock::now(), {}};
    inner_.Publish(round, std::move(table));
    span.end = Clock::now();
    log_.Record(span);
  }
  std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop_index) override {
    return inner_.Fetch(round, drop_index);
  }
  bool HasRound(uint64_t round) const override { return inner_.HasRound(round); }
  void Expire(size_t keep_latest) override { inner_.Expire(keep_latest); }
  uint64_t bytes_served() const override { return inner_.bytes_served(); }
  uint64_t downloads_served() const override { return inner_.downloads_served(); }

 private:
  coord::DistributionBackend& inner_;
  SpanLog& log_;
};

// Server-side pass seconds per (op, round), from one hop daemon's /trace
// JSONL: its `hop/pass` records carry "op=<name> items=<n> secs=<s>". The
// round is read as an unsigned 64-bit number, since dialing rounds sit at
// 2^63 + n.
inline void CollectPassSeconds(const std::string& jsonl, size_t position,
                               std::map<std::pair<int, uint64_t>, double>* out) {
  std::istringstream in(jsonl);
  std::string line;
  auto after = [&line](const char* key) -> const char* {
    size_t at = line.find(key);
    return at == std::string::npos ? nullptr : line.c_str() + at + std::strlen(key);
  };
  while (std::getline(in, line)) {
    const char* round = after("\"round\":");
    const char* name = after("op=");
    const char* secs = after("secs=");
    if (line.find("\"span\":\"hop/pass\"") == std::string::npos || round == nullptr ||
        name == nullptr || secs == nullptr) {
      continue;
    }
    std::string op_name(name, std::strcspn(name, " \""));
    int op = -1;
    if (op_name == "forward_conversation") {
      op = position == 0 ? kHop0Fwd : kHop1Fwd;
    } else if (op_name == "backward_conversation") {
      op = position == 0 ? kHop0Bwd : kHop1Bwd;
    } else if (op_name == "last_conversation") {
      op = kHop2Last;
    } else if (op_name == "forward_dialing") {
      op = position == 0 ? kHop0Dfwd : kHop1Dfwd;
    } else if (op_name == "last_dialing") {
      op = kHop2Dlast;
    }
    if (op >= 0) {
      (*out)[{op, std::strtoull(round, nullptr, 10)}] += std::strtod(secs, nullptr);
    }
  }
}

}  // namespace vzbench

#endif  // VUVUZELA_BENCH_VZBENCH_LEDGER_H_

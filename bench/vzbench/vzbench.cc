// vzbench — end-to-end benchmark of the deployed multi-process chain.
//
//   vzbench --workload conv_noise|conv_users|conv_fresh|mixed_paced|all
//           [--seed N] [--seconds S] [--trace [0|1]] [--json FILE]
//           [--ledger FILE] [--daemons DIR]
//
// Starts 3 vuvuzela-hopd (plus 2 vuvuzela-exchanged or 2 vuvuzela-distd where
// the workload needs them) as child processes on loopback and plays the
// coordinator itself with the same library pieces coordd uses: an
// engine::RoundScheduler over one transport::ReconnectingTransport per hop,
// with transport::DistRouter as the distribution backend. Chain keys come
// from the fixed deployment seed 42; --seed drives only the clients (keys,
// payloads, pairings, dialers), and the daemons see only the onions.
//
// Every metric is printed as "workload metric value unit": the gated
// end-to-end metrics, the chain's throughput and latency, and with --trace the
// per-layer metrics, after which the per-round ledger is written as JSONL.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// holding the gated end-to-end metrics (untraced) or the per-layer ones,
// throughput and latency included (traced). The exit status is non-zero iff a
// correctness check failed. See README.md in this directory for the
// workloads, the metric dictionary, why throughput and latency are not gated,
// and the ledger.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "fleet.h"
#include "ledger.h"
#include "load.h"
#include "src/client/dialing_fetcher.h"
#include "src/coord/coordinator.h"
#include "src/engine/round_scheduler.h"
#include "src/obs/registry.h"
#include "src/transport/dist_router.h"
#include "src/transport/hop_chain.h"
#include "src/transport/reconnecting_transport.h"

namespace vzbench {
namespace {

constexpr uint64_t kDeploymentSeed = 42;
constexpr size_t kInFlight = 3;          // K rounds in flight, every workload
constexpr size_t kWarmupRounds = 10;     // fill every hop's SecretCache first
constexpr size_t kSampledClients = 64;   // responses opened per round
constexpr int kSetups = 3;               // setup_s is the median of this many set-ups
constexpr size_t kDistKeep = kInFlight + 5;
constexpr auto kLate = std::chrono::milliseconds(10);

struct Workload {
  const char* name;
  uint64_t users;
  double mu;
  bool fresh_keys;
  size_t exchanged;  // exchange partitions behind the last hop; 0 = in-process
  // Dialing: every dial_every-th round (0 = never), through `distd` shards.
  uint32_t dial_every;
  uint32_t dial_drops;  // including the no-op drop
  double dial_mu;
  double dial_fraction;
  size_t distd;
  // Open loop when cadence_s > 0 (one round due every cadence_s); closed
  // loop otherwise, measuring rounds_per_s rounds per second of --seconds
  // (calibrated so a measured phase lasts about --seconds on a 4-core
  // x86-64 box; a faster build simply finishes sooner).
  double cadence_s;
  double rounds_per_s;
};

// Why each workload exists, and its shape, is in README.md and BENCHMARK.json.
const Workload kWorkloads[] = {
    {"conv_noise", 1000, 300, false, 0, 0, 0, 0, 0, 0, 0, 12.0},
    {"conv_users", 6000, 50, false, 2, 0, 0, 0, 0, 0, 0, 13.0},
    {"conv_fresh", 2000, 100, true, 0, 0, 0, 0, 0, 0, 0, 7.0},
    {"mixed_paced", 1500, 200, false, 0, 4, 33, 20, 0.05, 2, 0.110, 0},
};

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string json;
  std::string ledger;
  std::string daemons;
};

struct MetricDef {
  std::string name;
  std::string unit;
};

// Gated in BENCHMARK.json: the metrics that repeat within their bounds.
std::vector<MetricDef> EndToEndMetrics() { return {{"setup_s", "s"}, {"fleet_rss_mb", "MB"}}; }

// The chain's throughput and latency. Machine-speed noise on a shared host
// moves them by more than their bounds from run to run (README.md), so they
// are reported in every run but gated nowhere; traced runs carry them as
// per-layer metrics.
std::vector<MetricDef> ChainMetrics() {
  return {{"msgs_per_s", "msg/s"}, {"round_p50_s", "s"}, {"round_p90_s", "s"}};
}

const char* const kDaemonNames[] = {"hop0", "hop1", "hop2", "exch0", "exch1", "dist0", "dist1"};

std::vector<MetricDef> LayerMetrics() {
  std::vector<MetricDef> out = ChainMetrics();
  for (const char* op : kOpNames) {
    out.push_back({std::string("transport.") + op + ".rpc_ms", "ms"});
    out.push_back({std::string("transport.") + op + ".wire_ms", "ms"});
    out.push_back({std::string("transport.") + op + ".kb", "KiB"});
    out.push_back({std::string("mixnet.") + op + ".pass_ms", "ms"});
  }
  for (int hop = 0; hop < 3; ++hop) {
    std::string h = "hop" + std::to_string(hop);
    out.push_back({"mixnet." + h + ".busy_frac", "fraction"});
    out.push_back({"mixnet." + h + ".fwd.onions_in", "count"});
    out.push_back({"mixnet." + h + ".fwd.drop_frac", "fraction"});
    out.push_back({"crypto." + h + ".fwd.dh_ops", "count"});
    out.push_back({"crypto." + h + ".fwd.fresh_key_onions", "count"});
  }
  for (const char* m : {"noise.hop0.cover_added", "noise.hop1.cover_added",
                        "noise.hop0.dial_cover_added", "noise.hop1.dial_cover_added",
                        "deaddrop.exchanged_msgs", "dist.shard0.fetches", "dist.shard1.fetches",
                        "transport.replay_hits", "transport.reconnects"}) {
    out.push_back({m, "count"});
  }
  for (const char* m :
       {"deaddrop.exchange_rpc_ms", "deaddrop.exch0.busy_ms", "deaddrop.exch1.busy_ms",
        "dist.publish_ms", "dist.fetch_p50_ms", "engine.submit_block_ms", "engine.handoff_ms",
        "engine.dial_round_p50_ms"}) {
    out.push_back({m, "ms"});
  }
  out.push_back({"dist.kb_per_fetch", "KiB"});
  out.push_back({"engine.ledger_gap_frac", "fraction"});
  out.push_back({"engine.rounds_late_frac", "fraction"});
  for (const char* d : kDaemonNames) {
    out.push_back({std::string("mem.") + d + ".rss_mb", "MB"});
  }
  for (const char* m : {"setup.clients_s", "setup.fleet_s", "setup.warmup_s"}) {
    out.push_back({m, "s"});
  }
  out.push_back({"trace_overhead_frac", "fraction"});
  return out;
}

// Pairs each metric with its value; every listed metric must have one.
std::vector<std::pair<MetricDef, double>> Tabulate(const std::vector<MetricDef>& metrics,
                                                   const std::map<std::string, double>& values) {
  std::vector<std::pair<MetricDef, double>> out;
  for (const MetricDef& m : metrics) {
    out.emplace_back(m, values.at(m.name));
  }
  return out;
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

// The directory holding this binary, inside the build tree: the daemons are
// in ../daemons, and a traced run's default ledger goes here.
std::string ExeDir() {
  char exe[4096];
  ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) {
    return ".";
  }
  std::string path(exe, static_cast<size_t>(n));
  return path.substr(0, path.rfind('/'));
}

// Cover requests one intermediate hop adds per conversation round with
// deterministic noise: round(mu) singles plus ceil(round(mu)/2) pairs.
uint64_t CoverPerHop(double mu) {
  uint64_t m = static_cast<uint64_t>(std::llround(mu));
  return m + 2 * ((m + 1) / 2);
}
uint64_t CoverExchangesPerHop(double mu) { return CoverPerHop(mu) - std::llround(mu); }

// ---------------------------------------------------------------------------
// The plan: every round of a run, pre-wrapped before its phase starts.

struct Round {
  uint64_t number = 0;
  bool dialing = false;
  bool measured = false;
  double due_offset_s = 0;  // open loop: seconds after the measured phase starts
  std::vector<util::Bytes> onions;
  std::vector<uint32_t> sample;  // conversation: clients whose responses are opened
  std::vector<LayerKeys> sample_keys;
  std::vector<std::vector<wire::Invitation>> expected;  // dialing: per real drop, sorted

  Clock::time_point due, submit_call, submit_return, done;
  bool ok = false;
  bool late = false;
  uint64_t delivered = 0;  // client messages, conversation rounds that passed checks
  uint64_t exchanged = 0;
};

void PrepareConversation(const Clients& clients, uint64_t seed, Round& r) {
  const uint64_t users = clients.size();
  util::Xoshiro256Rng rng = StreamRng(seed, Stream::kSample, r.number, 0);
  std::vector<int32_t> slot(users, -1);
  while (r.sample.size() < std::min<uint64_t>(kSampledClients, users)) {
    auto u = static_cast<uint32_t>(rng.UniformUint64(users));
    if (slot[u] < 0) {
      slot[u] = static_cast<int32_t>(r.sample.size());
      r.sample.push_back(u);
    }
  }
  r.sample_keys.resize(r.sample.size());
  r.onions.resize(users);
  util::GlobalPool().ParallelFor(users, [&](size_t u) {
    LayerKeys* keys = slot[u] >= 0 ? &r.sample_keys[slot[u]] : nullptr;
    r.onions[u] = clients.Wrap(r.number, u, clients.ConversationPayload(r.number, u), keys);
  });
}

void PrepareDialing(const Workload& w, const Clients& clients, uint64_t seed, Round& r) {
  const uint64_t users = clients.size();
  const uint32_t real_drops = w.dial_drops - 1;
  std::vector<wire::DialRequest> requests(users);
  r.onions.resize(users);
  util::GlobalPool().ParallelFor(users, [&](size_t u) {
    util::Xoshiro256Rng rng = StreamRng(seed, Stream::kDial, r.number, u);
    wire::DialRequest& request = requests[u];
    request.dead_drop_index = real_drops;  // idle: the no-op drop
    if (rng.UniformDouble() < w.dial_fraction) {
      request.dead_drop_index = clients.own_drop(rng.UniformUint64(users));
    }
    rng.Fill(request.invitation);
    r.onions[u] = clients.Wrap(r.number, u, request.Serialize());
  });
  r.expected.assign(real_drops, {});
  for (const auto& request : requests) {
    if (request.dead_drop_index < real_drops) {
      r.expected[request.dead_drop_index].push_back(request.invitation);
    }
  }
  for (auto& drop : r.expected) {
    std::sort(drop.begin(), drop.end());
  }
}

std::vector<Round> BuildPlan(const Workload& w, const Options& opt) {
  size_t measured = w.cadence_s > 0
                        ? static_cast<size_t>(opt.seconds / w.cadence_s)
                        : static_cast<size_t>(std::ceil(opt.seconds * w.rounds_per_s));
  std::vector<Round> plan(kWarmupRounds + std::max<size_t>(measured, 1));
  uint64_t conversation = 0;
  uint64_t dialing = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    Round& r = plan[i];
    r.dialing = w.dial_every > 0 && i % w.dial_every == w.dial_every - 1;
    r.number = r.dialing ? coord::kDialingRoundBase + ++dialing : ++conversation;
    r.measured = i >= kWarmupRounds;
    if (r.measured) {
      r.due_offset_s = static_cast<double>(i - kWarmupRounds) * w.cadence_s;
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// The deployment: the forked fleet plus the in-process coordinator role.

class Deployment {
 public:
  static std::unique_ptr<Deployment> Start(const Workload& w, const Options& opt, SpanLog* log,
                                           std::string* error) {
    std::unique_ptr<Deployment> d(new Deployment(opt.daemons));
    auto common = [](uint32_t shard, size_t shards) {
      return std::vector<std::string>{"--shard", std::to_string(shard), "--shards",
                                      std::to_string(shards), "--port", "0", "--metrics-port",
                                      "0"};
    };
    std::string exchange;
    for (size_t s = 0; s < w.exchanged; ++s) {
      const Daemon* daemon = d->fleet_.Spawn("exch" + std::to_string(s), "vuvuzela-exchanged",
                                             common(static_cast<uint32_t>(s), w.exchanged), error);
      if (daemon == nullptr) {
        return nullptr;
      }
      exchange += (exchange.empty() ? "" : ",") + std::string("127.0.0.1:") +
                  std::to_string(daemon->port);
    }
    transport::DistRouterConfig dist_config;
    client::DialingFetcherConfig fetch_config;
    for (size_t s = 0; s < w.distd; ++s) {
      const Daemon* daemon = d->fleet_.Spawn("dist" + std::to_string(s), "vuvuzela-distd",
                                             common(static_cast<uint32_t>(s), w.distd), error);
      if (daemon == nullptr) {
        return nullptr;
      }
      dist_config.shards.push_back({"127.0.0.1", daemon->port});
      fetch_config.shards.push_back({"127.0.0.1", daemon->port});
    }
    std::vector<std::unique_ptr<transport::HopTransport>> hops;
    for (size_t pos = 0; pos < kChainLength; ++pos) {
      std::vector<std::string> args = {"--position", std::to_string(pos), "--servers",
                                       std::to_string(kChainLength), "--seed",
                                       std::to_string(kDeploymentSeed), "--mu", Num(w.mu),
                                       "--dial-mu", Num(w.dial_mu), "--port", "0",
                                       "--metrics-port", "0"};
      if (pos + 1 == kChainLength && !exchange.empty()) {
        args.insert(args.end(), {"--exchange", exchange});
      }
      const Daemon* daemon =
          d->fleet_.Spawn("hop" + std::to_string(pos), "vuvuzela-hopd", args, error);
      if (daemon == nullptr) {
        return nullptr;
      }
      transport::TcpTransportConfig config;
      config.port = daemon->port;
      auto link = std::make_unique<transport::ReconnectingTransport>(config);
      if (!link->Connect()) {
        *error = "hop" + std::to_string(pos) + " unreachable";
        return nullptr;
      }
      d->links_.push_back(link.get());
      std::unique_ptr<transport::HopTransport> hop = std::move(link);
      if (log != nullptr) {
        hop = std::make_unique<TracedHop>(std::move(hop), pos, *log);
      }
      hops.push_back(std::move(hop));
    }
    coord::DistributionBackend* backend = nullptr;
    if (w.distd > 0) {
      dist_config.keep_rounds = kDistKeep;
      d->router_ = transport::DistRouter::Connect(dist_config);
      if (!d->router_) {
        *error = "dist shards unreachable";
        return nullptr;
      }
      backend = d->router_.get();
      if (log != nullptr) {
        d->traced_router_ = std::make_unique<TracedDistribution>(*d->router_, *log);
        backend = d->traced_router_.get();
      }
      d->fetcher_ = std::make_unique<client::DialingFetcher>(fetch_config);
    }
    d->scheduler_ = std::make_unique<engine::RoundScheduler>(
        std::move(hops), engine::SchedulerConfig{.max_in_flight = kInFlight,
                                                 .distribution = backend,
                                                 .distribution_keep = kDistKeep});
    return d;
  }

  engine::RoundScheduler& scheduler() { return *scheduler_; }
  client::DialingFetcher* fetcher() { return fetcher_.get(); }
  const Fleet& fleet() const { return fleet_; }
  uint64_t reconnects() const {
    uint64_t n = 0;
    for (const auto* link : links_) {
      n += link->reconnects();
    }
    return n;
  }

  // Orderly teardown: the hops' shutdown cascades to exchanged, the
  // router's to distd; then every child must exit 0 within the deadline.
  bool Shutdown(std::string* error) {
    scheduler_->Drain();
    for (auto* link : links_) {
      link->SendShutdown();
    }
    if (router_) {
      router_->SendShutdown();
    }
    scheduler_.reset();
    links_.clear();
    fetcher_.reset();
    traced_router_.reset();
    router_.reset();
    return fleet_.Reap(10.0, error);
  }

 private:
  explicit Deployment(const std::string& daemon_dir) : fleet_(daemon_dir) {}

  // Destroyed bottom-up: the scheduler (which points at the backend) goes
  // before the router, and the fleet, which kills leftover children, last.
  Fleet fleet_;
  std::unique_ptr<transport::DistRouter> router_;
  std::unique_ptr<TracedDistribution> traced_router_;
  std::unique_ptr<client::DialingFetcher> fetcher_;
  std::vector<transport::ReconnectingTransport*> links_;  // owned by the scheduler
  std::unique_ptr<engine::RoundScheduler> scheduler_;
};

// ---------------------------------------------------------------------------
// Running a phase: submitter (this thread), in-order collector, and in
// mixed_paced a bucket downloader — the load generator's only threads.

class Tally {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why) {
    ++failed_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (errors_.size() < 20) {
      errors_.push_back(why);
    }
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> errors() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return errors_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> errors_;
};

bool CheckConversation(const Workload& w, const Clients& clients, const Round& r,
                       const mixnet::Chain::ConversationResult& result, std::string* why) {
  const auto& fwd = result.stats.forward;
  for (size_t hop = 0; hop < kChainLength; ++hop) {
    if (fwd[hop].requests_dropped != 0) {
      *why = "hop" + std::to_string(hop) + " dropped " + std::to_string(fwd[hop].requests_dropped);
      return false;
    }
    if (hop + 1 < kChainLength && fwd[hop].noise_requests_added != CoverPerHop(w.mu)) {
      *why = "hop" + std::to_string(hop) + " added " +
             std::to_string(fwd[hop].noise_requests_added) + " cover onions";
      return false;
    }
  }
  uint64_t want = clients.size() + (kChainLength - 1) * CoverExchangesPerHop(w.mu);
  if (result.messages_exchanged != want || result.responses.size() != clients.size()) {
    *why = "exchanged " + std::to_string(result.messages_exchanged) + " messages, want " +
           std::to_string(want);
    return false;
  }
  for (size_t k = 0; k < r.sample.size(); ++k) {
    uint32_t u = r.sample[k];
    auto opened = crypto::OnionOpenResponse(r.sample_keys[k], r.number, result.responses[u]);
    wire::Envelope partner = clients.Envelope(r.number, u ^ 1);
    if (!opened || !std::equal(opened->begin(), opened->end(), partner.begin(), partner.end())) {
      *why = "client " + std::to_string(u) + " did not receive its partner's envelope";
      return false;
    }
  }
  return true;
}

bool CheckDialing(const Workload& w, const mixnet::Chain::DialingResult& result,
                  std::string* why) {
  const uint64_t cover = w.dial_drops * static_cast<uint64_t>(std::llround(w.dial_mu));
  for (size_t hop = 0; hop < kChainLength; ++hop) {
    const auto& s = result.stats.forward[hop];
    if (s.requests_dropped != 0 || s.noise_requests_added != cover) {
      *why = "dialing hop" + std::to_string(hop) + " dropped " +
             std::to_string(s.requests_dropped) + ", added " +
             std::to_string(s.noise_requests_added) + " cover invitations";
      return false;
    }
  }
  return true;
}

// Every user downloads its own bucket; the first download of each bucket
// must hold every invitation dialed into it plus each hop's cover.
void DownloadBuckets(const Workload& w, const Clients& clients, client::DialingFetcher& fetcher,
                     const Round& r, Tally& tally, std::vector<double>& fetch_ms) {
  const uint64_t cover = kChainLength * static_cast<uint64_t>(std::llround(w.dial_mu));
  std::vector<int64_t> first_size(w.dial_drops - 1, -1);
  for (uint64_t u = 0; u < clients.size(); ++u) {
    tally.Attempt();
    uint32_t drop = clients.own_drop(u);
    auto t0 = Clock::now();
    std::vector<wire::Invitation> bucket;
    try {
      bucket = fetcher.FetchBucket(r.number, drop, w.dial_drops);
    } catch (const std::exception& e) {
      tally.Fail(std::string("bucket fetch: ") + e.what());
      continue;
    }
    if (r.measured) {
      fetch_ms.push_back(Seconds(Clock::now() - t0) * 1e3);
    }
    const auto& want = r.expected[drop];
    bool ok;
    if (first_size[drop] < 0) {
      first_size[drop] = static_cast<int64_t>(bucket.size());
      std::sort(bucket.begin(), bucket.end());
      ok = bucket.size() == want.size() + cover &&
           std::includes(bucket.begin(), bucket.end(), want.begin(), want.end());
    } else {
      ok = static_cast<int64_t>(bucket.size()) == first_size[drop];
    }
    if (!ok) {
      tally.Fail("bucket " + std::to_string(drop) + " of dialing round " +
                 std::to_string(r.number - coord::kDialingRoundBase) +
                 " is missing invitations dialed into it");
    }
  }
}

void RunPhase(const Workload& w, const Clients& clients, Deployment& dep,
              std::vector<Round>& plan, size_t begin, size_t end, bool open_loop, Tally& tally,
              std::vector<double>& fetch_ms) {
  struct Pending {
    size_t index = 0;
    std::future<mixnet::Chain::ConversationResult> conversation;
    std::future<mixnet::Chain::DialingResult> dialing;
    bool stamped = false;
    std::future_status WaitFor(Clock::duration d) const {
      return conversation.valid() ? conversation.wait_for(d) : dialing.wait_for(d);
    }
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> submitted;
  bool all_submitted = false;
  std::deque<size_t> to_download;
  bool all_collected = false;

  // Rounds of one kind complete in submission order, but a dialing round's
  // Distribute stage races the conversation rounds around it, so with both
  // kinds in flight the collector polls to stamp each round when it is done.
  const bool poll = w.dial_every > 0;
  std::thread collector([&] {
    std::deque<Pending> window;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !window.empty() || !submitted.empty() || all_submitted; });
        while (!submitted.empty()) {
          window.push_back(std::move(submitted.front()));
          submitted.pop_front();
        }
        if (window.empty()) {
          break;
        }
      }
      auto now = Clock::now();
      for (auto& p : window) {
        if (!p.stamped && p.WaitFor(Clock::duration::zero()) == std::future_status::ready) {
          plan[p.index].done = now;
          p.stamped = true;
        }
      }
      Pending& head = window.front();
      if (!head.stamped) {
        if (poll) {
          head.WaitFor(std::chrono::microseconds(200));
        } else {
          head.WaitFor(std::chrono::hours(1));
          plan[head.index].done = Clock::now();
          head.stamped = true;
        }
        continue;
      }
      Round& r = plan[head.index];
      std::string why;
      try {
        if (r.dialing) {
          r.ok = CheckDialing(w, head.dialing.get(), &why);
        } else {
          auto result = head.conversation.get();
          r.ok = CheckConversation(w, clients, r, result, &why);
          r.exchanged = result.messages_exchanged;
          r.delivered = r.ok ? clients.size() : 0;
        }
      } catch (const std::exception& e) {
        why = e.what();
      }
      if (!r.ok) {
        tally.Fail("round " + std::to_string(r.number) + ": " + why);
      } else if (r.dialing && dep.fetcher() != nullptr) {
        std::lock_guard<std::mutex> lock(mutex);
        to_download.push_back(head.index);
        cv.notify_all();
      }
      window.pop_front();
    }
    std::lock_guard<std::mutex> lock(mutex);
    all_collected = true;
    cv.notify_all();
  });
  std::thread downloader;
  if (dep.fetcher() != nullptr) {
    downloader = std::thread([&] {
      for (;;) {
        size_t index;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return !to_download.empty() || all_collected; });
          if (to_download.empty()) {
            return;
          }
          index = to_download.front();
          to_download.pop_front();
        }
        DownloadBuckets(w, clients, *dep.fetcher(), plan[index], tally, fetch_ms);
      }
    });
  }

  const Clock::time_point anchor = Clock::now() + std::chrono::milliseconds(20);
  try {
    for (size_t i = begin; i < end; ++i) {
      Round& r = plan[i];
      if (open_loop) {
        r.due = anchor + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(r.due_offset_s));
        std::this_thread::sleep_until(r.due);
      }
      r.submit_call = Clock::now();
      if (!open_loop) {
        r.due = r.submit_call;
      }
      tally.Attempt();
      Pending p;
      p.index = i;
      if (r.dialing) {
        p.dialing = dep.scheduler().SubmitDialing(r.number, std::move(r.onions), w.dial_drops);
      } else {
        p.conversation = dep.scheduler().SubmitConversation(r.number, std::move(r.onions));
      }
      r.submit_return = Clock::now();
      r.late = open_loop && r.submit_return - r.due > kLate;
      std::lock_guard<std::mutex> lock(mutex);
      submitted.push_back(std::move(p));
      cv.notify_all();
    }
  } catch (const std::exception& e) {
    tally.Fail(std::string("submit: ") + e.what());  // the threads below still get joined
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    all_submitted = true;
    cv.notify_all();
  }
  collector.join();
  if (downloader.joinable()) {
    downloader.join();
  }
}

// ---------------------------------------------------------------------------
// One workload, start to finish.

struct Outcome {
  std::string workload;
  std::vector<std::pair<MetricDef, double>> end_to_end;
  // Untraced: the chain metrics. Traced: every per-layer metric, which
  // includes the chain metrics.
  std::vector<std::pair<MetricDef, double>> reported;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

using Scrape = std::map<std::string, std::map<std::string, double>>;  // daemon → series

Scrape ScrapeMetrics(const Fleet& fleet) {
  Scrape out;
  for (const auto& d : fleet.daemons()) {
    out[d.name] = ParsePrometheus(HttpGet(d.metrics_port, "/metrics"));
  }
  return out;
}

double Delta(const Scrape& before, const Scrape& after, const std::string& daemon,
             const std::string& series) {
  auto value = [&](const Scrape& s) {
    auto d = s.find(daemon);
    if (d == s.end()) {
      return 0.0;
    }
    auto v = d->second.find(series);
    return v == d->second.end() ? 0.0 : v->second;
  };
  return value(after) - value(before);
}

struct TraceInputs {
  const SpanLog* log = nullptr;
  std::map<std::pair<int, uint64_t>, double> pass;  // (op, round) → server pass seconds
  Scrape before, after;
  uint64_t reconnects = 0;       // bench-side links during the measured phase
  double fetch_kib = 0;          // per bucket download, measured phase
  std::map<std::string, double> rss_mb;
  double clients_s = 0, fleet_s = 0, warmup_s = 0;
};

std::map<std::string, double> LayerValues(
    const Workload& w, const std::vector<Round>& plan, const std::vector<double>& fetch_ms,
    const TraceInputs& in, double wall_s, const std::string& ledger_path,
    std::vector<std::string>* closure_errors) {
  std::map<std::string, double> v;
  std::map<std::pair<int, uint64_t>, Span> span_of;
  for (const Span& s : in.log->spans()) {
    span_of[{s.op, s.round}] = s;
  }
  std::map<uint64_t, PublishSpan> publish_of;
  for (const PublishSpan& s : in.log->publishes()) {
    publish_of[s.round] = s;
  }

  std::ofstream ledger(ledger_path);
  std::vector<double> op_rpc[kNumOps], op_pass[kNumOps], op_wire[kNumOps], op_kb[kNumOps];
  double busy[kChainLength] = {0, 0, 0};
  std::vector<double> handoff, gap_frac, dial_latency, publish_ms, exchanged;
  double in_count[kChainLength] = {0, 0, 0}, dropped[kChainLength] = {0, 0, 0};
  std::vector<double> dh[kChainLength], cover[2], dial_cover[2];
  size_t measured = 0, late = 0;
  std::vector<double> submit_block;
  const Clock::time_point origin = plan[kWarmupRounds].due;

  for (const Round& r : plan) {
    if (!r.measured) {
      continue;
    }
    ++measured;
    late += r.late ? 1 : 0;
    submit_block.push_back(Seconds(r.submit_return - r.submit_call) * 1e3);
    const double latency = Seconds(r.done - r.due);
    const Op first = r.dialing ? kHop0Dfwd : kHop0Fwd;
    const Op last = r.dialing ? kHop2Dlast : kHop0Bwd;
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"round\":%llu,\"kind\":\"%s\",\"due_ms\":%s,\"latency_ms\":%s",
                  static_cast<unsigned long long>(r.dialing ? r.number - coord::kDialingRoundBase
                                                             : r.number),
                  r.dialing ? "dialing" : "conversation",
                  Num(Seconds(r.due - origin) * 1e3).c_str(), Num(latency * 1e3).c_str());
    std::string row = head;
    row += ",\"ops\":{";
    double pass_sum = 0, wire_sum = 0, gaps_s = 0;
    bool complete = true;
    Clock::time_point prev_end = r.due;
    for (int op = first; op <= last; ++op) {
      auto s = span_of.find({op, r.number});
      auto p = in.pass.find({op, r.number});
      if (s == span_of.end() || p == in.pass.end()) {
        complete = false;
        continue;
      }
      const Span& span = s->second;
      double rpc = Seconds(span.end - span.start);
      double pass = p->second;
      double wire = std::max(0.0, rpc - pass);
      double kb = static_cast<double>(span.stats.bytes_in + span.stats.bytes_out) / 1024.0;
      op_rpc[op].push_back(rpc * 1e3);
      op_pass[op].push_back(pass * 1e3);
      op_wire[op].push_back(wire * 1e3);
      op_kb[op].push_back(kb);
      busy[kOpHop[op]] += pass;
      pass_sum += pass;
      wire_sum += wire;
      gaps_s += Seconds(span.start - prev_end);
      prev_end = span.end;
      row += std::string(op == first ? "" : ",") + "\"" + kOpNames[op] + "\":{\"rpc_ms\":" +
             Num(rpc * 1e3) + ",\"pass_ms\":" + Num(pass * 1e3) + ",\"kb\":" + Num(kb) + "}";
      if (op == kHop0Fwd || op == kHop1Fwd || op == kHop2Last) {
        size_t hop = kOpHop[op];
        in_count[hop] += static_cast<double>(span.stats.requests_in);
        dropped[hop] += static_cast<double>(span.stats.requests_dropped);
        dh[hop].push_back(static_cast<double>(span.stats.dh_ops));
        if (hop < 2) {
          cover[hop].push_back(static_cast<double>(span.stats.noise_requests_added));
        }
      }
      if (op == kHop0Dfwd || op == kHop1Dfwd) {
        dial_cover[kOpHop[op]].push_back(static_cast<double>(span.stats.noise_requests_added));
      }
    }
    row += "}";
    if (r.dialing) {
      dial_latency.push_back(latency * 1e3);
      auto pub = publish_of.find(r.number);
      if (pub != publish_of.end()) {
        double ms = Seconds(pub->second.end - pub->second.start) * 1e3;
        publish_ms.push_back(ms);
        row += ",\"publish_ms\":" + Num(ms);
      }
    } else {
      // handoff = due → first RPC + gaps between RPCs + last RPC → collected
      double handoff_s = gaps_s + Seconds(r.done - prev_end);
      double gap = latency - (pass_sum + wire_sum + handoff_s);
      double frac = complete && latency > 0 ? std::abs(gap) / latency : 1.0;
      handoff.push_back(handoff_s * 1e3);
      gap_frac.push_back(frac);
      exchanged.push_back(static_cast<double>(r.exchanged));
      row += ",\"mixnet_ms\":" + Num(pass_sum * 1e3) + ",\"transport_ms\":" +
             Num(wire_sum * 1e3) + ",\"engine_ms\":" + Num(handoff_s * 1e3) +
             ",\"gap_frac\":" + Num(frac);
    }
    ledger << row << "}\n";
  }

  for (int op = 0; op < kNumOps; ++op) {
    v[std::string("transport.") + kOpNames[op] + ".rpc_ms"] = Mean(op_rpc[op]);
    v[std::string("transport.") + kOpNames[op] + ".wire_ms"] = Mean(op_wire[op]);
    v[std::string("transport.") + kOpNames[op] + ".kb"] = Mean(op_kb[op]);
    v[std::string("mixnet.") + kOpNames[op] + ".pass_ms"] = Mean(op_pass[op]);
  }
  double fresh = w.fresh_keys ? static_cast<double>(w.users) : 0.0;
  double upstream_cover = 0;
  for (size_t hop = 0; hop < kChainLength; ++hop) {
    std::string h = "hop" + std::to_string(hop);
    v["mixnet." + h + ".busy_frac"] = wall_s > 0 ? busy[hop] / wall_s : 0.0;
    size_t n = dh[hop].size();
    v["mixnet." + h + ".fwd.onions_in"] = n > 0 ? in_count[hop] / static_cast<double>(n) : 0.0;
    v["mixnet." + h + ".fwd.drop_frac"] = in_count[hop] > 0 ? dropped[hop] / in_count[hop] : 0.0;
    v["crypto." + h + ".fwd.dh_ops"] = Mean(dh[hop]);
    // Cache misses by construction: every cover onion arrives under a fresh
    // ephemeral, and so does every client onion in conv_fresh.
    v["crypto." + h + ".fwd.fresh_key_onions"] = fresh + upstream_cover;
    if (hop < 2) {
      upstream_cover += Mean(cover[hop]);
      v["noise." + h + ".cover_added"] = Mean(cover[hop]);
      v["noise." + h + ".dial_cover_added"] = Mean(dial_cover[hop]);
    }
  }
  const double conv_rounds = static_cast<double>(exchanged.size());
  const double dial_rounds = static_cast<double>(dial_latency.size());
  auto per_round = [](double total, double rounds) { return rounds > 0 ? total / rounds : 0.0; };
  v["deaddrop.exchange_rpc_ms"] =
      per_round(Delta(in.before, in.after, "hop2", "vuvuzela_rpc_seconds_sum") * 1e3, conv_rounds);
  for (int s = 0; s < 2; ++s) {
    std::string e = "exch" + std::to_string(s);
    v["deaddrop." + e + ".busy_ms"] = per_round(
        Delta(in.before, in.after, e, "vuvuzela_exchange_seconds_sum") * 1e3, conv_rounds);
    std::string d = "dist" + std::to_string(s);
    v["dist.shard" + std::to_string(s) + ".fetches"] =
        per_round(Delta(in.before, in.after, d, "vuvuzela_dist_fetches_total"), dial_rounds);
  }
  v["deaddrop.exchanged_msgs"] = Mean(exchanged);
  v["dist.publish_ms"] = Mean(publish_ms);
  v["dist.fetch_p50_ms"] = bench::Percentile(fetch_ms, 50);
  v["dist.kb_per_fetch"] = in.fetch_kib;
  v["engine.submit_block_ms"] = Mean(submit_block);
  v["engine.handoff_ms"] = Mean(handoff);
  v["engine.ledger_gap_frac"] = Mean(gap_frac);
  v["engine.dial_round_p50_ms"] = bench::Percentile(dial_latency, 50);
  v["engine.rounds_late_frac"] =
      measured > 0 ? static_cast<double>(late) / static_cast<double>(measured) : 0.0;
  double replays = 0, reconnects = static_cast<double>(in.reconnects);
  for (size_t hop = 0; hop < kChainLength; ++hop) {
    std::string h = "hop" + std::to_string(hop);
    replays += Delta(in.before, in.after, h, "vuvuzela_hop_replay_hits_total");
    reconnects += Delta(in.before, in.after, h, "vuvuzela_shard_reconnects_total");
  }
  v["transport.replay_hits"] = replays;
  v["transport.reconnects"] = reconnects;
  for (const char* d : kDaemonNames) {
    auto rss = in.rss_mb.find(d);
    v[std::string("mem.") + d + ".rss_mb"] = rss == in.rss_mb.end() ? 0.0 : rss->second;
  }
  v["setup.clients_s"] = in.clients_s;
  v["setup.fleet_s"] = in.fleet_s;
  v["setup.warmup_s"] = in.warmup_s;
  v["trace_overhead_frac"] = wall_s > 0 ? in.log->bookkeeping_seconds() / wall_s : 0.0;

  // Ledger closure: the three shares must add back up to each round's
  // latency, and the daemons' /trace pass records must account for their
  // own pass-time histograms.
  if (v["engine.ledger_gap_frac"] >= 0.02) {
    closure_errors->push_back("ledger gap " + Num(v["engine.ledger_gap_frac"]) + " >= 2%");
  }
  for (size_t hop = 0; hop < kChainLength; ++hop) {
    std::string h = "hop" + std::to_string(hop);
    double histogram = Delta(in.before, in.after, h, "vuvuzela_hop_pass_seconds_sum");
    if (std::abs(busy[hop] - histogram) > 0.05 * histogram) {
      closure_errors->push_back(h + " /trace pass seconds " + Num(busy[hop]) +
                                " vs /metrics " + Num(histogram));
    }
  }
  return v;
}

Outcome RunWorkload(const Workload& w, const Options& opt) {
  Outcome out;
  out.workload = w.name;
  Tally tally;
  auto fail = [&](const std::string& why) { tally.Fail(std::string(w.name) + ": " + why); };
  auto finish = [&] {
    out.attempted = std::max<uint64_t>(tally.attempted(), 1);
    out.failed = tally.failed();
    out.errors = tally.errors();
    return out;
  };
  const Clock::time_point t0 = Clock::now();

  Clients clients(w.users, opt.seed,
                  transport::DeriveChainKeys(kDeploymentSeed, kChainLength).public_keys,
                  !w.fresh_keys);
  std::string why;
  tally.Attempt();
  if (!clients.SelfCheck(&why)) {
    fail("client onion self-check: " + why);
    return finish();
  }
  if (w.dial_every > 0) {
    clients.SetDialDrops(w.dial_drops - 1);
  }
  std::vector<Round> plan = BuildPlan(w, opt);
  for (Round& r : plan) {
    if (r.dialing) {
      PrepareDialing(w, clients, opt.seed, r);
    } else {
      PrepareConversation(clients, opt.seed, r);
    }
  }
  const double clients_s = Seconds(Clock::now() - t0);

  // One set-up is a fleet start plus the warm-up rounds on it. Each of
  // kSetups set-ups replays the same warm-up onions on a fresh fleet; every
  // fleet but the last is shut down again, outside the timing, and the last
  // one is measured.
  std::vector<std::vector<util::Bytes>> warm_onions;
  for (size_t i = 0; i < kWarmupRounds; ++i) {
    warm_onions.push_back(plan[i].onions);
  }
  SpanLog log;
  std::unique_ptr<Deployment> dep;
  std::vector<double> setup_s, fleet_s, warmup_s;
  std::vector<double> fetch_ms;  // measured dialing rounds only
  for (int k = 0; k < kSetups; ++k) {
    std::string error;
    if (dep) {
      tally.Attempt();
      if (!dep->Shutdown(&error)) {
        fail("fleet teardown: " + error);
      }
      dep.reset();
      for (size_t i = 0; i < kWarmupRounds; ++i) {
        plan[i].onions = warm_onions[i];
      }
    }
    const Clock::time_point start = Clock::now();
    dep = Deployment::Start(w, opt, opt.trace ? &log : nullptr, &error);
    tally.Attempt();
    if (!dep) {
      fail("fleet start: " + error);
      return finish();
    }
    const Clock::time_point started = Clock::now();
    RunPhase(w, clients, *dep, plan, 0, kWarmupRounds, /*open_loop=*/false, tally, fetch_ms);
    const Clock::time_point warm = Clock::now();
    fleet_s.push_back(Seconds(started - start));
    warmup_s.push_back(Seconds(warm - started));
    setup_s.push_back(Seconds(warm - start));
  }
  warm_onions.clear();

  TraceInputs trace;
  trace.log = &log;
  uint64_t reconnects_before = dep->reconnects();
  obs::Counter* bench_reconnects = obs::Registry::Global().GetCounter(
      "vuvuzela_shard_reconnects_total",
      "ShardLink reconnect-and-replay attempts after a stale connection died");
  uint64_t bench_reconnects_before = bench_reconnects->Value();
  uint64_t bytes_before = dep->fetcher() ? dep->fetcher()->bytes_fetched() : 0;
  uint64_t buckets_before = dep->fetcher() ? dep->fetcher()->buckets_fetched() : 0;
  if (opt.trace) {
    trace.before = ScrapeMetrics(dep->fleet());
  }

  RunPhase(w, clients, *dep, plan, kWarmupRounds, plan.size(), w.cadence_s > 0, tally, fetch_ms);

  Clock::time_point first_due = plan[kWarmupRounds].due;
  Clock::time_point last_done = first_due;
  std::vector<double> latency;
  uint64_t delivered = 0;
  for (const Round& r : plan) {
    if (r.measured) {
      last_done = std::max(last_done, r.done);
      if (!r.dialing && r.ok) {
        latency.push_back(Seconds(r.done - r.due));
        delivered += r.delivered;
      }
    }
  }
  const double wall_s = Seconds(last_done - first_due);

  double fleet_rss = 0;
  for (const auto& d : dep->fleet().daemons()) {
    double mb = PeakRssMb(d.pid);
    trace.rss_mb[d.name] = mb;
    fleet_rss += mb;
  }
  if (opt.trace) {
    trace.after = ScrapeMetrics(dep->fleet());
    for (size_t pos = 0; pos < kChainLength; ++pos) {
      const Daemon* hop = dep->fleet().Find("hop" + std::to_string(pos));
      CollectPassSeconds(HttpGet(hop->metrics_port, "/trace"), pos, &trace.pass);
    }
    trace.reconnects = dep->reconnects() - reconnects_before + bench_reconnects->Value() -
                       bench_reconnects_before;
    if (dep->fetcher()) {
      uint64_t buckets = dep->fetcher()->buckets_fetched() - buckets_before;
      trace.fetch_kib = buckets > 0 ? static_cast<double>(dep->fetcher()->bytes_fetched() -
                                                          bytes_before) /
                                          static_cast<double>(buckets) / 1024.0
                                    : 0.0;
    }
    trace.clients_s = clients_s;
    trace.fleet_s = bench::Percentile(fleet_s, 50);
    trace.warmup_s = bench::Percentile(warmup_s, 50);
  }
  std::string error;
  tally.Attempt();
  if (!dep->Shutdown(&error)) {
    fail("fleet teardown: " + error);
  }
  dep.reset();

  std::map<std::string, double> values = {
      {"setup_s", bench::Percentile(setup_s, 50)},
      {"fleet_rss_mb", fleet_rss},
      {"msgs_per_s", wall_s > 0 ? static_cast<double>(delivered) / wall_s : 0.0},
      {"round_p50_s", bench::Percentile(latency, 50)},
      {"round_p90_s", bench::Percentile(latency, 90)},
  };
  out.end_to_end = Tabulate(EndToEndMetrics(), values);
  if (!opt.trace) {
    out.reported = Tabulate(ChainMetrics(), values);
  } else {
    std::string ledger = opt.ledger.empty() ? ExeDir() + "/vzbench-ledger-" + w.name + ".jsonl"
                                            : opt.ledger;
    if (opt.workload == "all" && !opt.ledger.empty()) {
      ledger = opt.ledger + "." + w.name;
    }
    std::vector<std::string> closure;
    values.merge(LayerValues(w, plan, fetch_ms, trace, wall_s, ledger, &closure));
    out.reported = Tabulate(LayerMetrics(), values);
    for (const auto& c : closure) {
      tally.Attempt();
      fail("ledger closure: " + c);
    }
  }
  return finish();
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* value = nullptr;
    if (arg == "--workload" && (value = next())) {
      opt->workload = value;
    } else if (arg == "--seed" && (value = next())) {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds" && (value = next())) {
      opt->seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt->trace = true;
      if (i + 1 < argc && (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1")) {
        opt->trace = std::string(argv[++i]) == "1";
      }
    } else if (arg == "--json" && (value = next())) {
      opt->json = value;
    } else if (arg == "--ledger" && (value = next())) {
      opt->ledger = value;
    } else if (arg == "--daemons" && (value = next())) {
      opt->daemons = value;
    } else {
      return false;
    }
  }
  return opt->seconds > 0 && opt->seconds <= 120;
}

std::string MetricsJson(
    const std::vector<std::pair<std::string, std::pair<MetricDef, double>>>& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    out += std::string(i ? "," : "") + "\"" + m[i].first + "\":{\"value\":" +
           Num(m[i].second.second) + ",\"unit\":\"" + m[i].second.first.unit + "\"}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: vzbench [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]\n"
                 "               [--json FILE] [--ledger FILE] [--daemons DIR]\n");
    return 2;
  }
  if (opt.daemons.empty()) {
    opt.daemons = ExeDir() + "/../daemons";
  }
  std::vector<const Workload*> selected;
  for (const auto& w : kWorkloads) {
    if (opt.workload == "all" || opt.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "vzbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  for (const char* binary : {"vuvuzela-hopd", "vuvuzela-exchanged", "vuvuzela-distd"}) {
    if (access((opt.daemons + "/" + binary).c_str(), X_OK) != 0) {
      std::fprintf(stderr, "vzbench: %s/%s is missing; build the daemons first\n",
                   opt.daemons.c_str(), binary);
      return 2;
    }
  }

  std::vector<Outcome> outcomes;
  for (const Workload* w : selected) {
    outcomes.push_back(RunWorkload(*w, opt));
    const Outcome& o = outcomes.back();
    for (const auto& metrics : {o.end_to_end, o.reported}) {
      for (const auto& [m, value] : metrics) {
        std::printf("%s %s %s %s\n", o.workload.c_str(), m.name.c_str(), Num(value).c_str(),
                    m.unit.c_str());
      }
    }
    std::printf("%s fail_frac %s fraction\n", o.workload.c_str(),
                Num(static_cast<double>(o.failed) / static_cast<double>(o.attempted)).c_str());
    for (const auto& e : o.errors) {
      std::fprintf(stderr, "vzbench: %s\n", e.c_str());
    }
    std::fflush(stdout);
  }

  uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, std::pair<MetricDef, double>>> reported;
  std::string json = "[";
  for (const Outcome& o : outcomes) {
    attempted += o.attempted;
    failed += o.failed;
    const auto& metrics = opt.trace ? o.reported : o.end_to_end;
    for (const auto& entry : metrics) {
      std::string name =
          selected.size() > 1 ? o.workload + "." + entry.first.name : entry.first.name;
      reported.push_back({name, entry});
    }
    std::string object = "{";
    for (const auto& ms : {o.end_to_end, o.reported}) {
      for (const auto& [m, value] : ms) {
        object += std::string(object.size() > 1 ? "," : "") + "\"" + m.name + "\":" + Num(value);
      }
    }
    json += std::string(json.size() > 1 ? "," : "") + "{\"workload\":\"" + o.workload +
            "\",\"seed\":" + std::to_string(opt.seed) + ",\"seconds\":" + Num(opt.seconds) +
            ",\"trace\":" + (opt.trace ? "true" : "false") + ",\"attempted\":" +
            std::to_string(o.attempted) + ",\"failed\":" + std::to_string(o.failed) +
            ",\"metrics\":" + object + "}}";
  }
  json += "]\n";
  if (!opt.json.empty()) {
    std::ofstream(opt.json) << json;
  }
  const bool correct = failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vzbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  return vzbench::Main(argc, argv);
}

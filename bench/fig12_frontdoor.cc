// FIG12 — the client-facing front door at fleet scale: concurrent client
// connections vs admission latency on the epoll reactor (net::EventLoop).
//
// The paper's deployment claims one million connected users (§8). A thread
// per client dies long before that; this bench measures the substrate that
// replaces it. Two sections:
//
//  * FRONTDOOR — a fleet of forked server processes, each running the same
//    transport::FrontDoor the coordinator's client edge runs, absorbs a
//    synchronized admission storm: every synthetic client opens a
//    connection and submits one onion. All connections are held open until
//    every client in the fleet has been acked, so the reported connection
//    count is truly concurrent. Clients download invitation buckets from
//    distd, never through the front door; the next section measures that.
//    At VUVUZELA_BENCH_SCALE=full the fleet holds 100K+ connections (the
//    per-process fd ceiling forces the fleet shape: ~13K clients per server
//    process and per driver process).
//  * DISTD — the same storm against reactor-served vuvuzela-distd shards
//    (real published invitation tables, chunked batch replies).
//
// Clients are forked driver processes, one per server, each running its own
// net::EventLoop with adopted outbound connections — the reactor is the load
// generator too, on both ends of every socket. VUVUZELA_FIG12_SECTION=
// frontdoor|distd runs one section alone.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "bench/forked_fleet.h"
#include "src/deaddrop/invitation_table.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/tcp.h"
#include "src/transport/dist_daemon.h"
#include "src/transport/dist_router.h"
#include "src/transport/front_door.h"
#include "src/transport/hop_wire.h"
#include "src/util/random.h"
#include "src/util/stats.h"

using namespace vuvuzela;
using util::SecondsSince;

namespace {

constexpr uint64_t kRound = 1;
constexpr size_t kOnionBytes = 416;        // client onion at paper depth
constexpr uint32_t kNumDrops = 64;         // invitation buckets per table
constexpr size_t kInvitationsPerDrop = 4;  // 320 B per bucket download

// --- pipe plumbing ----------------------------------------------------------
//
// Each driver reports its measurements to the parent over a pipe as
// [u32 submit_count][doubles][u32 fetch_count][doubles][u32 open_conns],
// then blocks on a control pipe until the parent has heard from *every*
// driver — only then may it close its connections, so the fleet-wide
// connection count is held concurrently at the moment the parent sums it.

bool WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n <= 0) {
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    ssize_t n = ::read(fd, p, len);
    if (n <= 0) {
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteDoubles(int fd, const std::vector<double>& values) {
  uint32_t count = static_cast<uint32_t>(values.size());
  return WriteAll(fd, &count, sizeof(count)) &&
         (count == 0 || WriteAll(fd, values.data(), count * sizeof(double)));
}

bool ReadDoubles(int fd, std::vector<double>* out) {
  uint32_t count = 0;
  if (!ReadAll(fd, &count, sizeof(count))) {
    return false;
  }
  std::vector<double> values(count);
  if (count > 0 && !ReadAll(fd, values.data(), count * sizeof(double))) {
    return false;
  }
  out->insert(out->end(), values.begin(), values.end());
  return true;
}

struct DriverPipes {
  pid_t pid = -1;
  int results = -1;  // driver -> parent
  int go = -1;       // parent -> driver: safe to drop connections
};

// --- the front-door server process ------------------------------------------

// What the coordinator's client edge does per frame, minus the round engine:
// admission ops ack immediately. Runs the identical FrontDoor class coordd
// runs, so the reactor path is the production code path.
class BenchDoor {
 public:
  static std::unique_ptr<BenchDoor> Create() {
    auto door = std::make_unique<BenchDoor>();
    transport::FrontDoorConfig config;
    transport::FrontDoorHandlers handlers;
    handlers.on_frame = [d = door.get()](size_t client, net::Frame&& frame) {
      d->OnFrame(client, std::move(frame));
    };
    door->door_ = transport::FrontDoor::Create(config, std::move(handlers));
    if (door->door_ == nullptr) {
      return nullptr;
    }
    return door;
  }

  uint16_t port() const { return door_->port(); }

  // The SpawnForkedFleet serving surface: accept until asked to stop.
  void Serve() {
    if (!door_->Start()) {
      return;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_; });
    }
    door_->CloseClients(net::Frame{net::FrameType::kShutdown, 0, {}}, /*grace_ms=*/1000);
    door_->Shutdown();
  }

 private:
  void OnFrame(size_t client, net::Frame&& frame) {
    if (frame.type == net::FrameType::kShutdown) {
      // The parent's control connection: stop serving (mirrors distd).
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      cv_.notify_all();
      return;
    }
    // Admission: dedup by client index as coordd does, ack the onion. The
    // handler runs on the loop thread; this is exactly the per-client work
    // the coordinator performs under its admission mutex.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (dedup_.size() <= client) {
        dedup_.resize(client + 1, 0);
      }
      if (dedup_[client] != 0) {
        return;  // duplicate submission; coordd drops these silently
      }
      dedup_[client] = 1;
      admitted_ += 1;
    }
    door_->Send(client, net::Frame{net::FrameType::kConversationResponse, frame.round, {}});
  }

  std::unique_ptr<transport::FrontDoor> door_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<uint8_t> dedup_;
  uint64_t admitted_ = 0;
};

// --- the driver process ------------------------------------------------------

// Opens `conns` connections to one server, runs the storm on a local
// EventLoop, reports latencies, holds the connections through the barrier.
struct DriverResult {
  std::vector<double> submit_ms;
  std::vector<double> fetch_ms;
  size_t open_conns = 0;
};

// Per-connection storm state, keyed by the driver loop's ConnId.
struct ClientState {
  std::chrono::steady_clock::time_point sent_at;
  bool acked = false;
};

int RunFrontDoorDriver(uint16_t port, size_t conns, int results_fd, int go_fd) {
  DriverResult result;
  std::unordered_map<net::EventLoop::ConnId, ClientState> states;

  net::EventLoop* loop_ptr = nullptr;
  net::EventLoop::Handlers handlers;
  handlers.on_frame = [&](net::EventLoop::ConnId id, net::Frame&& frame) {
    auto it = states.find(id);
    if (it == states.end() || it->second.acked ||
        frame.type != net::FrameType::kConversationResponse) {
      return;
    }
    it->second.acked = true;
    result.submit_ms.push_back(SecondsSince(it->second.sent_at) * 1e3);
    if (result.submit_ms.size() == states.size()) {
      loop_ptr->Stop();
    }
  };
  handlers.on_close = [&](net::EventLoop::ConnId id) { states.erase(id); };
  auto loop = net::EventLoop::Create(std::move(handlers));
  if (loop == nullptr) {
    return 1;
  }
  loop_ptr = loop.get();

  // Connect the whole cohort, then fire every submission before serving a
  // single reply: a synchronized admission storm, the front door's design
  // load. (Pre-Run the owning thread may touch the loop; see the contract.)
  util::Xoshiro256Rng rng(static_cast<uint64_t>(getpid()));
  util::Bytes onion(kOnionBytes);
  for (size_t i = 0; i < conns; ++i) {
    std::optional<net::TcpConnection> conn;
    for (int attempt = 0; attempt < 50 && !conn; ++attempt) {
      conn = net::TcpConnection::Connect("127.0.0.1", port, /*timeout_ms=*/10000);
      if (!conn) {
        usleep(20000);  // SYN dropped under storm; retry
      }
    }
    if (!conn) {
      std::fprintf(stderr, "driver: connect %zu/%zu failed\n", i, conns);
      return 1;
    }
    net::EventLoop::ConnId id = loop->AddConnection(std::move(*conn));
    if (id == 0) {
      return 1;
    }
    rng.Fill(onion);
    states[id].sent_at = std::chrono::steady_clock::now();
    loop->Send(id, net::Frame{net::FrameType::kConversationRequest, kRound, onion});
  }
  loop->Run();

  result.open_conns = loop->connections();
  if (!WriteDoubles(results_fd, result.submit_ms) || !WriteDoubles(results_fd, result.fetch_ms)) {
    return 1;
  }
  uint32_t open = static_cast<uint32_t>(result.open_conns);
  if (!WriteAll(results_fd, &open, sizeof(open))) {
    return 1;
  }
  // Barrier: connections stay open until every driver has reported.
  char byte = 0;
  (void)ReadAll(go_fd, &byte, 1);
  return 0;
}

// Dist storm: each connection runs `kFetchesPerConn` sequential bucket
// downloads against its shard — the chunked kInvitationFetch batch RPC,
// reassembled with the same streaming BatchAssembler the servers use.
constexpr size_t kFetchesPerConn = 4;

struct DistClientState {
  transport::BatchAssembler assembler;
  std::chrono::steady_clock::time_point sent_at;
  uint32_t drop = 0;  // bucket to fetch (within the shard's owned range)
  size_t remaining = kFetchesPerConn;
};

int RunDistDriver(uint16_t port, size_t conns, uint32_t shard, uint32_t num_shards,
                  int results_fd, int go_fd) {
  DriverResult result;
  std::unordered_map<net::EventLoop::ConnId, DistClientState> states;
  size_t completed = 0;
  deaddrop::InvitationDropRange range =
      deaddrop::InvitationDropsOfShard(shard, kNumDrops, num_shards);
  uint32_t owned = range.end - range.begin;
  if (owned == 0) {
    return 1;
  }

  net::EventLoop* loop_ptr = nullptr;
  auto send_fetch = [&](net::EventLoop::ConnId id, DistClientState& state) {
    state.sent_at = std::chrono::steady_clock::now();
    util::Bytes header = transport::EncodeInvitationFetchHeader(
        {shard, num_shards, kNumDrops, range.begin + state.drop});
    auto frames = transport::EncodeBatchChunks(net::FrameType::kInvitationFetch, kRound, header,
                                               {}, transport::kDefaultChunkPayload);
    for (const net::Frame& frame : *frames) {
      loop_ptr->Send(id, frame);
    }
  };
  net::EventLoop::Handlers handlers;
  handlers.on_frame = [&](net::EventLoop::ConnId id, net::Frame&& frame) {
    auto it = states.find(id);
    if (it == states.end()) {
      return;
    }
    DistClientState& state = it->second;
    auto status = state.assembler.Consume(std::move(frame));
    if (status == transport::BatchAssembler::Status::kNeedMore) {
      return;
    }
    if (status == transport::BatchAssembler::Status::kError) {
      std::fprintf(stderr, "dist driver: bad reply: %s\n", state.assembler.error().c_str());
      loop_ptr->Stop();
      return;
    }
    transport::BatchMessage reply = state.assembler.Take();
    state.assembler = transport::BatchAssembler();
    if (reply.op == net::FrameType::kHopError) {
      std::fprintf(stderr, "dist driver: shard error\n");
      loop_ptr->Stop();
      return;
    }
    result.fetch_ms.push_back(SecondsSince(state.sent_at) * 1e3);
    state.remaining -= 1;
    if (state.remaining == 0) {
      completed += 1;
      if (completed == states.size()) {
        loop_ptr->Stop();
      }
      return;
    }
    state.drop = (state.drop + 1) % owned;
    send_fetch(id, state);
  };
  handlers.on_close = [&](net::EventLoop::ConnId id) { states.erase(id); };
  auto loop = net::EventLoop::Create(std::move(handlers));
  if (loop == nullptr) {
    return 1;
  }
  loop_ptr = loop.get();

  for (size_t i = 0; i < conns; ++i) {
    std::optional<net::TcpConnection> conn;
    for (int attempt = 0; attempt < 50 && !conn; ++attempt) {
      conn = net::TcpConnection::Connect("127.0.0.1", port, /*timeout_ms=*/10000);
      if (!conn) {
        usleep(20000);
      }
    }
    if (!conn) {
      std::fprintf(stderr, "dist driver: connect %zu/%zu failed\n", i, conns);
      return 1;
    }
    net::EventLoop::ConnId id = loop->AddConnection(std::move(*conn));
    if (id == 0) {
      return 1;
    }
    DistClientState& state = states[id];
    state.drop = static_cast<uint32_t>(i) % owned;
    send_fetch(id, state);
  }
  loop->Run();

  result.open_conns = loop->connections();
  if (!WriteDoubles(results_fd, result.submit_ms) || !WriteDoubles(results_fd, result.fetch_ms)) {
    return 1;
  }
  uint32_t open = static_cast<uint32_t>(result.open_conns);
  if (!WriteAll(results_fd, &open, sizeof(open))) {
    return 1;
  }
  char byte = 0;
  (void)ReadAll(go_fd, &byte, 1);
  return 0;
}

// Forks one driver per server. `run(port, shard, results_fd, go_fd)` runs in
// the child and returns its exit code.
template <typename RunDriver>
std::vector<DriverPipes> SpawnDrivers(const std::vector<bench::ForkedServer>& servers,
                                      RunDriver&& run) {
  std::vector<DriverPipes> drivers;
  for (size_t shard = 0; shard < servers.size(); ++shard) {
    int results[2];
    int go[2];
    if (pipe(results) != 0 || pipe(go) != 0) {
      return drivers;  // caller reaps what exists
    }
    pid_t pid = fork();
    if (pid < 0) {
      return drivers;
    }
    if (pid == 0) {
      close(results[0]);
      close(go[1]);
      int code = run(servers[shard].port, static_cast<uint32_t>(shard), results[1], go[0]);
      _exit(code);
    }
    close(results[1]);
    close(go[0]);
    drivers.push_back({pid, results[0], go[1]});
  }
  return drivers;
}

// Reads every driver's report (connections held open across all drivers while
// this runs), releases the barrier, reaps. False if any driver failed.
bool CollectDrivers(const std::vector<DriverPipes>& drivers, std::vector<double>* submit_ms,
                    std::vector<double>* fetch_ms, size_t* total_open) {
  bool ok = drivers.size() > 0;
  for (const DriverPipes& driver : drivers) {
    uint32_t open = 0;
    if (!ReadDoubles(driver.results, submit_ms) || !ReadDoubles(driver.results, fetch_ms) ||
        !ReadAll(driver.results, &open, sizeof(open))) {
      ok = false;
    }
    *total_open += open;
  }
  // Every driver has reported: the fleet's connections are all concurrently
  // open at this instant. Release them.
  for (const DriverPipes& driver : drivers) {
    char byte = 1;
    WriteAll(driver.go, &byte, 1);
  }
  for (const DriverPipes& driver : drivers) {
    int status = 0;
    waitpid(driver.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ok = false;
    }
    close(driver.results);
    close(driver.go);
  }
  return ok;
}

void RunFrontDoorSection(uint32_t num_servers, size_t conns_per_server) {
  std::printf("\n  FRONTDOOR: admission storm against %u FrontDoor server processes\n"
              "  (%zu clients each; every client submits one %zu-byte onion):\n",
              num_servers, conns_per_server, kOnionBytes);

  auto servers = bench::SpawnForkedFleet(
      num_servers, [](uint32_t, uint32_t) { return BenchDoor::Create(); });
  if (servers.empty()) {
    std::fprintf(stderr, "failed to fork front-door fleet\n");
    return;
  }
  auto storm_start = std::chrono::steady_clock::now();
  auto drivers = SpawnDrivers(servers, [conns_per_server](uint16_t port, uint32_t, int results_fd,
                                                          int go_fd) {
    return RunFrontDoorDriver(port, conns_per_server, results_fd, go_fd);
  });

  std::vector<double> submit_ms;
  std::vector<double> unused;
  size_t connections = 0;
  bool ok = drivers.size() == servers.size() &&
            CollectDrivers(drivers, &submit_ms, &unused, &connections);
  double storm_seconds = SecondsSince(storm_start);

  // Orderly teardown: a control connection tells each server to stop.
  bench::ShutdownForkedFleet(
      [&] {
        for (const auto& server : servers) {
          auto conn = net::TcpConnection::Connect("127.0.0.1", server.port, 5000);
          if (conn) {
            conn->SendFrame(net::Frame{net::FrameType::kShutdown, 0, {}});
          }
        }
      },
      servers);
  if (!ok) {
    std::fprintf(stderr, "front-door storm failed (%zu/%zu submits acked)\n", submit_ms.size(),
                 static_cast<size_t>(num_servers) * conns_per_server);
    return;
  }

  double submit_p50 = bench::Percentile(submit_ms, 50);
  double submit_p99 = bench::Percentile(submit_ms, 99);
  std::printf("  %-24s %-12s %-12s\n", "concurrent connections", "submit p50", "submit p99");
  std::printf("  %-24s %-12s %-12s\n", bench::Human(connections).c_str(),
              (std::to_string(submit_p50).substr(0, 6) + " ms").c_str(),
              (std::to_string(submit_p99).substr(0, 6) + " ms").c_str());
  std::printf("  storm wall time %.2fs, %s admissions/sec\n", storm_seconds,
              bench::Human(submit_ms.size() / storm_seconds).c_str());
  bench::EmitJson("fig12_frontdoor", {{"connections", static_cast<double>(connections)},
                                      {"servers", static_cast<double>(num_servers)},
                                      {"submit_p50_ms", submit_p50},
                                      {"submit_p99_ms", submit_p99},
                                      {"admissions_per_sec", submit_ms.size() / storm_seconds}});
  std::printf("  One reactor thread per server process serves its whole cohort; p99 is\n"
              "  bounded by the storm drain (every submission is already queued when the\n"
              "  loop starts serving), not by per-connection thread scheduling.\n");
}

void RunDistSection(uint32_t num_shards, size_t conns_per_shard) {
  std::printf("\n  DISTD: bucket-download storm against %u reactor-served distd processes\n"
              "  (%zu connections each, %zu chunked fetches per connection, %u-bucket table,\n"
              "  %zu invitations per bucket):\n",
              num_shards, conns_per_shard, kFetchesPerConn, kNumDrops, kInvitationsPerDrop);

  auto servers = bench::SpawnForkedFleet(num_shards, [](uint32_t shard, uint32_t shards) {
    transport::DistDaemonConfig config;
    config.shard_index = shard;
    config.num_shards = shards;
    return transport::DistDaemon::Create(config);
  });
  if (servers.empty()) {
    std::fprintf(stderr, "failed to fork dist fleet\n");
    return;
  }

  // Publish one round's table to the fleet before any driver fetches (the
  // router is threadless, so forking drivers afterwards is safe — but the
  // drivers gate on their first reply anyway).
  transport::DistRouterConfig router_config;
  for (const auto& server : servers) {
    router_config.shards.push_back({"127.0.0.1", server.port});
  }
  auto router = transport::DistRouter::Connect(router_config);
  if (router == nullptr) {
    std::fprintf(stderr, "cannot reach dist fleet\n");
    bench::KillForkedFleet(servers);
    return;
  }
  deaddrop::InvitationTable table(kNumDrops);
  util::Xoshiro256Rng rng(99);
  for (uint32_t drop = 0; drop < kNumDrops; ++drop) {
    for (size_t i = 0; i < kInvitationsPerDrop; ++i) {
      wire::Invitation invitation;
      rng.Fill(invitation);
      table.Add(drop, invitation);
    }
  }
  router->Publish(kRound, std::move(table));

  auto storm_start = std::chrono::steady_clock::now();
  auto drivers = SpawnDrivers(
      servers, [conns_per_shard, num_shards](uint16_t port, uint32_t shard, int results_fd,
                                             int go_fd) {
        return RunDistDriver(port, conns_per_shard, shard, num_shards, results_fd, go_fd);
      });
  std::vector<double> unused;
  std::vector<double> fetch_ms;
  size_t connections = 0;
  bool ok = drivers.size() == servers.size() &&
            CollectDrivers(drivers, &unused, &fetch_ms, &connections);
  double storm_seconds = SecondsSince(storm_start);
  bench::ShutdownForkedFleet([&] { router->SendShutdown(); }, servers);
  if (!ok) {
    std::fprintf(stderr, "dist storm failed (%zu fetches completed)\n", fetch_ms.size());
    return;
  }

  double p50 = bench::Percentile(fetch_ms, 50);
  double p99 = bench::Percentile(fetch_ms, 99);
  std::printf("  %-24s %-12s %-12s %-14s\n", "concurrent connections", "fetch p50", "fetch p99",
              "fetches/sec");
  std::printf("  %-24s %-12s %-12s %-14s\n", bench::Human(connections).c_str(),
              (std::to_string(p50).substr(0, 6) + " ms").c_str(),
              (std::to_string(p99).substr(0, 6) + " ms").c_str(),
              bench::Human(fetch_ms.size() / storm_seconds).c_str());
  bench::EmitJson("fig12_distd", {{"connections", static_cast<double>(connections)},
                                  {"shards", static_cast<double>(num_shards)},
                                  {"fetch_p50_ms", p50},
                                  {"fetch_p99_ms", p99},
                                  {"fetches_per_sec", fetch_ms.size() / storm_seconds}});
  std::printf("  The CDN tier scales by adding shard processes: each owns a bucket range\n"
              "  and serves its whole downloader cohort from one reactor thread.\n");
}

}  // namespace

int main() {
  const char* section = std::getenv("VUVUZELA_FIG12_SECTION");
  bool run_frontdoor = section == nullptr || std::strcmp(section, "frontdoor") == 0;
  bool run_distd = section == nullptr || std::strcmp(section, "distd") == 0;

  bench::PrintHeader("FIG12", "front-door reactor: concurrent clients vs admission latency");

  // Fleet shape. The per-process fd ceiling (20K on this class of host)
  // binds both sides: at full scale, 8 server processes x 13K clients holds
  // 104K truly concurrent connections through the barrier.
  uint32_t servers = bench::FullScale() ? 8 : (bench::SmokeScale() ? 2 : 4);
  size_t conns_per_server = bench::FullScale() ? 13000 : (bench::SmokeScale() ? 1000 : 4000);
  uint32_t dist_shards = bench::FullScale() ? 8 : (bench::SmokeScale() ? 2 : 4);
  size_t conns_per_shard = bench::FullScale() ? 8000 : (bench::SmokeScale() ? 500 : 2000);

  if (run_frontdoor) {
    RunFrontDoorSection(servers, conns_per_server);
  }
  if (run_distd) {
    RunDistSection(dist_shards, conns_per_shard);
  }
  return 0;
}

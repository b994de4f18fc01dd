// obs:: tests — metric registry (sharded counters, histogram bucket
// boundaries, concurrent merging), Prometheus exposition round-trip, the
// /metrics + /trace HTTP surface in both serve shapes, the bounded trace
// ring, and the offline stitcher.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/obs/http.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace vuvuzela::obs {
namespace {

// --- Registry: counters, gauges, histograms ---------------------------------

TEST(Counter, SumsAcrossShards) {
  Registry registry;
  Counter* counter = registry.GetCounter("test_events_total", "events");
  EXPECT_EQ(counter->Value(), 0u);
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42u);
}

TEST(Counter, ConcurrentIncrementsMergeExactly) {
  Registry registry;
  Counter* counter = registry.GetCounter("test_concurrent_total", "events");
  // More threads than shards so shard indices collide; the relaxed
  // fetch_adds must still sum exactly. TSan covers the data-race half.
  constexpr size_t kThreads = 2 * kMetricShards;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddValue) {
  Registry registry;
  Gauge* gauge = registry.GetGauge("test_depth", "depth");
  gauge->Set(10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->Value(), 7);
  gauge->Add(-10);
  EXPECT_EQ(gauge->Value(), -3);  // gauges may go negative; counters cannot
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Registry registry;
  Histogram* histogram = registry.GetHistogram("test_seconds", "latency", {1.0, 2.0, 4.0});
  // One observation per interesting position: below the first bound, exactly
  // on each bound (le semantics: a value equal to the bound lands in that
  // bucket), between bounds, and above the last bound (+Inf bucket).
  histogram->Observe(0.5);  // bucket le=1
  histogram->Observe(1.0);  // bucket le=1 (inclusive)
  histogram->Observe(1.5);  // bucket le=2
  histogram->Observe(2.0);  // bucket le=2 (inclusive)
  histogram->Observe(4.0);  // bucket le=4 (inclusive)
  histogram->Observe(4.5);  // +Inf
  Histogram::Snapshot snap = histogram->Snap();
  ASSERT_EQ(snap.boundaries.size(), 3u);
  ASSERT_EQ(snap.cumulative.size(), 4u);
  EXPECT_EQ(snap.cumulative[0], 2u);  // le=1
  EXPECT_EQ(snap.cumulative[1], 4u);  // le=2 (cumulative)
  EXPECT_EQ(snap.cumulative[2], 5u);  // le=4
  EXPECT_EQ(snap.cumulative[3], 6u);  // +Inf == count
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.5);
}

TEST(Histogram, ConcurrentObservationsMergeExactly) {
  Registry registry;
  Histogram* histogram =
      registry.GetHistogram("test_concurrent_seconds", "latency", {1.0, 2.0});
  constexpr size_t kThreads = 2 * kMetricShards;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram, t] {
      // Thread t observes a fixed value, so the expected per-bucket counts
      // are exact: a third of the threads per bucket.
      const double value = t % 3 == 0 ? 0.5 : (t % 3 == 1 ? 1.5 : 3.0);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram->Observe(value);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  Histogram::Snapshot snap = histogram->Snap();
  const uint64_t third = kThreads / 3 * kPerThread;
  EXPECT_EQ(snap.cumulative[0], third + (kThreads % 3 > 0 ? kPerThread : 0));
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // The CAS-looped double sum loses nothing: every value is exactly
  // representable and the total stays well under 2^53.
  const double expected_sum =
      kPerThread * (0.5 * ((kThreads + 2) / 3) + 1.5 * ((kThreads + 1) / 3) + 3.0 * (kThreads / 3));
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
}

TEST(Registry, GetIsIdempotent) {
  Registry registry;
  Counter* a = registry.GetCounter("test_total", "help");
  Counter* b = registry.GetCounter("test_total", "other help is ignored");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("test_hist", "h", {1, 2});
  Histogram* h2 = registry.GetHistogram("test_hist", "h", {7, 8, 9});  // boundaries ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->boundaries().size(), 2u);
}

TEST(Registry, PresetBucketsAscend) {
  for (const auto& buckets : {LatencyBuckets(), PassLatencyBuckets(), SizeBuckets()}) {
    ASSERT_GE(buckets.size(), 2u);
    for (size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_LT(buckets[i - 1], buckets[i]);
    }
  }
}

// --- Prometheus exposition: render, then parse it back -----------------------

// Minimal exposition parser: returns sample name -> value for every
// non-comment line, and records any label strings it sees.
std::map<std::string, double> ParseExposition(const std::string& text,
                                              std::vector<std::string>* labels) {
  std::map<std::string, double> samples;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "malformed sample line: " << line;
    std::string name = line.substr(0, space);
    size_t brace = name.find('{');
    if (brace != std::string::npos) {
      labels->push_back(name.substr(brace));
      name = name.substr(0, brace) + labels->back();
    }
    samples[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return samples;
}

TEST(Exposition, RendersAndParsesRoundTrip) {
  Registry registry;
  registry.GetCounter("demo_events_total", "events")->Add(7);
  registry.GetGauge("demo_depth", "depth")->Set(-4);
  Histogram* histogram = registry.GetHistogram("demo_seconds", "latency", {0.5, 2.0});
  histogram->Observe(0.25);
  histogram->Observe(1.0);
  histogram->Observe(10.0);

  std::string text = registry.RenderPrometheus();
  std::vector<std::string> labels;
  std::map<std::string, double> samples = ParseExposition(text, &labels);

  EXPECT_DOUBLE_EQ(samples.at("demo_events_total"), 7);
  EXPECT_DOUBLE_EQ(samples.at("demo_depth"), -4);
  EXPECT_DOUBLE_EQ(samples.at("demo_seconds_bucket{le=\"0.5\"}"), 1);
  EXPECT_DOUBLE_EQ(samples.at("demo_seconds_bucket{le=\"2\"}"), 2);
  EXPECT_DOUBLE_EQ(samples.at("demo_seconds_bucket{le=\"+Inf\"}"), 3);
  EXPECT_DOUBLE_EQ(samples.at("demo_seconds_count"), 3);
  EXPECT_DOUBLE_EQ(samples.at("demo_seconds_sum"), 11.25);

  // Aggregate-only by construction: the only label the renderer may ever
  // write is the histogram convention's `le`.
  for (const std::string& label : labels) {
    EXPECT_EQ(label.rfind("{le=\"", 0), 0u) << "forbidden label: " << label;
  }
  // HELP/TYPE comments precede every family.
  EXPECT_NE(text.find("# TYPE demo_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_seconds histogram"), std::string::npos);
}

TEST(Exposition, SnapshotJsonIsOneLine) {
  Registry registry;
  registry.GetCounter("demo_total", "events")->Add(3);
  registry.GetGauge("demo_live", "live")->Set(2);
  registry.GetHistogram("demo_seconds", "latency", {1.0})->Observe(0.5);
  std::string json = registry.SnapshotJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{\"demo_total\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"demo_live\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"demo_seconds\":{\"count\":1,\"sum\":0.5}"), std::string::npos);
}

// --- Trace journal: bounded ring, JSONL round-trip, stitching ----------------

TEST(TraceJournal, RingIsBoundedAndKeepsNewest) {
  TraceJournal journal(/*capacity=*/8);
  journal.SetProcess("test");
  for (uint64_t i = 0; i < 20; ++i) {
    journal.Emit(i, "span/test", "i=" + std::to_string(i));
  }
  EXPECT_EQ(journal.total_emitted(), 20u);
  std::vector<TraceRecord> records = journal.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Oldest-first, holding exactly the most recent 8 rounds (12..19).
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].round, 12 + i);
  }
}

TEST(TraceJournal, JsonlRoundTripsThroughParser) {
  TraceJournal journal(16);
  journal.SetProcess("hopd-1");
  journal.Emit(3, "hop/pass", "op=forward_conversation items=40");
  journal.Emit(4, "hop/error", "error=\"timeout\" with \\ backslash");
  std::vector<TraceRecord> parsed = ParseTraceJsonl(journal.DumpJsonl());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].process, "hopd-1");
  EXPECT_EQ(parsed[0].round, 3u);
  EXPECT_EQ(parsed[0].span, "hop/pass");
  EXPECT_EQ(parsed[0].detail, "op=forward_conversation items=40");
  // Escaped quotes and backslashes survive the round trip.
  EXPECT_EQ(parsed[1].detail, "error=\"timeout\" with \\ backslash");
  EXPECT_GT(parsed[1].wall_us, 0);
}

// Dialing rounds are numbered from 2^63 up, past the int64_t range; the
// parser must carry them through unchanged.
TEST(TraceJournal, DialingRoundNumberRoundTripsThroughParser) {
  TraceJournal journal(4);
  journal.SetProcess("coordd");
  const uint64_t round = coord::kDialingRoundBase + 3;
  journal.Emit(round, "lifecycle/announced", "type=dialing");
  std::vector<TraceRecord> parsed = ParseTraceJsonl(journal.DumpJsonl());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].round, round);
  EXPECT_EQ(parsed[0].span, "lifecycle/announced");
}

TEST(TraceJournal, ParserRejectsOverflowingNumbers) {
  auto line = [](const std::string& round, const std::string& wall, const std::string& mono) {
    return R"({"process":"p","round":)" + round + R"(,"wall_us":)" + wall + R"(,"mono_us":)" +
           mono + R"(,"span":"s","detail":""})";
  };
  std::vector<TraceRecord> parsed =
      ParseTraceJsonl(line("18446744073709551615", "-9223372036854775808", "7"));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].round, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(parsed[0].wall_us, std::numeric_limits<int64_t>::min());

  // A 21-digit round, and one past each field's range: every line is skipped.
  for (const std::string& bad : {line("100000000000000000000", "1", "1"),
                                 line("18446744073709551616", "1", "1"),
                                 line("1", "9223372036854775808", "1"),
                                 line("1", "1", "18446744073709551616")}) {
    EXPECT_TRUE(ParseTraceJsonl(bad).empty()) << bad;
  }
}

TEST(TraceJournal, DumpFiltersByRound) {
  TraceJournal journal(16);
  journal.SetProcess("coordd");
  journal.Emit(1, "lifecycle/announced");
  journal.Emit(2, "lifecycle/announced");
  journal.Emit(1, "lifecycle/complete");
  std::vector<TraceRecord> parsed = ParseTraceJsonl(journal.DumpJsonl(1));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].span, "lifecycle/announced");
  EXPECT_EQ(parsed[1].span, "lifecycle/complete");
}

TEST(Stitch, MergesDumpsIntoSortedTimelines) {
  // Hand-built records from two "processes" with interleaved wall clocks.
  TraceRecord a1{"coordd", 7, 1000, 0, "lifecycle/announced", "type=conv"};
  TraceRecord a2{"coordd", 7, 5000, 0, "lifecycle/complete", "type=conv"};
  TraceRecord b1{"hopd-0", 7, 3000, 0, "hop/pass", "op=forward_conversation"};
  TraceRecord b2{"hopd-0", 8, 9000, 0, "hop/pass", "op=forward_conversation"};
  std::vector<StitchedRound> rounds = StitchRounds({{a1, a2}, {b1, b2}});
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].round, 7u);
  ASSERT_EQ(rounds[0].records.size(), 3u);
  EXPECT_EQ(rounds[0].records[0].span, "lifecycle/announced");
  EXPECT_EQ(rounds[0].records[1].span, "hop/pass");  // wall-clock order, not dump order
  EXPECT_EQ(rounds[0].records[2].span, "lifecycle/complete");
  EXPECT_EQ(rounds[1].round, 8u);
  // spans lists each distinct span once for phase-coverage assertions.
  EXPECT_EQ(rounds[0].spans.size(), 3u);
  EXPECT_EQ(rounds[1].spans.size(), 1u);

  std::string timeline = RenderTimeline(rounds);
  EXPECT_NE(timeline.find("round 7"), std::string::npos);
  EXPECT_NE(timeline.find("coordd"), std::string::npos);
  EXPECT_NE(timeline.find("hop/pass"), std::string::npos);
}

// --- The HTTP surface: shared brain and the blocking acceptor ----------------

TEST(HandleRawHttp, BuffersUntilRequestComplete) {
  Registry registry;
  TraceJournal journal(8);
  EXPECT_FALSE(HandleRawHttp("GET /metrics HTTP/1.1\r\n", registry, journal).has_value());
  auto response = HandleRawHttp("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", registry, journal);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response->find("Connection: close"), std::string::npos);
}

TEST(HandleRawHttp, RoutesMetricsTraceAnd404) {
  Registry registry;
  registry.GetCounter("routed_total", "events")->Add(5);
  TraceJournal journal(8);
  journal.SetProcess("test");
  journal.Emit(3, "span/a");
  journal.Emit(4, "span/b");

  auto metrics = HandleRawHttp("GET /metrics HTTP/1.0\r\n\r\n", registry, journal);
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("routed_total 5"), std::string::npos);

  auto trace = HandleRawHttp("GET /trace HTTP/1.0\r\n\r\n", registry, journal);
  ASSERT_TRUE(trace.has_value());
  EXPECT_NE(trace->find("span/a"), std::string::npos);
  EXPECT_NE(trace->find("span/b"), std::string::npos);

  auto filtered = HandleRawHttp("GET /trace?round=3 HTTP/1.0\r\n\r\n", registry, journal);
  ASSERT_TRUE(filtered.has_value());
  EXPECT_NE(filtered->find("span/a"), std::string::npos);
  EXPECT_EQ(filtered->find("span/b"), std::string::npos);

  auto missing = HandleRawHttp("GET /nope HTTP/1.0\r\n\r\n", registry, journal);
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->find("404"), std::string::npos);
}

// Plain-socket GET against the blocking acceptor; returns the full response.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServer, ServesScrapesOverRealSockets) {
  Registry registry;
  registry.GetCounter("served_total", "events")->Add(9);
  TraceJournal journal(8);
  journal.SetProcess("test");
  journal.Emit(1, "span/served");
  auto server = MetricsHttpServer::Start(/*port=*/0, &registry, &journal);
  ASSERT_NE(server, nullptr);
  ASSERT_NE(server->port(), 0);

  // Serial scrapes — the acceptor is one thread, connection-per-request.
  std::string metrics = HttpGet(server->port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("served_total 9"), std::string::npos);
  std::string trace = HttpGet(server->port(), "/trace?round=1");
  EXPECT_NE(trace.find("span/served"), std::string::npos);
  EXPECT_NE(HttpGet(server->port(), "/bogus").find("404"), std::string::npos);
}

}  // namespace
}  // namespace vuvuzela::obs

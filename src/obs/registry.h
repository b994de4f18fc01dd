// Process-wide metric registry: lock-free counters, gauges, and fixed-bucket
// histograms, exportable as Prometheus text exposition or a one-line JSON
// snapshot.
//
// Two design rules, both privacy-driven, both enforced by construction:
//
//  * AGGREGATE-ONLY. A metadata-private system's telemetry must never become
//    the per-link signal the traffic-analysis literature exploits: a
//    per-client or per-connection time series is exactly what Vuvuzela's
//    noise exists to drown out. So metrics here have a name and nothing else
//    — no label dimensions at all. Registration rejects any name that could
//    smuggle label syntax (`{`, `=`, `"`); the only label ever emitted is
//    the `le` bucket bound the Prometheus histogram convention requires, and
//    the renderer itself writes that.
//
//  * HOT-PATH CHEAP. Counters and histograms are sharded across cache-line-
//    aligned atomic slots with a thread-local shard index, so an increment
//    from the reactor thread, a stage worker, and a crypto pool thread never
//    contend on one cache line: the cost is one relaxed fetch_add. Reads
//    (scrapes) sum the shards; they are rare and may be momentarily torn
//    across shards, which is fine for monotone counters.
//
// THREADING. All mutation methods (Add/Set/Observe) are thread-safe and
// wait-free. Get* registration takes a mutex — call it once at setup and
// keep the pointer; returned pointers live as long as the Registry.
// `Registry::Global()` is the process-wide instance every daemon exports;
// tests build private instances.

#ifndef VUVUZELA_SRC_OBS_REGISTRY_H_
#define VUVUZELA_SRC_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vuvuzela::obs {

// Shard count for striped atomics. A power of two near typical core counts;
// more shards than cores just wastes cache lines.
inline constexpr size_t kMetricShards = 16;

namespace internal {
// Stable per-thread shard index. Round-robin assignment (not sched_getcpu)
// keeps it portable and keeps a thread on one shard for its lifetime.
size_t ThisThreadShard();
}  // namespace internal

// Monotone event count.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[internal::ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const;

 private:
  friend class Registry;
  Counter() = default;
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot shards_[kMetricShards];
};

// Instantaneous level (queue depth, banked onions, open connections).
// A single atomic: gauges are set/adjusted at round granularity, not in
// per-onion hot loops, so striping would buy nothing.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

// Fixed-boundary histogram. Boundaries are set at registration and never
// change; Observe is a relaxed add into this thread's shard (bucket count,
// total count, and a CAS-looped double sum — portable where
// atomic<double>::fetch_add is not).
class Histogram {
 public:
  void Observe(double value);

  struct Snapshot {
    std::vector<double> boundaries;      // upper bounds, ascending; +Inf implied
    std::vector<uint64_t> cumulative;    // boundaries.size()+1 entries, last = count
    uint64_t count = 0;
    double sum = 0;
  };
  Snapshot Snap() const;

  const std::vector<double>& boundaries() const { return boundaries_; }

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> boundaries);

  struct alignas(64) Slot {
    std::vector<std::atomic<uint64_t>> buckets;  // boundaries.size()+1 (+Inf last)
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_bits{0};  // bit pattern of a double, CAS-accumulated
  };
  std::vector<double> boundaries_;
  std::vector<Slot> shards_;
};

// Latency bucket presets (seconds). Shared so every daemon's pass/RPC
// histograms land in comparable buckets.
std::vector<double> LatencyBuckets();        // 100us .. ~100s, log-spaced
// Pass-duration preset: quarter-decade steps through the 10us..100ms range
// where batched passes actually land (the half-decade preset collapsed a
// whole smoke round into one bucket), coarsening to LatencyBuckets' spacing
// above 100ms. Use for pass/stage wall-time histograms.
std::vector<double> PassLatencyBuckets();    // 10us .. ~100s, fine low end
std::vector<double> SizeBuckets();           // 256 B .. 256 MB, powers of 4

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every daemon exports over /metrics.
  static Registry& Global();

  // Idempotent: a second Get with the same name returns the same object.
  // Names must match [a-zA-Z_:][a-zA-Z0-9_:]* (so label syntax is
  // unrepresentable); a bad name or a name already registered as a
  // different type aborts — both are programming errors, not runtime
  // conditions.
  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> boundaries);

  // Prometheus text exposition format, series sorted by name.
  std::string RenderPrometheus() const;
  // One-line JSON object (counters/gauges as numbers, histograms as
  // {count,sum,buckets}, buckets mapping each upper bound — "+Inf" last — to
  // its cumulative count, as in the exposition) for machine-readable
  // end-of-run report lines.
  std::string SnapshotJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* Lookup(const std::string& name, Kind kind, const std::string& help);

  mutable std::mutex mutex_;
  // std::map keeps exposition output sorted and stable across scrapes.
  std::map<std::string, Entry> entries_;
};

}  // namespace vuvuzela::obs

#endif  // VUVUZELA_SRC_OBS_REGISTRY_H_

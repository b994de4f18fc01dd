#include "src/obs/registry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vuvuzela::obs {

namespace internal {

size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard = next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

}  // namespace internal

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name[0])) {
    return false;
  }
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) {
      return false;
    }
  }
  return true;
}

[[noreturn]] void RegistryAbort(const std::string& name, const char* why) {
  std::fprintf(stderr, "obs::Registry: metric '%s' %s\n", name.c_str(), why);
  std::abort();
}

// Render a double the way Prometheus clients do: integers without a trailing
// ".0", everything else with enough digits to round-trip.
std::string RenderDouble(double v) {
  if (std::isinf(v)) {
    return v > 0 ? "+Inf" : "-Inf";
  }
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Slot& slot : shards_) {
    total += slot.v.load(std::memory_order_relaxed);
  }
  return total;
}

Histogram::Histogram(std::vector<double> boundaries) : boundaries_(std::move(boundaries)) {
  shards_ = std::vector<Slot>(kMetricShards);
  for (Slot& slot : shards_) {
    slot.buckets = std::vector<std::atomic<uint64_t>>(boundaries_.size() + 1);
  }
}

void Histogram::Observe(double value) {
  Slot& slot = shards_[internal::ThisThreadShard()];
  // First bucket whose upper bound admits `value`; the +Inf bucket is last.
  size_t bucket = boundaries_.size();
  for (size_t i = 0; i < boundaries_.size(); ++i) {
    if (value <= boundaries_[i]) {
      bucket = i;
      break;
    }
  }
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  uint64_t observed = slot.sum_bits.load(std::memory_order_relaxed);
  while (true) {
    double current;
    std::memcpy(&current, &observed, sizeof(current));
    const double next = current + value;
    uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (slot.sum_bits.compare_exchange_weak(observed, next_bits, std::memory_order_relaxed)) {
      break;
    }
  }
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.boundaries = boundaries_;
  std::vector<uint64_t> per_bucket(boundaries_.size() + 1, 0);
  for (const Slot& slot : shards_) {
    for (size_t i = 0; i < slot.buckets.size(); ++i) {
      per_bucket[i] += slot.buckets[i].load(std::memory_order_relaxed);
    }
    snap.count += slot.count.load(std::memory_order_relaxed);
    uint64_t bits = slot.sum_bits.load(std::memory_order_relaxed);
    double shard_sum;
    std::memcpy(&shard_sum, &bits, sizeof(shard_sum));
    snap.sum += shard_sum;
  }
  snap.cumulative.resize(per_bucket.size());
  uint64_t running = 0;
  for (size_t i = 0; i < per_bucket.size(); ++i) {
    running += per_bucket[i];
    snap.cumulative[i] = running;
  }
  return snap;
}

std::vector<double> LatencyBuckets() {
  // 100us..100s in half-decade steps: wide enough for a crypto pass and a
  // whole pipelined round in the same preset.
  return {1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1, 1, 3.16, 10, 31.6, 100};
}

std::vector<double> PassLatencyBuckets() {
  // Quarter-decade (x1.78) through 10us..100ms — a batched smoke pass is
  // single-digit milliseconds and a backward seal pass tens of microseconds,
  // so this is the resolving range — then the coarse LatencyBuckets tail so
  // full-scale rounds still land inside the preset.
  return {1e-5, 1.78e-5, 3.16e-5, 5.62e-5, 1e-4, 1.78e-4, 3.16e-4, 5.62e-4,
          1e-3, 1.78e-3, 3.16e-3, 5.62e-3, 1e-2, 1.78e-2, 3.16e-2, 5.62e-2,
          1e-1, 3.16e-1, 1,       3.16,    10,   31.6,    100};
}

std::vector<double> SizeBuckets() {
  std::vector<double> buckets;
  for (double b = 256; b <= 256.0 * 1024 * 1024; b *= 4) {
    buckets.push_back(b);
  }
  return buckets;
}

Registry& Registry::Global() {
  static Registry* global = new Registry();  // leaked: outlives daemon threads
  return *global;
}

Registry::Entry* Registry::Lookup(const std::string& name, Kind kind, const std::string& help) {
  if (!ValidMetricName(name)) {
    RegistryAbort(name, "is not a valid metric name (labels are forbidden by design)");
  }
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      RegistryAbort(name, "already registered as a different metric type");
    }
    return &it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = help;
  return &entries_.emplace(name, std::move(entry)).first->second;
}

Counter* Registry::GetCounter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = Lookup(name, Kind::kCounter, help);
  if (!entry->counter) {
    entry->counter = std::unique_ptr<Counter>(new Counter());
  }
  return entry->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = Lookup(name, Kind::kGauge, help);
  if (!entry->gauge) {
    entry->gauge = std::unique_ptr<Gauge>(new Gauge());
  }
  return entry->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name, const std::string& help,
                                  std::vector<double> boundaries) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry* entry = Lookup(name, Kind::kHistogram, help);
  if (!entry->histogram) {
    for (size_t i = 1; i < boundaries.size(); ++i) {
      if (boundaries[i] <= boundaries[i - 1]) {
        RegistryAbort(name, "has non-ascending histogram boundaries");
      }
    }
    entry->histogram = std::unique_ptr<Histogram>(new Histogram(std::move(boundaries)));
  }
  return entry->histogram.get();
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(4096);
  for (const auto& [name, entry] : entries_) {
    out += "# HELP " + name + " " + entry.help + "\n";
    switch (entry.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + " " + std::to_string(entry.counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " " + std::to_string(entry.gauge->Value()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        const Histogram::Snapshot snap = entry.histogram->Snap();
        for (size_t i = 0; i < snap.boundaries.size(); ++i) {
          out += name + "_bucket{le=\"" + RenderDouble(snap.boundaries[i]) + "\"} " +
                 std::to_string(snap.cumulative[i]) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(snap.count) + "\n";
        out += name + "_sum " + RenderDouble(snap.sum) + "\n";
        out += name + "_count " + std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        counters += (counters.empty() ? "" : ",");
        counters += "\"" + name + "\":" + std::to_string(entry.counter->Value());
        break;
      case Kind::kGauge:
        gauges += (gauges.empty() ? "" : ",");
        gauges += "\"" + name + "\":" + std::to_string(entry.gauge->Value());
        break;
      case Kind::kHistogram: {
        const Histogram::Snapshot snap = entry.histogram->Snap();
        histograms += (histograms.empty() ? "" : ",");
        histograms += "\"" + name + "\":{\"count\":" + std::to_string(snap.count) +
                      ",\"sum\":" + RenderDouble(snap.sum) + ",\"buckets\":{";
        // Cumulative counts keyed by upper bound, as the exposition's le.
        for (size_t i = 0; i < snap.boundaries.size(); ++i) {
          histograms += '"';
          histograms += RenderDouble(snap.boundaries[i]);
          histograms += "\":" + std::to_string(snap.cumulative[i]) + ",";
        }
        histograms += "\"+Inf\":" + std::to_string(snap.count) + "}}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges + "},\"histograms\":{" +
         histograms + "}}";
}

}  // namespace vuvuzela::obs

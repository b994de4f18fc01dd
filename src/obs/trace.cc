#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

namespace vuvuzela::obs {

namespace {

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

uint64_t MonoMicros() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// JSON string escaping for the restricted payloads spans carry (span names
// and key=value details; no control characters expected, but be safe).
void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Minimal scanner for the exact JSONL grammar DumpJsonl emits. Returns false
// on any deviation; the caller skips the line.
struct LineScanner {
  std::string_view s;
  size_t pos = 0;

  bool Literal(std::string_view lit) {
    if (s.substr(pos, lit.size()) != lit) {
      return false;
    }
    pos += lit.size();
    return true;
  }
  bool String(std::string* out) {
    if (pos >= s.size() || s[pos] != '"') {
      return false;
    }
    ++pos;
    out->clear();
    while (pos < s.size() && s[pos] != '"') {
      char c = s[pos++];
      if (c == '\\') {
        if (pos >= s.size()) {
          return false;
        }
        char esc = s[pos++];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos + 4 > s.size()) {
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else {
                return false;
              }
            }
            out->push_back(static_cast<char>(code & 0x7f));
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos >= s.size()) {
      return false;
    }
    ++pos;  // closing quote
    return true;
  }
  // Fails on a value that does not fit: dialing round numbers sit at 2^63
  // and up, so the full unsigned range is in use.
  bool Uint(uint64_t* out) {
    size_t start = pos;
    uint64_t v = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      uint64_t digit = static_cast<uint64_t>(s[pos] - '0');
      if (v > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
        return false;
      }
      v = v * 10 + digit;
      ++pos;
    }
    if (pos == start) {
      return false;
    }
    *out = v;
    return true;
  }
  bool Int(int64_t* out) {
    bool neg = pos < s.size() && s[pos] == '-';
    if (neg) {
      ++pos;
    }
    uint64_t magnitude = 0;
    const uint64_t limit = static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + neg;
    if (!Uint(&magnitude) || magnitude > limit) {
      return false;
    }
    *out = neg ? static_cast<int64_t>(0 - magnitude) : static_cast<int64_t>(magnitude);
    return true;
  }
};

}  // namespace

TraceJournal::TraceJournal(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

TraceJournal& TraceJournal::Global() {
  static TraceJournal* global = new TraceJournal();  // leaked: outlives daemon threads
  return *global;
}

void TraceJournal::SetProcess(std::string label) {
  std::lock_guard<std::mutex> lock(mutex_);
  process_ = std::move(label);
}

void TraceJournal::Emit(uint64_t round, std::string_view span, std::string_view detail) {
  TraceRecord record;
  record.round = round;
  record.wall_us = WallMicros();
  record.mono_us = MonoMicros();
  record.span = std::string(span);
  record.detail = std::string(detail);
  std::lock_guard<std::mutex> lock(mutex_);
  record.process = process_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[emitted_ % capacity_] = std::move(record);
  }
  ++emitted_;
}

uint64_t TraceJournal::total_emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

std::vector<TraceRecord> TraceJournal::Snapshot(std::optional<uint64_t> round) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  // Oldest record is at emitted_ % capacity_ once the ring has wrapped.
  const size_t n = ring_.size();
  const size_t start = n < capacity_ ? 0 : emitted_ % capacity_;
  for (size_t i = 0; i < n; ++i) {
    const TraceRecord& record = ring_[(start + i) % n];
    if (!round || record.round == *round) {
      out.push_back(record);
    }
  }
  return out;
}

std::string TraceJournal::DumpJsonl(std::optional<uint64_t> round) const {
  std::string out;
  for (const TraceRecord& record : Snapshot(round)) {
    out += "{\"process\":";
    AppendJsonString(&out, record.process);
    out += ",\"round\":" + std::to_string(record.round);
    out += ",\"wall_us\":" + std::to_string(record.wall_us);
    out += ",\"mono_us\":" + std::to_string(record.mono_us);
    out += ",\"span\":";
    AppendJsonString(&out, record.span);
    out += ",\"detail\":";
    AppendJsonString(&out, record.detail);
    out += "}\n";
  }
  return out;
}

std::vector<TraceRecord> ParseTraceJsonl(std::string_view jsonl) {
  std::vector<TraceRecord> out;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t eol = jsonl.find('\n', pos);
    std::string_view line =
        jsonl.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? jsonl.size() : eol + 1;
    if (line.empty()) {
      continue;
    }
    LineScanner scan{line};
    TraceRecord record;
    if (scan.Literal("{\"process\":") && scan.String(&record.process) &&
        scan.Literal(",\"round\":") && scan.Uint(&record.round) &&
        scan.Literal(",\"wall_us\":") && scan.Int(&record.wall_us) &&
        scan.Literal(",\"mono_us\":") && scan.Uint(&record.mono_us) &&
        scan.Literal(",\"span\":") && scan.String(&record.span) &&
        scan.Literal(",\"detail\":") && scan.String(&record.detail) && scan.Literal("}")) {
      out.push_back(std::move(record));
    }
  }
  return out;
}

std::vector<StitchedRound> StitchRounds(const std::vector<std::vector<TraceRecord>>& dumps) {
  std::map<uint64_t, StitchedRound> by_round;
  for (const auto& dump : dumps) {
    for (const TraceRecord& record : dump) {
      StitchedRound& round = by_round[record.round];
      round.round = record.round;
      round.records.push_back(record);
    }
  }
  std::vector<StitchedRound> out;
  out.reserve(by_round.size());
  for (auto& [_, round] : by_round) {
    std::stable_sort(round.records.begin(), round.records.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                       return a.wall_us < b.wall_us;
                     });
    std::set<std::string> spans;
    for (const TraceRecord& record : round.records) {
      spans.insert(record.span);
    }
    round.spans.assign(spans.begin(), spans.end());
    out.push_back(std::move(round));
  }
  return out;
}

std::string RenderTimeline(const std::vector<StitchedRound>& rounds) {
  std::string out;
  for (const StitchedRound& round : rounds) {
    out += "round " + std::to_string(round.round) + "\n";
    const int64_t origin = round.records.empty() ? 0 : round.records.front().wall_us;
    for (const TraceRecord& record : round.records) {
      char line[256];
      std::snprintf(line, sizeof(line), "  %+10lldus  %-10s %s %s\n",
                    static_cast<long long>(record.wall_us - origin), record.process.c_str(),
                    record.span.c_str(), record.detail.c_str());
      out += line;
    }
  }
  return out;
}

}  // namespace vuvuzela::obs

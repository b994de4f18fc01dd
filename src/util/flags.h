// Command-line parsing shared by every daemon and tool: the value parsers
// and FlagSet, the one flag table each binary's main() fills in.

#ifndef VUVUZELA_SRC_UTIL_FLAGS_H_
#define VUVUZELA_SRC_UTIL_FLAGS_H_

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace vuvuzela::util {

// Parses all of `text` as a finite, non-negative number. False on an empty
// value, trailing garbage, a negative number, NaN or infinity: a noise or
// budget flag that parsed as 0 (or overflowed to infinity) would silently
// weaken privacy instead of failing.
inline bool ParseNonNegative(const char* text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    return false;
  }
  *out = value;
  return true;
}

// Parses all of `text` as a decimal integer of at most `max` (and at most
// what T holds). False on an empty value, a sign or leading space, trailing
// garbage, overflow, or a value above `max`: bare strtoul reads "two" as 0
// and "1x" as 1, and a cast to uint32_t turns 4294967297 into 1, so a
// mistyped --position or --shard would start a daemon in the wrong place.
template <typename T>
bool ParseUnsigned(const char* text, uint64_t max, T* out) {
  static_assert(std::is_integral_v<T>);
  if (text[0] < '0' || text[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value > max ||
      value > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// A command line's flag table: each flag name ("--port", or "-h") is bound to
// where its value goes, and Parse walks argv once. The caller keeps its own
// usage text and exit code, and checks cross-flag rules after Parse.
//
//   transport::ExchangedConfig config;
//   util::FlagSet flags;
//   flags.Unsigned("--port", 65535, &config.port);
//   if (!flags.Parse(argc, argv) || ...) { Usage(argv[0]); return 2; }
class FlagSet {
 public:
  // `--name VALUE`: `parse` stores VALUE and returns false if it is malformed.
  // A repeated flag calls `parse` once per occurrence.
  void Value(std::string name, std::function<bool(const char*)> parse) {
    flags_.push_back({std::move(name), true, std::move(parse)});
  }
  // `--name N` through ParseUnsigned; a repeated flag keeps the last value.
  template <typename T>
  void Unsigned(std::string name, uint64_t max, T* out) {
    Value(std::move(name), [max, out](const char* text) { return ParseUnsigned(text, max, out); });
  }
  // `--name X` through ParseNonNegative.
  void NonNegative(std::string name, double* out) {
    Value(std::move(name), [out](const char* text) { return ParseNonNegative(text, out); });
  }
  void String(std::string name, std::string* out) {
    Value(std::move(name), [out](const char* text) {
      *out = text;
      return true;
    });
  }
  // `--name` with no value sets *out.
  void Switch(std::string name, bool* out) {
    auto set = [out](const char*) {
      *out = true;
      return true;
    };
    flags_.push_back({std::move(name), false, set});
  }

  // Makes the bound flag `name` required: Parse fails when argv lacks it.
  void Require(std::string_view name) {
    auto flag = std::ranges::find(flags_, name, &Flag::name);
    if (flag == flags_.end()) {
      throw std::logic_error("FlagSet::Require: no flag " + std::string(name));
    }
    flag->required = true;
  }

  // False on an unknown flag, a flag missing its value, a value its parser
  // rejects or a required flag that is absent. An argument that does not
  // start with '-' (or is exactly "-") is positional: appended to
  // `positional`, or an error when that is null.
  bool Parse(int argc, char** argv, std::vector<std::string>* positional = nullptr) const {
    std::vector<bool> seen(flags_.size(), false);
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!arg.starts_with('-') || arg == "-") {
        if (positional == nullptr) {
          return false;
        }
        positional->emplace_back(arg);
        continue;
      }
      auto flag = std::ranges::find(flags_, arg, &Flag::name);
      if (flag == flags_.end() || (flag->takes_value && i + 1 == argc)) {
        return false;
      }
      if (!flag->parse(flag->takes_value ? argv[++i] : nullptr)) {
        return false;
      }
      seen[flag - flags_.begin()] = true;
    }
    for (size_t f = 0; f < flags_.size(); ++f) {
      if (flags_[f].required && !seen[f]) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Flag {
    std::string name;
    bool takes_value;
    std::function<bool(const char*)> parse;
    bool required = false;
  };
  std::vector<Flag> flags_;
};

}  // namespace vuvuzela::util

#endif  // VUVUZELA_SRC_UTIL_FLAGS_H_

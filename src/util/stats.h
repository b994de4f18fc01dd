// Small timing helper for the engine, coordd and the benches.

#ifndef VUVUZELA_SRC_UTIL_STATS_H_
#define VUVUZELA_SRC_UTIL_STATS_H_

#include <chrono>

namespace vuvuzela::util {

// Elapsed wall-clock seconds since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace vuvuzela::util

#endif  // VUVUZELA_SRC_UTIL_STATS_H_

// The process shell every daemon main (hopd, exchanged, distd, coordd) runs
// in, and the one owner of a daemon process's /metrics + /trace endpoint. It
// binds --metrics-port on the main's FlagSet, labels the trace journal, opens
// one MetricsHttpServer over the process-global Registry and TraceJournal
// once the daemon object is built and connected (so once /metrics answers,
// the daemon serves: docs/OPERATIONS.md's startup contract), and prints the
// stdout lines launchers parse:
//
//   <binary>: <status> (metrics on http://127.0.0.1:P/metrics)   first
//   <binary>: trace {json}                 one per journal record, at exit
//   <binary>: metrics {json}                                      last
//
// vzbench and the CI smoke read both ports from the first, the ready line.
// coordd names its endpoint on a line of its own before its ready line
// (MetricsAnnouncement::kOwnLine). The end-of-run lines are what smoke runs
// assert on and stitch, since the fleet can finish before any scrape sees the
// last pass and shutdown cascades leave no window to scrape in after it.

#ifndef VUVUZELA_SRC_OBS_DAEMON_PROCESS_H_
#define VUVUZELA_SRC_OBS_DAEMON_PROCESS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/obs/http.h"
#include "src/util/flags.h"

namespace vuvuzela::obs {

enum class MetricsAnnouncement { kInline, kOwnLine };

class DaemonProcess {
 public:
  // `binary` ("vuvuzela-hopd") prefixes every line. Binds `--metrics-port P`
  // on `flags` (0 = ephemeral; without the flag no endpoint is served).
  DaemonProcess(std::string binary, util::FlagSet& flags,
                MetricsAnnouncement announcement = MetricsAnnouncement::kInline);
  DaemonProcess(const DaemonProcess&) = delete;  // `flags` holds `this`
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Call after parsing, before the daemon object emits trace records.
  void SetTraceLabel(std::string label) const;

  // Call once the daemon can serve: opens the endpoint and prints the ready
  // output, `<binary>: <status>` plus the endpoint. False, with a message on
  // stderr, if --metrics-port cannot be bound (the daemon exits 1).
  bool Ready(std::string_view status);

  // Prints the end-of-run lines: where stdout is a regular file, the trace
  // journal (what /trace serves), a `<binary>: trace {json}` line per
  // record; then `<binary>: metrics {json}`, the registry's final snapshot.
  // A launcher that reads stdout through a pipe gets no trace lines: the
  // journal can run to megabytes, and one that stops reading after the
  // ready line (vzbench) would block the exiting daemon on a full pipe.
  void PrintSnapshot() const;

  // Bound metrics port: 0 before Ready() or without --metrics-port.
  uint16_t metrics_port() const { return metrics_ ? metrics_->port() : 0; }

 private:
  std::string binary_;
  MetricsAnnouncement announcement_;
  std::optional<uint16_t> requested_port_;
  std::unique_ptr<MetricsHttpServer> metrics_;
};

}  // namespace vuvuzela::obs

#endif  // VUVUZELA_SRC_OBS_DAEMON_PROCESS_H_

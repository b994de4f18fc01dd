#include "src/obs/daemon_process.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace vuvuzela::obs {

DaemonProcess::DaemonProcess(std::string binary, util::FlagSet& flags,
                             MetricsAnnouncement announcement)
    : binary_(std::move(binary)), announcement_(announcement) {
  flags.Value("--metrics-port", [this](const char* value) {
    uint16_t port = 0;
    if (!util::ParseUnsigned(value, 65535, &port)) {
      return false;
    }
    requested_port_ = port;
    return true;
  });
}

void DaemonProcess::SetTraceLabel(std::string label) const {
  TraceJournal::Global().SetProcess(std::move(label));
}

bool DaemonProcess::Ready(std::string_view status) {
  std::string ready = binary_ + ": " + std::string(status);
  if (requested_port_) {
    metrics_ = MetricsHttpServer::Start(*requested_port_);
    if (!metrics_) {
      std::fprintf(stderr, "%s: cannot serve /metrics on 127.0.0.1:%u\n", binary_.c_str(),
                   *requested_port_);
      return false;
    }
    std::string url = "http://127.0.0.1:" + std::to_string(metrics_->port()) + "/metrics";
    ready = announcement_ == MetricsAnnouncement::kOwnLine
                ? binary_ + ": metrics on " + url + "\n" + ready
                : ready + " (metrics on " + url + ")";
  }
  std::printf("%s\n", ready.c_str());
  std::fflush(stdout);
  return true;
}

void DaemonProcess::PrintSnapshot() const {
  struct stat out;
  if (fstat(STDOUT_FILENO, &out) == 0 && S_ISREG(out.st_mode)) {
    const std::string jsonl = TraceJournal::Global().DumpJsonl();
    for (size_t begin = 0, end; begin < jsonl.size(); begin = end + 1) {
      end = jsonl.find('\n', begin);  // every record ends in one
      std::printf("%s: trace %.*s\n", binary_.c_str(), static_cast<int>(end - begin),
                  jsonl.data() + begin);
    }
  }
  std::printf("%s: metrics %s\n", binary_.c_str(), Registry::Global().SnapshotJson().c_str());
}

}  // namespace vuvuzela::obs

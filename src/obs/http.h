// The /metrics + /trace HTTP surface. Every daemon process serves it the same
// way: its shell (obs::DaemonProcess) starts one MetricsHttpServer, one
// blocking acceptor thread beside the daemon's own serve path, handling one
// connection at a time. A scrape every few seconds is the whole workload,
// and the reactor daemons' event loops never see a scrape. Each connection
// gets one deadline for reading the request and writing the response, so a
// scraper that stalls cannot hold the acceptor past it.
//
// Endpoints (GET only):
//   /metrics            Prometheus text exposition of an obs::Registry
//   /trace              whole trace ring as JSONL
//   /trace?round=N      one round's records as JSONL
//   anything else       404
//
// The protocol support is deliberately minimal — HTTP/1.0-style
// connection-close responses, no keep-alive, no chunking — which every
// scraper and curl handles fine and keeps this dependency-free.

#ifndef VUVUZELA_SRC_OBS_HTTP_H_
#define VUVUZELA_SRC_OBS_HTTP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "src/net/tcp.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace vuvuzela::obs {

// Largest request head we accept before dropping the connection; scrape
// requests are a few hundred bytes.
inline constexpr size_t kMaxHttpRequestBytes = 16u << 10;

// Budget for one scrape connection, request read plus response write. A
// loopback scrape of even a full /trace ring takes milliseconds.
inline constexpr int kConnectionDeadlineMs = 2000;

struct HttpRequest {
  std::string method;
  std::string path;                    // without the query string
  std::optional<std::string> query;    // raw query string if present
};

// Parses a request head once the blank line has arrived. nullopt = the head
// is still incomplete (caller keeps buffering); a malformed head yields a
// request with an empty method (caller responds 400/closes).
std::optional<HttpRequest> ParseHttpRequest(std::string_view buffered);

// Routes a parsed request to the registry/journal and builds the full
// response bytes (status line + headers + body).
std::string BuildHttpResponse(const HttpRequest& request, const Registry& registry,
                              const TraceJournal& journal);

// Inspects `buffered` raw input and returns the complete response once a
// full request head has arrived, or nullopt while it is still incomplete.
// Oversized or malformed input yields an error response (the caller should
// close after writing either way — responses carry Connection: close).
std::optional<std::string> HandleRawHttp(std::string_view buffered, const Registry& registry,
                                         const TraceJournal& journal);

// Blocking acceptor-thread server: the one way every daemon serves scrapes.
class MetricsHttpServer {
 public:
  // Listens on 127.0.0.1:port (0 = ephemeral). nullptr on listen failure.
  static std::unique_ptr<MetricsHttpServer> Start(uint16_t port,
                                                  const Registry* registry = nullptr,
                                                  const TraceJournal* journal = nullptr);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  MetricsHttpServer(net::TcpListener listener, const Registry* registry,
                    const TraceJournal* journal);
  void Serve();
  void ServeOne(net::TcpConnection conn);

  net::TcpListener listener_;
  const Registry* registry_;
  const TraceJournal* journal_;
  uint16_t port_;
  std::thread thread_;
};

}  // namespace vuvuzela::obs

#endif  // VUVUZELA_SRC_OBS_HTTP_H_

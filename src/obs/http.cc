#include "src/obs/http.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace vuvuzela::obs {

namespace {

std::string StatusLine(int code) {
  switch (code) {
    case 200:
      return "HTTP/1.1 200 OK\r\n";
    case 400:
      return "HTTP/1.1 400 Bad Request\r\n";
    default:
      return "HTTP/1.1 404 Not Found\r\n";
  }
}

std::string Respond(int code, const std::string& content_type, const std::string& body) {
  std::string out = StatusLine(code);
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::optional<HttpRequest> ParseHttpRequest(std::string_view buffered) {
  // A head is complete at the first blank line; we never read bodies (GET
  // only), so anything past it is ignored.
  if (buffered.find("\r\n\r\n") == std::string_view::npos &&
      buffered.find("\n\n") == std::string_view::npos) {
    return std::nullopt;
  }
  HttpRequest request;
  const size_t line_end = buffered.find_first_of("\r\n");
  std::string_view line = buffered.substr(0, line_end);
  const size_t method_end = line.find(' ');
  if (method_end == std::string_view::npos) {
    return request;  // malformed: empty method signals it
  }
  const size_t target_end = line.find(' ', method_end + 1);
  if (target_end == std::string_view::npos) {
    return request;
  }
  request.method = std::string(line.substr(0, method_end));
  std::string_view target = line.substr(method_end + 1, target_end - method_end - 1);
  const size_t question = target.find('?');
  if (question == std::string_view::npos) {
    request.path = std::string(target);
  } else {
    request.path = std::string(target.substr(0, question));
    request.query = std::string(target.substr(question + 1));
  }
  return request;
}

std::string BuildHttpResponse(const HttpRequest& request, const Registry& registry,
                              const TraceJournal& journal) {
  if (request.method.empty()) {
    return Respond(400, "text/plain", "malformed request\n");
  }
  if (request.method != "GET") {
    return Respond(400, "text/plain", "GET only\n");
  }
  if (request.path == "/metrics") {
    return Respond(200, "text/plain; version=0.0.4", registry.RenderPrometheus());
  }
  if (request.path == "/trace") {
    std::optional<uint64_t> round;
    if (request.query) {
      // Only one parameter exists; accept "round=N" anywhere in the string.
      const std::string& query = *request.query;
      size_t at = query.find("round=");
      if (at != std::string::npos && (at == 0 || query[at - 1] == '&')) {
        round = std::strtoull(query.c_str() + at + 6, nullptr, 10);
      }
    }
    return Respond(200, "application/jsonl", journal.DumpJsonl(round));
  }
  return Respond(404, "text/plain", "try /metrics or /trace?round=N\n");
}

std::optional<std::string> HandleRawHttp(std::string_view buffered, const Registry& registry,
                                         const TraceJournal& journal) {
  if (buffered.size() > kMaxHttpRequestBytes) {
    return Respond(400, "text/plain", "request too large\n");
  }
  std::optional<HttpRequest> request = ParseHttpRequest(buffered);
  if (!request) {
    return std::nullopt;
  }
  return BuildHttpResponse(*request, registry, journal);
}

std::unique_ptr<MetricsHttpServer> MetricsHttpServer::Start(uint16_t port,
                                                            const Registry* registry,
                                                            const TraceJournal* journal) {
  auto listener = net::TcpListener::Listen(port);
  if (!listener) {
    return nullptr;
  }
  return std::unique_ptr<MetricsHttpServer>(new MetricsHttpServer(
      std::move(*listener), registry ? registry : &Registry::Global(),
      journal ? journal : &TraceJournal::Global()));
}

MetricsHttpServer::MetricsHttpServer(net::TcpListener listener, const Registry* registry,
                                     const TraceJournal* journal)
    : listener_(std::move(listener)),
      registry_(registry),
      journal_(journal),
      port_(listener_.port()) {
  thread_ = std::thread([this] { Serve(); });
}

MetricsHttpServer::~MetricsHttpServer() {
  listener_.Shutdown();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void MetricsHttpServer::Serve() {
  while (true) {
    std::optional<net::TcpConnection> conn = listener_.Accept();
    if (!conn) {
      return;  // Shutdown() or listener error: the server is done
    }
    ServeOne(std::move(*conn));
  }
}

void MetricsHttpServer::ServeOne(net::TcpConnection conn) {
  // Raw byte I/O on the released descriptor (TcpConnection speaks frames; a
  // scraper speaks HTTP). One deadline covers the whole exchange, request
  // read and response write alike: a client that stops sending, or asks for
  // a megabyte /trace and stops reading, is dropped when it passes, so the
  // acceptor (and the destructor joining it) never waits on a scraper.
  const int fd = conn.ReleaseFd();
  if (fd < 0) {
    return;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(kConnectionDeadlineMs);
  // Waits for `events` on fd until the deadline; false once it has passed or
  // the descriptor failed.
  auto wait_for = [fd, deadline](short events) {
    for (;;) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        return false;
      }
      pollfd pfd{fd, events, 0};
      int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) {
        continue;
      }
      return ready > 0;
    }
  };
  std::string buffered;
  std::string response;
  while (buffered.size() <= kMaxHttpRequestBytes && wait_for(POLLIN)) {
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      break;
    }
    buffered.append(chunk, static_cast<size_t>(n));
    std::optional<std::string> ready = HandleRawHttp(buffered, *registry_, *journal_);
    if (ready) {
      response = std::move(*ready);
      break;
    }
  }
  size_t written = 0;
  while (written < response.size() && wait_for(POLLOUT)) {
    ssize_t n = ::send(fd, response.data() + written, response.size() - written,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      break;
    }
    written += static_cast<size_t>(n);
  }
  ::close(fd);
}

}  // namespace vuvuzela::obs

// The daemon fleet vzbench runs against: real vuvuzela-hopd /
// vuvuzela-exchanged / vuvuzela-distd binaries started as child processes on
// loopback, plus the two read-only views the bench takes of them from
// outside — their /metrics and /trace endpoints and their peak RSS.
//
// Every daemon starts with --port 0 --metrics-port 0 and announces both
// ephemeral ports on its first stdout line; Spawn blocks until that line
// arrives. The stdout pipe stays open until the child is reaped, so the
// daemon's exit line never hits a closed pipe. A Fleet that is destroyed with
// children still running SIGKILLs and reaps them, so no error path of the
// bench can leave a daemon behind.

#ifndef VUVUZELA_BENCH_VZBENCH_FLEET_H_
#define VUVUZELA_BENCH_VZBENCH_FLEET_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace vzbench {

struct Daemon {
  std::string name;  // hop0..hop2, exch0..exch1, dist0..dist1
  pid_t pid = -1;
  int out_fd = -1;  // read end of the child's stdout
  uint16_t port = 0;
  uint16_t metrics_port = 0;
  bool reaped = false;
};

class Fleet {
 public:
  explicit Fleet(std::string daemon_dir) : daemon_dir_(std::move(daemon_dir)) {}
  ~Fleet() { Kill(); }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Starts daemon_dir/binary with `args` and waits (up to `timeout_s`) for
  // its startup line. Returns the daemon, or nullptr with `error` set.
  const Daemon* Spawn(const std::string& name, const std::string& binary,
                      const std::vector<std::string>& args, std::string* error,
                      double timeout_s = 20.0) {
    std::string path = daemon_dir_ + "/" + binary;
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
      *error = "pipe: " + std::string(std::strerror(errno));
      return nullptr;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<std::string> argv_storage = {path};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_storage) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    Daemon d;
    d.name = name;
    int rc = posix_spawn(&d.pid, path.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      *error = "spawn " + path + ": " + std::strerror(rc);
      return nullptr;
    }
    d.out_fd = fds[0];
    daemons_.push_back(d);
    Daemon& added = daemons_.back();

    std::string line;
    if (!ReadLine(added.out_fd, timeout_s, &line)) {
      *error = name + ": no startup line within " + std::to_string(timeout_s) + " s";
      return nullptr;
    }
    added.port = PortAfter(line, "listening on 127.0.0.1:");
    added.metrics_port = PortAfter(line, "metrics on http://127.0.0.1:");
    if (added.port == 0 || added.metrics_port == 0) {
      *error = name + ": unparseable startup line: " + line;
      return nullptr;
    }
    return &added;
  }

  const std::deque<Daemon>& daemons() const { return daemons_; }

  const Daemon* Find(const std::string& name) const {
    for (const auto& d : daemons_) {
      if (d.name == name) {
        return &d;
      }
    }
    return nullptr;
  }

  // Waits for every child to exit on its own (the caller has sent the
  // shutdown frames). True iff all exited with status 0 before the deadline;
  // stragglers are SIGKILLed, reaped, and reported in `error`.
  bool Reap(double deadline_s, std::string* error) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(deadline_s);
    bool ok = true;
    for (auto& d : daemons_) {
      if (d.reaped) {
        continue;
      }
      int status = 0;
      bool exited = false;
      while (!exited) {
        pid_t r = waitpid(d.pid, &status, WNOHANG);
        if (r == d.pid) {
          exited = true;
        } else if (r < 0 || std::chrono::steady_clock::now() > deadline) {
          break;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      if (!exited) {
        kill(d.pid, SIGKILL);
        waitpid(d.pid, &status, 0);
        *error += d.name + " still running at the shutdown deadline; ";
        ok = false;
      } else if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
        *error += d.name + " exited abnormally (status " + std::to_string(status) + "); ";
        ok = false;
      }
      d.reaped = true;
      CloseOut(d);
    }
    return ok;
  }

  // Last-resort teardown: SIGKILL and reap whatever is still running.
  void Kill() {
    for (auto& d : daemons_) {
      if (!d.reaped) {
        kill(d.pid, SIGKILL);
        int status = 0;
        waitpid(d.pid, &status, 0);
        d.reaped = true;
      }
      CloseOut(d);
    }
  }

 private:
  static void CloseOut(Daemon& d) {
    if (d.out_fd >= 0) {
      close(d.out_fd);
      d.out_fd = -1;
    }
  }

  static bool ReadLine(int fd, double timeout_s, std::string* line) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
    char c;
    for (;;) {
      int left_ms = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                         deadline - std::chrono::steady_clock::now())
                                         .count());
      if (left_ms <= 0) {
        return false;
      }
      pollfd p{fd, POLLIN, 0};
      if (poll(&p, 1, left_ms) <= 0) {
        return false;
      }
      if (read(fd, &c, 1) != 1) {
        return false;  // child died before announcing itself
      }
      if (c == '\n') {
        return true;
      }
      line->push_back(c);
    }
  }

  static uint16_t PortAfter(const std::string& line, const char* marker) {
    size_t at = line.find(marker);
    if (at == std::string::npos) {
      return 0;
    }
    unsigned long port = std::strtoul(line.c_str() + at + std::strlen(marker), nullptr, 10);
    return port > 0 && port <= 65535 ? static_cast<uint16_t>(port) : 0;
  }

  std::string daemon_dir_;
  std::deque<Daemon> daemons_;  // stable addresses: Spawn hands out pointers
};

// GET http://127.0.0.1:port/path; the response body, or "" on failure.
inline std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    std::string request = "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[1 << 16];
      ssize_t n;
      while ((n = recv(fd, buf, sizeof buf, 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
    }
  }
  close(fd);
  size_t body = response.find("\r\n\r\n");
  if (response.compare(0, 12, "HTTP/1.1 200") != 0) {
    return "";
  }
  return body == std::string::npos ? "" : response.substr(body + 4);
}

// Unlabelled samples of a Prometheus text exposition (histogram _sum and
// _count included; _bucket lines carry a label and are skipped).
inline std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    size_t space = line.find(' ');
    if (space != std::string::npos) {
      out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
    }
  }
  return out;
}

// Peak resident set (VmHWM) of a live process, in MB; 0 if unreadable.
inline double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

}  // namespace vzbench

#endif  // VUVUZELA_BENCH_VZBENCH_FLEET_H_

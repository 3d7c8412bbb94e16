// The load generator's plumbing: a spawned graphite_server child process
// and a single-threaded poll(2) client over a few loopback connections.
#ifndef GRAPHITE_BENCH_E2E_CLIENT_H_
#define GRAPHITE_BENCH_E2E_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace graphite {
namespace e2e {

/// A graphite_server child. The destructor kills and reaps it, so no
/// exit path of the bench leaves a server running; the child also gets
/// SIGKILL if the bench itself dies.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` (argv[0] is the binary path) and waits, at most
  /// `timeout_s`, for its {"ready": true, "port": N} line on stdout.
  Status Start(const std::vector<std::string>& argv, double timeout_s);
  int port() const { return port_; }
  /// Nanoseconds from spawn to the parsed ready line.
  int64_t ready_ns() const { return ready_ns_; }
  /// VmHWM of the child in KiB (peak resident set), or -1.
  int64_t PeakRssKb() const;
  /// Waits up to `timeout_s` for a voluntary exit, then kills. Returns
  /// true when the child exited on its own with status 0.
  bool WaitExit(double timeout_s);
  void Kill();

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  int64_t ready_ns_ = 0;
};

/// One received response line. Views point into the client's buffer and
/// are valid only during the callback.
struct Reply {
  int64_t id = -1;
  bool ok = false;
  bool cached = false;
  std::string_view result;  ///< The canonical fragment, byte-exact.
  std::string_view server;  ///< The "server" object (timings, metrics).
};

/// Parses the envelope fields of a response line without building a DOM
/// (full listings run to megabytes). False when the line is malformed.
bool ParseReply(std::string_view line, Reply* out);

/// Single-threaded client over `n` loopback connections.
class LoadClient {
 public:
  using OnLine = std::function<void(std::string_view line, int64_t recv_ns)>;

  LoadClient() = default;
  ~LoadClient() { Close(); }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Status Connect(int port, int n);
  void Close();

  /// Queues `line` (a newline is appended) on `conn` and writes what the
  /// socket takes now; the rest goes out from Poll.
  Status Send(int conn, const std::string& line);

  /// Moves bytes until `deadline_ns` (NowNanos clock) or until at least
  /// one line arrived, invoking `on_line` for every complete line. A
  /// connection the server closes is an error.
  Status Poll(int64_t deadline_ns, const OnLine& on_line);

  /// Discards input until the server has closed every connection (or
  /// `deadline_ns` passes), then closes the client side. Closing first
  /// would let a late server write hit a closed socket.
  Status WaitClosed(int64_t deadline_ns);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t scanned = 0;  ///< Prefix of `in` known to hold no newline.
  };
  Status Flush(Conn& c);

  std::vector<Conn> conns_;
};

}  // namespace e2e
}  // namespace graphite

#endif  // GRAPHITE_BENCH_E2E_CLIENT_H_

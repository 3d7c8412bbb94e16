#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>

#include "util/json.h"
#include "util/timer.h"

namespace graphite {
namespace e2e {

namespace {

Status ErrnoError(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

timespec ToTimespec(int64_t ns) {
  if (ns < 0) ns = 0;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  return ts;
}

// Finds `key` at or after `from`; returns the offset just past it.
size_t After(std::string_view line, std::string_view key, size_t from = 0) {
  const size_t at = line.find(key, from);
  return at == std::string_view::npos ? at : at + key.size();
}

}  // namespace

Status ServerProcess::Start(const std::vector<std::string>& argv,
                            double timeout_s) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return ErrnoError("pipe2");
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const int64_t t0 = NowNanos();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return ErrnoError("fork");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  pid_ = pid;
  ::close(fds[1]);
  std::string out;
  const int64_t deadline = t0 + static_cast<int64_t>(timeout_s * 1e9);
  while (out.find('\n') == std::string::npos) {
    pollfd p{fds[0], POLLIN, 0};
    const timespec ts = ToTimespec(deadline - NowNanos());
    const int r = ::ppoll(&p, 1, &ts, nullptr);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      ::close(fds[0]);
      return Status::IoError("graphite_server sent no ready line");
    }
    char buf[256];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) {
      ::close(fds[0]);
      return Status::IoError("graphite_server exited before its ready line");
    }
    out.append(buf, static_cast<size_t>(n));
  }
  ready_ns_ = NowNanos() - t0;
  ::close(fds[0]);
  auto ready = ParseJson(out.substr(0, out.find('\n')));
  GRAPHITE_RETURN_NOT_OK(ready.status());
  port_ = static_cast<int>(ready->GetInt("port", -1));
  if (!ready->GetBool("ready") || port_ <= 0) {
    return Status::IoError("bad ready line: " + out);
  }
  return Status::OK();
}

int64_t ServerProcess::PeakRssKb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return -1;
}

bool ServerProcess::WaitExit(double timeout_s) {
  if (pid_ <= 0) return false;
  const int64_t deadline = NowNanos() + static_cast<int64_t>(timeout_s * 1e9);
  do {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    ::usleep(2000);
  } while (NowNanos() < deadline);
  Kill();
  return false;
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

bool ParseReply(std::string_view line, Reply* out) {
  *out = Reply{};
  size_t at = After(line, "{\"id\": ");
  if (at != 7) return false;
  const auto [end, ec] =
      std::from_chars(line.data() + at, line.data() + line.size(), out->id);
  if (ec != std::errc()) return false;
  at = After(line, "\"ok\": ", static_cast<size_t>(end - line.data()));
  if (at == std::string_view::npos) return false;
  out->ok = line.compare(at, 4, "true") == 0;
  if (!out->ok) return true;
  const size_t cached = After(line, "\"cached\": ", at);
  if (cached == std::string_view::npos) return true;  // A control op.
  out->cached = line.compare(cached, 4, "true") == 0;
  const size_t result = After(line, "\"result\": ", cached);
  const size_t server = line.rfind(", \"server\": ");
  if (result == std::string_view::npos || server == std::string_view::npos ||
      server < result || line.back() != '}') {
    return false;
  }
  out->result = line.substr(result, server - result);
  const size_t body = server + std::strlen(", \"server\": ");
  out->server = line.substr(body, line.size() - 1 - body);
  return true;
}

void LoadClient::Close() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
}

Status LoadClient::Connect(int port, int n) {
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return ErrnoError("socket");
    conns_.push_back(Conn{});
    conns_.back().fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return ErrnoError("connect 127.0.0.1:" + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return Status::OK();
}

Status LoadClient::WaitClosed(int64_t deadline_ns) {
  std::vector<pollfd> fds;
  for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
  size_t open = fds.size();
  char buf[1 << 16];
  while (open > 0) {
    const timespec ts = ToTimespec(deadline_ns - NowNanos());
    const int r = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return ErrnoError("ppoll");
    if (r == 0) return Status::IoError("server kept connections open");
    for (pollfd& p : fds) {
      if (p.fd < 0 || p.revents == 0) continue;
      const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
      if (n > 0 || (n < 0 && (errno == EINTR || errno == EAGAIN))) continue;
      p.fd = -1;  // EOF or reset: this connection is done.
      --open;
    }
  }
  Close();
  return Status::OK();
}

Status LoadClient::Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return ErrnoError("send");
    }
    c.out_off += static_cast<size_t>(n);
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  return Status::OK();
}

Status LoadClient::Send(int conn, const std::string& line) {
  Conn& c = conns_[static_cast<size_t>(conn)];
  c.out.append(line);
  c.out.push_back('\n');
  return Flush(c);
}

Status LoadClient::Poll(int64_t deadline_ns, const OnLine& on_line) {
  std::vector<pollfd> fds(conns_.size());
  char buf[1 << 16];
  for (;;) {
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const timespec ts = ToTimespec(deadline_ns - NowNanos());
    const int r = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("ppoll");
    }
    bool got_line = false;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) GRAPHITE_RETURN_NOT_OK(Flush(c));
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return n == 0 ? Status::IoError("server closed a connection")
                      : ErrnoError("recv");
      }
      const int64_t recv_ns = NowNanos();
      size_t start = 0;
      for (size_t nl = c.in.find('\n', c.scanned); nl != std::string::npos;
           nl = c.in.find('\n', start)) {
        on_line(std::string_view(c.in).substr(start, nl - start), recv_ns);
        got_line = true;
        start = nl + 1;
      }
      c.in.erase(0, start);
      c.scanned = c.in.size();
    }
    if (got_line || NowNanos() >= deadline_ns) return Status::OK();
  }
}

}  // namespace e2e
}  // namespace graphite

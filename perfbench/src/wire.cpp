#include "wire.hpp"

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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "jscan.hpp"

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

void write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t wrote = ::send(fd, data, size, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      fail(std::string("send: ") + std::strerror(errno));
    }
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& flags) {
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) fail("pipe failed");
  std::vector<std::string> args{binary, "--listen", "127.0.0.1:0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    fail("fork failed");
  }
  if (pid_ == 0) {
    // The server must never outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, 0);
    ::dup2(null_fd, 1);
    ::dup2(pipe_fds[1], 2);
    ::close(pipe_fds[0]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  // Startup line: "sitime_serve: listening on tcp 127.0.0.1:45123".
  std::string text;
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
      stop();
      fail("sitime_serve did not report its port: " + text);
    }
    char buffer[4096];
    const ssize_t got = ::read(stderr_fd_, buffer, sizeof(buffer));
    if (got <= 0) {
      stop();
      fail("sitime_serve exited before listening: " + text);
    }
    text.append(buffer, static_cast<std::size_t>(got));
    const std::string marker = "listening on tcp 127.0.0.1:";
    const auto at = text.find(marker);
    if (at != std::string::npos &&
        text.find('\n', at) != std::string::npos)
      port_ = std::atoi(text.c_str() + at + marker.size());
  }
  // Later lifecycle lines are few and short; the pipe buffer holds them
  // until stop() closes it.
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index)
    if (index == 14 || index == 15) ticks += std::atof(field.c_str());
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
  return 0.0;
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(1000);
  }
  pid_ = -1;
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
  stderr_fd_ = -1;
}

void host_cpu(double& steal, double& jiffies) {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  steal = jiffies = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    in >> value;
    jiffies += value;
    if (field == 7) steal = value;
  }
}

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    fail(std::string("connect: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

namespace {

/// One request/response round trip on a blocking connection; returns the
/// response line without its newline.
std::string round_trip(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  write_all(fd, framed.data(), framed.size());
  std::string response;
  char buffer[65536];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) fail("connection closed by the server");
    response.append(buffer, static_cast<std::size_t>(got));
    const auto newline = response.find('\n');
    if (newline != std::string::npos) {
      if (newline + 1 != response.size())
        fail("unexpected bytes after a response line");
      response.resize(newline);
      return response;
    }
  }
}

}  // namespace

StatsSnapshot fetch_stats(int fd) {
  const std::string line = round_trip(fd, "{\"stats\":true}");
  Members envelope;
  Members fields;
  if (!object_members(line, envelope) ||
      !object_members(member(envelope, "stats"), fields))
    fail("malformed stats response: " + line);
  StatsSnapshot snapshot;
  for (const auto& [key, value] : fields)
    snapshot[std::string(key)] = std::strtod(std::string(value).c_str(),
                                             nullptr);
  return snapshot;
}

double run_closed_loop(
    const std::vector<int>& fds,
    const std::function<const std::string*(int conn)>& next,
    const std::function<void(int conn, std::string_view line,
                             double latency)>& on_response,
    Clock::time_point deadline) {
  const int n = static_cast<int>(fds.size());
  std::vector<std::string> buffers(static_cast<std::size_t>(n));
  std::vector<Clock::time_point> sent(static_cast<std::size_t>(n));
  std::vector<bool> busy(static_cast<std::size_t>(n), false);
  std::vector<pollfd> pfds(static_cast<std::size_t>(n));
  bool issuing = true;
  int in_flight = 0;
  std::string framed;

  const auto issue = [&](int conn) {
    if (!issuing) return;
    if (Clock::now() >= deadline) {
      issuing = false;
      return;
    }
    const std::string* line = next(conn);
    if (line == nullptr) {
      issuing = false;
      return;
    }
    framed.assign(*line);
    framed += '\n';
    sent[static_cast<std::size_t>(conn)] = Clock::now();
    write_all(fds[static_cast<std::size_t>(conn)], framed.data(),
              framed.size());
    busy[static_cast<std::size_t>(conn)] = true;
    ++in_flight;
  };

  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (int c = 0; c < n; ++c) issue(c);
  char chunk[65536];
  while (in_flight > 0) {
    for (int c = 0; c < n; ++c)
      pfds[static_cast<std::size_t>(c)] =
          pollfd{busy[static_cast<std::size_t>(c)]
                     ? fds[static_cast<std::size_t>(c)]
                     : -1,
                 POLLIN, 0};
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(n), 60000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) fail("no response within 60 s");
    for (int c = 0; c < n; ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (pfds[i].revents == 0) continue;
      const ssize_t got = ::recv(fds[i], chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) fail("connection closed by the server");
      const auto now = Clock::now();
      std::string& buffer = buffers[i];
      buffer.append(chunk, static_cast<std::size_t>(got));
      const auto newline = buffer.find('\n');
      if (newline == std::string::npos) continue;
      if (newline + 1 != buffer.size())
        fail("unexpected bytes after a response line");
      busy[i] = false;
      --in_flight;
      last = now;
      on_response(c, std::string_view(buffer.data(), newline),
                  seconds_between(sent[i], now));
      buffer.clear();
      issue(c);
    }
  }
  return seconds_between(start, last);
}

}  // namespace perfbench

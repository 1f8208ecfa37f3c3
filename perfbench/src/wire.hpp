// The wire side of the benchmark: a real sitime_serve child process on an
// ephemeral TCP port, and a closed-loop client that drives any number of
// connections from one thread with poll(2).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);

/// One sitime_serve child listening on 127.0.0.1:0. The constructor
/// returns once the startup line has named the bound port; the
/// destructor stops the server (SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& flags);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// utime + stime of the server process so far, from /proc/<pid>/stat.
  double cpu_seconds() const;
  /// VmHWM (peak resident set) in MiB, from /proc/<pid>/status.
  double peak_rss_mb() const;
  /// Graceful stop (SIGTERM, SIGKILL after 20 s); reaps the child.
  void stop();

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
};

/// Host CPU time of this machine so far, from the first line of
/// /proc/stat: jiffies stolen by the hypervisor and all jiffies.
void host_cpu(double& steal, double& jiffies);

/// A blocking TCP connection to the server with TCP_NODELAY set.
int connect_local(int port);

/// Counters of one {"stats": true} snapshot.
using StatsSnapshot = std::map<std::string, double>;
StatsSnapshot fetch_stats(int fd);

/// Closed-loop load: every connection has at most one request in
/// flight; the next one is sent as soon as the previous response line is
/// complete. `next(conn)` returns the next request line, or nullptr when
/// that connection has nothing left. Issuing stops on every connection
/// when the deadline passes or any connection runs dry; requests already
/// in flight are still read to completion. `on_response(conn, line,
/// latency_seconds)` sees every response. Returns the wall time from the
/// first send to the last response.
double run_closed_loop(
    const std::vector<int>& fds,
    const std::function<const std::string*(int conn)>& next,
    const std::function<void(int conn, std::string_view line,
                             double latency)>& on_response,
    Clock::time_point deadline);

}  // namespace perfbench

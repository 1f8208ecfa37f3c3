// perfbench — the repo benchmark program.
//
//   perfbench --server PATH --workload suite_warm|families_cold|editor_loop|all
//             --seed N --seconds S --trace 0|1 [--commit TEXT]
//             [--spans-dir DIR]
//   perfbench --selftest
//
// --trace 0 drives a real sitime_serve over TCP with a closed loop of four
// connections and prints the end-to-end metrics; --trace 1 plays a fixed
// prefix of the same seeded request sequence over one connection, replays
// it in-process layer by layer, prints the per-layer metrics, and writes
// the replay's spans to DIR/spans-<workload>-seed<N>.jsonl. Every
// response is checked against a cold in-process reference; the last line
// of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}, and the exit code is non-zero when anything was wrong.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gen.hpp"
#include "jscan.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "wire.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 31;  // set-ups per run; setup_s is their median
constexpr double kWindowSeconds = 0.05;  // see Recorder
// Latencies a percentile needs, so that 10 lie beyond its p99.
constexpr std::size_t kMinSamples = 1000;
constexpr int kReferenceThreads = 4;  // threads computing cold references
constexpr int kFamiliesCacheMb = 2;   // below families_cold's working set
constexpr int kTraceRequests[] = {2000, 400, 160};  // per workload
const char* const kWorkloads[] = {"suite_warm", "families_cold",
                                  "editor_loop"};

std::vector<std::string> server_flags(int workload) {
  if (workload == 0) return {"--warm"};
  if (workload == 1) return {"--cache-mb", std::to_string(kFamiliesCacheMb)};
  return {};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;  // failed self-checks
  std::vector<std::string> notes;     // how the metrics were taken
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// Counts one response against its reference, remembering the first
/// few mismatches for the log.
void judge(Outcome& out, std::string_view line, const Expected& expected) {
  ++out.attempted;
  std::string why;
  if (response_matches(line, expected, why)) return;
  ++out.failed;
  if (out.failed <= 5)
    std::fprintf(stderr, "perfbench: response mismatch: %s\n", why.c_str());
}

/// References for `requests`, computed once per distinct request line.
std::vector<Expected> references(const std::vector<Request>& requests) {
  std::unordered_map<std::string, std::size_t> slot;
  std::vector<Request> distinct;
  std::vector<std::size_t> index;
  for (const Request& request : requests) {
    const auto [at, fresh] =
        slot.emplace(request_line(request), distinct.size());
    if (fresh) distinct.push_back(request);
    index.push_back(at->second);
  }
  const std::vector<Expected> computed =
      cold_references(distinct, kReferenceThreads);
  std::vector<Expected> out;
  for (const std::size_t i : index) out.push_back(computed[i]);
  return out;
}

/// The thesis ground truth, asserted on every run: imec-ram-read-sbuf has
/// 19 constraints before relaxation and 12 after.
void check_imec(Outcome& out) {
  Request imec;
  for (const Design& design : suite_designs())
    if (design.name == "imec-ram-read-sbuf") imec.design = design;
  const Expected expected = cold_references({imec}, 1).front();
  const auto [before, after] = constraint_counts(expected.report);
  out.check(before == 19 && after == 12,
            "imec-ram-read-sbuf gave " + std::to_string(before) + " / " +
                std::to_string(after) + " constraints, expected 19 / 12");
}

/// The timed phase of one wire run, cut into windows of kWindowSeconds of
/// timed wall time. On a virtual machine the hypervisor steals CPU time
/// in bursts of a fraction of a second, and a burst that deschedules a
/// server thread shows as latency the server did not cause. So every
/// metric of every workload is taken over the samples of the windows at
/// the run's lowest steal share (every window free of steal, unless steal
/// is everywhere), and of the next least stolen ones only as far as it
/// takes for each percentile to hold kMinSamples latencies.
/// Latency percentiles come from their latencies, throughput and CPU per
/// request from their responses, time and CPU. The last window, cut off
/// by the end of the run, is never used.
///
/// Where every connection draws from one stream, a percentile is taken
/// over the pooled latencies. Where each connection runs its own stream
/// (the editor loop's bases), it is the mean over the connections of
/// each one's percentile: two bases answer in about 0.6 and 0.8 ms, two
/// in about 1.4 and 1.5 ms, so the pooled median falls in the gap between
/// them, where a few percent more or fewer requests from one side (the
/// closed loop sends more from whichever is faster) move it by tens of
/// percent.
class Recorder {
 public:
  explicit Recorder(bool per_connection = false)
      : per_connection_(per_connection) {}

  std::vector<double> setups;  // seconds per set-up
  std::vector<double> rss_mb;  // VmHWM of every server timed

  /// Starts (or resumes, for the next editor epoch) timing `server`.
  void resume(const ServerProcess& server) {
    server_ = &server;
    if (windows_.empty()) windows_.emplace_back();
    mark_ = Clock::now();
    cpu_mark_ = server.cpu_seconds();
    host_cpu(steal_mark_, jiffies_mark_);
  }
  void sample(int conn, double latency) {
    Window& window = windows_.back();
    window.latencies[static_cast<std::size_t>(conn)].push_back(latency);
    const auto now = Clock::now();
    if (window.elapsed + seconds_between(mark_, now) < kWindowSeconds) return;
    close(now);
    windows_.emplace_back();
  }
  /// Stops timing until the next resume().
  void pause() {
    close(Clock::now());
    rss_mb.push_back(server_->peak_rss_mb());
    server_ = nullptr;
  }

  void metrics(Outcome& out) {
    // Every window but the last is complete; the last one, cut off by the
    // end of the run, is never used.
    std::vector<Window*> used;
    for (std::size_t i = 0; i + 1 < windows_.size(); ++i)
      used.push_back(&windows_[i]);
    const std::size_t complete = used.size();
    const auto steal_share = [](const std::vector<Window*>& windows) {
      double steal = 0.0, jiffies = 0.0;
      for (const Window* window : windows) {
        steal += window->steal;
        jiffies += window->jiffies;
      }
      return 100.0 * steal / std::max(jiffies, 1.0);
    };
    const double run_steal = steal_share(used);
    // A fixed threshold would leave some runs with no window, as steal can
    // cover all of a run; the run's own lowest share cannot. Least stolen
    // first, in time order among equals.
    const auto share = [](const Window* window) {
      return window->steal / std::max(window->jiffies, 1.0);
    };
    std::stable_sort(used.begin(), used.end(),
                     [&](const Window* a, const Window* b) {
                       return share(a) < share(b);
                     });
    const double lowest = used.empty() ? 0.0 : share(used.front());
    const auto connections = static_cast<std::size_t>(kConnections);
    const std::size_t groups = per_connection_ ? connections : 1;
    const auto group = [&](std::size_t conn) {
      return per_connection_ ? conn : 0;
    };
    std::vector<std::size_t> held(groups, 0);
    std::size_t keep = 0;
    for (; keep < used.size(); ++keep) {
      const bool short_of_samples =
          *std::min_element(held.begin(), held.end()) < kMinSamples;
      if (share(used[keep]) > lowest && !short_of_samples) break;
      for (std::size_t c = 0; c < connections; ++c)
        held[group(c)] += used[keep]->latencies[c].size();
    }
    used.resize(keep);
    double elapsed = 0.0, cpu = 0.0;
    std::vector<std::vector<double>> latencies(groups);
    for (const Window* window : used) {
      elapsed += window->elapsed;
      cpu += window->cpu;
      for (std::size_t c = 0; c < connections; ++c)
        latencies[group(c)].insert(latencies[group(c)].end(),
                                   window->latencies[c].begin(),
                                   window->latencies[c].end());
    }
    double p50 = 0.0, p99 = 0.0, n = 0.0;
    for (std::vector<double>& sorted : latencies) {
      std::sort(sorted.begin(), sorted.end());
      out.check(sorted.size() >= kMinSamples &&
                    samples_beyond(sorted.size(), 0.99) >= 10,
                "only " + std::to_string(sorted.size()) +
                    " latency samples in the windows used; p99 needs at "
                    "least 10 beyond it");
      p50 += percentile(sorted, 0.50) / static_cast<double>(groups);
      p99 += percentile(sorted, 0.99) / static_cast<double>(groups);
      n += static_cast<double>(sorted.size());
    }
    char note[160];
    std::snprintf(note, sizeof(note),
                  "host steal %.1f%% of CPU time; %zu of %zu windows used, "
                  "steal %.1f%% in those; %zu set-ups",
                  run_steal, used.size(), complete, steal_share(used),
                  setups.size());
    out.notes.push_back(note);
    out.metrics = {
        {"setup_s", median(setups), "s"},
        {"latency_p50_ms", p50 * 1e3, "ms"},
        {"latency_p99_ms", p99 * 1e3, "ms"},
        {"throughput_rps", n / std::max(elapsed, 1e-9), "1/s"},
        {"server_cpu_ms_per_req", cpu / std::max(n, 1.0) * 1e3, "ms"},
        {"server_peak_rss_mb", median(rss_mb), "MB"},
    };
  }

 private:
  struct Window {
    // Seconds, per connection.
    std::vector<std::vector<double>> latencies =
        std::vector<std::vector<double>>(kConnections);
    double elapsed = 0.0;           // timed wall seconds
    double cpu = 0.0;               // server CPU seconds
    double steal = 0.0;             // host jiffies stolen from this VM
    double jiffies = 0.0;           // all host jiffies
  };

  void close(Clock::time_point now) {
    Window& window = windows_.back();
    window.elapsed += seconds_between(mark_, now);
    const double cpu = server_->cpu_seconds();
    window.cpu += cpu - cpu_mark_;
    mark_ = now;
    cpu_mark_ = cpu;
    double steal = 0.0, jiffies = 0.0;
    host_cpu(steal, jiffies);
    window.steal += steal - steal_mark_;
    window.jiffies += jiffies - jiffies_mark_;
    steal_mark_ = steal;
    jiffies_mark_ = jiffies;
  }

  bool per_connection_;
  std::vector<Window> windows_;
  const ServerProcess* server_ = nullptr;
  Clock::time_point mark_;
  double cpu_mark_ = 0.0;
  double steal_mark_ = 0.0;
  double jiffies_mark_ = 0.0;
};

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double delta(const StatsSnapshot& after, const StatsSnapshot& before,
             const char* name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

/// Spawns the workload's server `kSetups` times, timing spawn until the
/// first answered request; keeps the last one running.
std::unique_ptr<ServerProcess> set_up(const std::string& binary, int workload,
                                      Recorder& wire) {
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const auto start = Clock::now();
    server = std::make_unique<ServerProcess>(binary, server_flags(workload));
    const int fd = connect_local(server->port());
    fetch_stats(fd);
    wire.setups.push_back(seconds_between(start, Clock::now()));
    ::close(fd);
  }
  return server;
}

std::vector<int> connect_all(int port, int count) {
  std::vector<int> fds;
  for (int c = 0; c < count; ++c) fds.push_back(connect_local(port));
  return fds;
}

void close_all(const std::vector<int>& fds) {
  for (const int fd : fds) ::close(fd);
}

// ---- end-to-end runs --------------------------------------------------------

Outcome wire_suite_warm(const std::string& binary, std::uint64_t seed,
                        double seconds) {
  Outcome out;
  check_imec(out);
  SuiteStream stream(seed);
  const std::vector<Expected> expected = references(stream.requests());
  Recorder wire;
  auto server = set_up(binary, 0, wire);
  const std::vector<int> fds = connect_all(server->port(), kConnections);
  const StatsSnapshot before = fetch_stats(fds[0]);
  std::vector<int> pending(kConnections, 0);
  wire.resume(*server);
  run_closed_loop(
      fds,
      [&](int conn) {
        pending[static_cast<std::size_t>(conn)] = stream.next(conn);
        return &stream.lines()[static_cast<std::size_t>(
            pending[static_cast<std::size_t>(conn)])];
      },
      [&](int conn, std::string_view line, double latency) {
        wire.sample(conn, latency);
        judge(out, line,
              expected[static_cast<std::size_t>(
                  pending[static_cast<std::size_t>(conn)])]);
      },
      deadline_after(seconds));
  wire.pause();
  const StatsSnapshot after = fetch_stats(fds[0]);
  close_all(fds);
  server->stop();
  const double hits = delta(after, before, "hits");
  out.check(hits == static_cast<double>(out.attempted),
            "suite_warm: " + std::to_string(hits) + " design hits for " +
                std::to_string(out.attempted) + " requests");
  wire.metrics(out);
  return out;
}

/// Notes each family's share of the requests and of the server's time
/// (the envelope's "seconds"), the figure kFamilyWeights is set from.
void family_shares(Outcome& out, const std::vector<Request>& sent,
                   const std::vector<std::string>& responses) {
  std::map<std::string, std::pair<double, double>> families;  // n, seconds
  double total = 0.0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Members fields;
    if (!object_members(responses[i], fields)) continue;
    const double seconds = number_member(fields, "seconds");
    auto& [n, busy] = families[sent[i].family];
    n += 1;
    busy += seconds;
    total += seconds;
  }
  for (const auto& [family, figures] : families) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "%-6s %5.1f%% of requests, %5.1f%% of server time, "
                  "%.3f ms each",
                  family.c_str(), 100.0 * figures.first / sent.size(),
                  100.0 * figures.second / std::max(total, 1e-9),
                  1e3 * figures.second / figures.first);
    out.notes.push_back(note);
  }
}

Outcome wire_families_cold(const std::string& binary, std::uint64_t seed,
                           double seconds) {
  Outcome out;
  check_imec(out);
  FamiliesStream stream(seed);
  Recorder wire;
  auto server = set_up(binary, 1, wire);
  const std::vector<int> fds = connect_all(server->port(), kConnections);
  const StatsSnapshot before = fetch_stats(fds[0]);
  std::vector<Request> sent;
  std::vector<std::string> responses;
  std::vector<std::size_t> pending(kConnections, 0);
  std::vector<std::string> lines(kConnections);
  wire.resume(*server);
  run_closed_loop(
      fds,
      [&](int conn) {
        const auto c = static_cast<std::size_t>(conn);
        pending[c] = sent.size();
        sent.push_back(stream.next(conn));
        responses.emplace_back();
        lines[c] = request_line(sent.back());
        return &lines[c];
      },
      [&](int conn, std::string_view line, double latency) {
        wire.sample(conn, latency);
        responses[pending[static_cast<std::size_t>(conn)]] = line;
      },
      deadline_after(seconds));
  wire.pause();
  const StatsSnapshot after = fetch_stats(fds[0]);
  close_all(fds);
  server->stop();
  const std::vector<Expected> expected = references(sent);
  for (std::size_t i = 0; i < sent.size(); ++i)
    judge(out, responses[i], expected[i]);
  family_shares(out, sent, responses);
  out.check(delta(after, before, "hits") == 0,
            "families_cold: a design was served from the cache");
  out.check(delta(after, before, "evictions") > 0,
            "families_cold: nothing was evicted in the timed phase");
  wire.metrics(out);
  return out;
}

/// editor_loop wire run. The edit space of each base is bounded (gates x
/// kMaxEditCopies), and a resident server would answer a repeated edit
/// from its design cache, so the run is a sequence of epochs: a fresh
/// server (its spawn and the base designs' cold pass are one set-up),
/// then every connection walks a seeded permutation of its base's edit
/// space until the first connection has sent its whole space. Every
/// timed request is an edit the server has not seen.
Outcome wire_editor_loop(const std::string& binary, std::uint64_t seed,
                         double seconds) {
  Outcome out;
  check_imec(out);
  const std::vector<Design> bases = editor_bases();
  // References for every base and every edit in the bounded space.
  std::vector<Request> all;
  std::vector<std::vector<Edit>> spaces;
  std::vector<std::size_t> first_edit;  // index in `all` per base
  for (const Design& base : bases) {
    Request request;
    request.design = base;
    all.push_back(request);
  }
  for (const Design& base : bases) {
    spaces.push_back(edit_space(base));
    first_edit.push_back(all.size());
    for (const Edit& edit : spaces.back())
      all.push_back(edit_request(base, edit));
  }
  const std::vector<Expected> expected =
      cold_references(all, kReferenceThreads);
  std::vector<std::string> base_lines;
  for (std::size_t b = 0; b < bases.size(); ++b)
    base_lines.push_back(request_line(all[b]));

  Recorder wire(/*per_connection=*/true);
  const auto run_end =
      deadline_after(seconds);
  int epoch = 0;
  double design_hits = 0;
  while (epoch < kSetups || Clock::now() < run_end) {
    const auto start = Clock::now();
    ServerProcess server(binary, server_flags(2));
    const std::vector<int> fds = connect_all(server.port(), kConnections);
    std::vector<bool> based(kConnections, false);
    run_closed_loop(
        fds,
        [&](int conn) -> const std::string* {
          const auto c = static_cast<std::size_t>(conn);
          if (based[c]) return nullptr;
          based[c] = true;
          return &base_lines[c];
        },
        [&](int conn, std::string_view line, double) {
          judge(out, line, expected[static_cast<std::size_t>(conn)]);
        },
        Clock::now() + std::chrono::seconds(120));
    wire.setups.push_back(seconds_between(start, Clock::now()));

    std::vector<std::vector<int>> order;
    for (int c = 0; c < kConnections; ++c)
      order.push_back(permutation(
          static_cast<int>(spaces[static_cast<std::size_t>(c)].size()),
          stream_seed(seed, 3, static_cast<std::uint64_t>(epoch) * 16 +
                                   static_cast<std::uint64_t>(c))));
    std::vector<std::size_t> cursor(kConnections, 0);
    std::vector<std::size_t> pending(kConnections, 0);
    std::vector<std::string> lines(kConnections);
    const StatsSnapshot before = fetch_stats(fds[0]);
    wire.resume(server);
    run_closed_loop(
        fds,
        [&](int conn) -> const std::string* {
          const auto c = static_cast<std::size_t>(conn);
          if (cursor[c] == order[c].size()) return nullptr;
          const auto e = static_cast<std::size_t>(order[c][cursor[c]++]);
          pending[c] = first_edit[c] + e;
          lines[c] = request_line(all[pending[c]]);
          return &lines[c];
        },
        [&](int conn, std::string_view line, double latency) {
          wire.sample(conn, latency);
          judge(out, line, expected[pending[static_cast<std::size_t>(conn)]]);
        },
        run_end);
    wire.pause();
    const StatsSnapshot after = fetch_stats(fds[0]);
    design_hits += delta(after, before, "hits");
    close_all(fds);
    server.stop();
    ++epoch;
  }
  out.check(design_hits == 0,
            "editor_loop: an edit was served from the design cache");
  wire.metrics(out);
  return out;
}

// ---- traced runs ------------------------------------------------------------

/// The fixed request sequence of a traced run: `primes` leading requests
/// (the editor loop's base designs) followed by the timed ones.
struct TraceSequence {
  std::vector<Request> requests;
  std::size_t primes = 0;
};

TraceSequence trace_sequence(int workload, std::uint64_t seed) {
  TraceSequence sequence;
  const int n = kTraceRequests[workload];
  if (workload == 0) {
    SuiteStream stream(seed);
    for (int i = 0; i < n; ++i)
      sequence.requests.push_back(stream.requests()[static_cast<std::size_t>(
          stream.next(i % kConnections))]);
  } else if (workload == 1) {
    FamiliesStream stream(seed);
    for (int i = 0; i < n; ++i)
      sequence.requests.push_back(stream.next(i % kConnections));
  } else {
    const std::vector<Design> bases = editor_bases();
    std::vector<std::vector<Edit>> spaces;
    std::vector<std::vector<int>> order;
    for (std::size_t b = 0; b < bases.size(); ++b) {
      Request request;
      request.design = bases[b];
      sequence.requests.push_back(request);
      spaces.push_back(edit_space(bases[b]));
      order.push_back(permutation(static_cast<int>(spaces.back().size()),
                                  stream_seed(seed, 3, b)));
    }
    sequence.primes = bases.size();
    for (int i = 0; i < n; ++i) {
      const std::size_t b = static_cast<std::size_t>(i) % bases.size();
      const std::size_t e = static_cast<std::size_t>(i) / bases.size();
      sequence.requests.push_back(edit_request(
          bases[b], spaces[b][static_cast<std::size_t>(order[b][e])]));
    }
  }
  return sequence;
}

double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

/// Least-squares slope of log(seconds) against log(gates).
double log_log_slope(const std::vector<std::pair<int, double>>& points) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (const auto& [gates, secs] : points) {
    if (gates <= 0 || secs <= 0) continue;
    const double x = std::log(gates), y = std::log(secs);
    sx += x; sy += y; sxx += x * x; sxy += x * y; ++n;
  }
  const double denominator = n * sxx - sx * sx;
  return n >= 2 && denominator > 0 ? (n * sxy - sx * sy) / denominator : 0.0;
}

Outcome traced(const std::string& binary, int workload, std::uint64_t seed,
               const std::string& spans_dir) {
  Outcome out;
  check_imec(out);
  const TraceSequence sequence = trace_sequence(workload, seed);
  const std::vector<Expected> expected = references(sequence.requests);
  std::vector<std::string> lines;
  for (const Request& request : sequence.requests)
    lines.push_back(request_line(request));

  // Wire: one connection, one request at a time, so the server's counters
  // are a pure function of the sequence.
  ServerProcess server(binary, server_flags(workload));
  const int fd = connect_local(server.port());
  const StatsSnapshot before = fetch_stats(fd);
  std::size_t sent = 0;
  std::vector<double> overheads;
  double latency_sum = 0.0, bytes_sum = 0.0;
  run_closed_loop(
      {fd},
      [&](int) -> const std::string* {
        return sent < lines.size() ? &lines[sent++] : nullptr;
      },
      [&](int, std::string_view line, double latency) {
        const std::size_t i = sent - 1;
        judge(out, line, expected[i]);
        if (i < sequence.primes) return;
        Members fields;
        object_members(line, fields);
        overheads.push_back(latency - number_member(fields, "seconds"));
        latency_sum += latency;
        bytes_sum += static_cast<double>(line.size());
      },
      Clock::now() + std::chrono::seconds(150));
  const StatsSnapshot after = fetch_stats(fd);
  ::close(fd);
  server.stop();

  // In-process replay of the same sequence through every layer.
  sitime::svc::ServiceOptions options;
  if (workload == 1)
    options.cache_budget_bytes = std::size_t{kFamiliesCacheMb} << 20;
  Replay replay(options, workload == 0);
  for (std::size_t i = 0; i < sequence.requests.size(); ++i) {
    if (i < sequence.primes)
      replay.prime(sequence.requests[i]);
    else
      replay.run(sequence.requests[i], lines[i]);
  }
  if (!spans_dir.empty())
    replay.write_spans(spans_dir + "/spans-" + kWorkloads[workload] + "-seed" +
                       std::to_string(seed) + ".jsonl");
  for (const auto& [name, value] : replay.stats_delta())
    out.check(after.count(name) != 0 &&
                  delta(after, before, name.c_str()) == value,
              "counter '" + name + "' differs between the server and the "
              "in-process replay of the same sequence");

  const LayerTotals& t = replay.totals();
  const double n = std::max(t.requests, 1);
  const double hit_us = t.hit_samples > 0 ? t.hit / t.hit_samples * 1e6 : 0.0;
  const double parse_us = t.parse / n * 1e6;
  const double keying_us = t.keying / n * 1e6;
  std::sort(overheads.begin(), overheads.end());
  const double overhead_us = percentile(overheads, 0.5) * 1e6;
  const double wire_mean = latency_sum / n;
  const auto d = [&](const char* name) { return delta(after, before, name); };
  out.metrics = {
      {"json_decode_us", t.json_decode / n * 1e6, "us"},
      {"parse_us", parse_us, "us"},
      {"keying_us", keying_us, "us"},
      {"hit_us", hit_us, "us"},
      {"lookup_us", hit_us - parse_us - keying_us, "us"},
      {"global_sg_ms", t.global_sg / n * 1e3, "ms"},
      {"synth_ms", t.synth / n * 1e3, "ms"},
      {"decompose_ms", t.decompose / n * 1e3, "ms"},
      {"projection_ms", t.projection / n * 1e3, "ms"},
      {"local_sg_ms", t.local_sg / n * 1e3, "ms"},
      {"verify_ms", t.verify / n * 1e3, "ms"},
      {"derive_ms", t.derive / n * 1e3, "ms"},
      {"expand_steps", static_cast<double>(t.expand_steps), "count"},
      {"render_us", t.render / n * 1e6, "us"},
      {"server_overhead_us", overhead_us, "us"},
      {"response_bytes", bytes_sum / n, "bytes"},
      {"design_hit_ratio",
       ratio(d("hits"), d("hits") + d("misses") + d("upgrades")), "ratio"},
      {"decomp_hit_ratio",
       ratio(d("decomp_hits"), d("decomp_hits") + d("decomp_misses")),
       "ratio"},
      {"gate_hit_ratio",
       ratio(d("gate_hits"), d("gate_hits") + d("gate_misses")), "ratio"},
      {"sg_cache_hit_ratio",
       ratio(d("sg_hits"), d("sg_hits") + d("sg_misses")), "ratio"},
      {"decompose_runs", d("decompose_runs"), "count"},
      {"evictions", d("evictions"), "count"},
      {"ring_cost_exponent", log_log_slope(t.rings), "slope"},
      {"attributed_share",
       ratio(t.attributed / n + overhead_us * 1e-6, wire_mean), "ratio"},
  };
  // The workload design, confirmed by the layer numbers.
  if (workload == 0) {
    out.check(d("hits") == n, "suite_warm: not every request was a hit");
    out.check(parse_us + keying_us > hit_us - parse_us - keying_us,
              "suite_warm: lookup outweighs parse + keying");
  } else if (workload == 1) {
    out.check(d("hits") == 0 && d("evictions") > 0,
              "families_cold: expected no hits and some evictions");
  } else {
    out.check(d("decompose_runs") == static_cast<double>(sequence.primes),
              "editor_loop: decompose_runs differs from the base count");
  }
  return out;
}

// ---- self-tests -------------------------------------------------------------

bool selftest(std::vector<std::string>& problems) {
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back("selftest: " + what);
  };
  // Percentile rule: nearest rank; p99 needs >= 10 samples beyond it.
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  expect(percentile(ramp, 0.99) == 990 && percentile(ramp, 0.5) == 500,
         "nearest-rank percentile");
  expect(samples_beyond(1000, 0.99) == 10 && samples_beyond(999, 0.99) < 10,
         "p99 needs 1000 samples for 10 beyond it");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");

  // Generator determinism: one seed, identical bytes; another seed, not.
  const auto sample = [](std::uint64_t seed) {
    std::string bytes;
    SuiteStream suite(seed);
    FamiliesStream families(seed);
    for (int i = 0; i < 64; ++i) {
      bytes += suite.lines()[static_cast<std::size_t>(suite.next(i % 4))];
      bytes += request_line(families.next(i % 4));
    }
    for (const Request& request : trace_sequence(2, seed).requests)
      bytes += request_line(request);
    return bytes;
  };
  const std::string a = sample(7);
  expect(a == sample(7), "one seed gives identical request bytes");
  expect(a != sample(8), "two seeds give different request bytes");

  // Every design stays under the 64-signal code width.
  std::vector<Design> designs = suite_designs();
  designs.push_back(ring_design(48, "q99999c3n99999_"));
  designs.push_back(muller_design(10, "q99999c3n99999_"));
  for (const Design& base : editor_bases()) designs.push_back(base);
  for (const Design& design : designs)
    expect(signal_names(design.astg).size() < 64,
           design.name + " exceeds the 64-signal code width");

  // Renaming touches every signal and nothing else.
  for (const Design& design : suite_designs()) {
    const Design renamed = rename_design(design, "p0_");
    const auto names = signal_names(design.astg);
    const auto renamed_names = signal_names(renamed.astg);
    bool same = names.size() == renamed_names.size();
    for (std::size_t i = 0; same && i < names.size(); ++i)
      same = renamed_names[i] == "p0_" + names[i];
    expect(same, "renaming " + design.name);
  }

  // The edit stream is bounded: one gate changes, by 1..K copies of its
  // first cube, and an epoch never repeats an edit.
  for (const Design& base : editor_bases()) {
    const std::vector<std::string> gates = gate_names(base.eqn);
    const std::vector<Edit> space = edit_space(base);
    expect(space.size() == gates.size() * kMaxEditCopies,
           base.name + ": edit space size");
    std::size_t longest_cube = 0;
    for (const Edit& edit : space) {
      const std::string edited = edit_request(base, edit).design.eqn;
      expect(edit.copies >= 1 && edit.copies <= kMaxEditCopies,
             base.name + ": copies out of bounds");
      expect(gate_names(edited) == gates, base.name + ": gate list changed");
      longest_cube = std::max(longest_cube, edited.size() - base.eqn.size());
      expect(duplicate_first_cube(base.eqn, gates[static_cast<std::size_t>(
                                                edit.gate)],
                                  edit.copies) == edited,
             base.name + ": edit is not the first-cube duplication");
    }
    expect(longest_cube <= kMaxEditCopies * 64,
           base.name + ": an edit grows the netlist without bound");
    std::vector<int> order = permutation(static_cast<int>(space.size()), 1);
    std::sort(order.begin(), order.end());
    bool is_permutation = true;
    for (std::size_t i = 0; i < order.size(); ++i)
      is_permutation = is_permutation && order[i] == static_cast<int>(i);
    expect(is_permutation, base.name + ": epoch order repeats an edit");
  }
  return problems.empty();
}

// ---- output -----------------------------------------------------------------

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string result_json(const Outcome& out, const std::string& prefix) {
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + prefix + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

void print_summary(const char* workload, const Outcome& out) {
  std::printf("== %s: attempted %lld, succeeded %lld, failed %lld%s\n",
              workload, out.attempted, out.attempted - out.failed,
              out.failed, out.correct() ? "" : "  ** INCORRECT **");
  for (const Metric& m : out.metrics)
    std::printf("   %-22s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& note : out.notes)
    std::printf("   %s\n", note.c_str());
  for (const std::string& problem : out.problems)
    std::printf("   check failed: %s\n", problem.c_str());
}

std::string environment_json(std::uint64_t seed, int workload,
                             const std::string& commit) {
  std::string flags = "--listen 127.0.0.1:0";
  for (const std::string& flag : server_flags(workload)) flags += " " + flag;
  return "{\"environment\": {\"nproc\": " +
         std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" PERFBENCH_COMPILER
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"commit\": \"" +
         commit + "\", \"seed\": " + std::to_string(seed) +
         ", \"clients\": " + std::to_string(kConnections) +
         ", \"workload\": \"" + kWorkloads[workload] +
         "\", \"server_flags\": \"" + flags + "\"}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --server PATH --workload NAME|all --seed N "
               "--seconds S --trace 0|1 [--commit TEXT] [--spans-dir DIR]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string server, workload_name, spans_dir, commit = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool only_selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (arg == "--server") server = value();
    else if (arg == "--workload") workload_name = value();
    else if (arg == "--seed")
      seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") seconds = std::atof(value().c_str());
    else if (arg == "--trace") trace = std::atoi(value().c_str());
    else if (arg == "--commit") commit = value();
    else if (arg == "--spans-dir") spans_dir = value();
    else if (arg == "--selftest") only_selftest = true;
    else return usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; timings need "
                 "Release\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::vector<std::string> problems;
  const bool selftest_ok = selftest(problems);
  if (only_selftest) {
    for (const std::string& problem : problems)
      std::printf("%s\n", problem.c_str());
    std::printf("selftest %s\n", selftest_ok ? "passed" : "FAILED");
    return selftest_ok ? 0 : 1;
  }
  std::vector<int> workloads;
  for (int w = 0; w < 3; ++w)
    if (workload_name == kWorkloads[w] || workload_name == "all")
      workloads.push_back(w);
  if (workloads.empty() || server.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage();

  Outcome total;
  total.problems = problems;
  for (const int w : workloads) {
    Outcome out;
    try {
      out = trace == 1           ? traced(server, w, seed, spans_dir)
            : w == 0             ? wire_suite_warm(server, seed, seconds)
            : w == 1             ? wire_families_cold(server, seed, seconds)
                                 : wire_editor_loop(server, seed, seconds);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: %s: %s\n", kWorkloads[w], error.what());
      return 1;
    }
    print_summary(kWorkloads[w], out);
    std::printf("%s\n", environment_json(seed, w, commit).c_str());
    total.attempted += out.attempted;
    total.failed += out.failed;
    total.problems.insert(total.problems.end(), out.problems.begin(),
                          out.problems.end());
    const std::string prefix =
        workloads.size() > 1 ? std::string(kWorkloads[w]) + "." : "";
    for (Metric m : out.metrics) {
      m.name = prefix + m.name;
      total.metrics.push_back(m);
    }
  }
  for (const std::string& problem : problems)
    std::printf("   check failed: %s\n", problem.c_str());
  std::printf("%s\n", result_json(total, "").c_str());
  return total.correct() ? 0 : 1;
}

// The traced replay: the wire workload's seeded request sequence run
// in-process through each layer's public functions, one call at a time,
// with the time of every call kept in memory and summed per layer. The
// flow layers run only where the service would run them (a design-cache
// hit skips them; a cached decomposition or gate slice is reused as the
// service reuses it), so the per-layer numbers split the wire latency.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gen.hpp"
#include "sg/sg_cache.hpp"
#include "svc/analysis_service.hpp"
#include "svc/gate_cache.hpp"
#include "wire.hpp"

namespace perfbench {

/// Layer times summed over the replayed requests (seconds).
struct LayerTotals {
  int requests = 0;
  double json_decode = 0, parse = 0, keying = 0;
  double hit = 0;
  int hit_samples = 0;
  double global_sg = 0, synth = 0, decompose = 0;
  double projection = 0, local_sg = 0;
  double verify = 0, derive = 0, render = 0;
  long long expand_steps = 0;
  /// Flow cost of every ring: (gates, verify + derive seconds).
  std::vector<std::pair<int, double>> rings;
  /// Seconds of every layer the requests passed through (projection and
  /// local SG excluded: they nest inside verify and derive).
  double attributed = 0;
};

class Replay {
 public:
  /// `options` mirror the server's flags; `warm` mirrors --warm.
  Replay(const sitime::svc::ServiceOptions& options, bool warm);

  /// A request that is part of the stats window and primes the replay's
  /// memos but is not layer-timed (the editor loop's base designs).
  void prime(const Request& request);
  /// Replays one request through every layer.
  void run(const Request& request, const std::string& line);

  const LayerTotals& totals() const { return totals_; }
  /// Writes every span kept in memory, one JSON object per line: the
  /// request index, the span name, its parent ("request" for every layer
  /// call) and its start and end in microseconds since the replay began.
  void write_spans(const std::string& path) const;
  /// Service counters accumulated over prime() and run() calls, under
  /// the {"stats": true} names.
  const StatsSnapshot& stats_delta() const { return delta_; }

 private:
  static constexpr const char* kRequestSpan = "request";
  struct Span {
    int request;
    const char* name;
    double start_us;
    double end_us;
  };

  /// The service's counters now, and their change since `before` added
  /// to delta_.
  StatsSnapshot counters() const;
  void count_since(const StatsSnapshot& before);
  double since_origin() const {
    return seconds_between(origin_, Clock::now()) * 1e6;
  }
  /// Runs one layer call inside a span of the current request, adding
  /// its seconds to `total`; returns the call's result and its seconds.
  template <typename F>
  auto timed(const char* name, double& total, F&& call) {
    const double start = since_origin();
    auto result = call();
    const double end = since_origin();
    spans_.push_back(Span{totals_.requests, name, start, end});
    total += (end - start) * 1e-6;
    return std::make_pair(std::move(result), (end - start) * 1e-6);
  }

  std::unique_ptr<sitime::svc::AnalysisService> service_;
  LayerTotals totals_;
  StatsSnapshot delta_;
  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;  // kept in memory, written by write_spans()
  // Mirrors of the service's reuse, for the replay's own layer calls.
  std::unordered_map<std::string, sitime::core::FlowDecomposition> decomps_;
  std::set<std::string> projected_;
  sitime::sg::SgCache sg_cache_;
  std::atomic<std::size_t> no_reserved_{0};
  sitime::svc::GateCache gate_cache_;
};

sitime::svc::AnalysisRequest to_analysis_request(const Request& request);

}  // namespace perfbench

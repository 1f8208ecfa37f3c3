#include "replay.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "circuit/circuit.hpp"
#include "core/local_stg.hpp"
#include "core/phase.hpp"
#include "core/report.hpp"
#include "sg/state_graph.hpp"
#include "stg/astg.hpp"
#include "svc/json.hpp"
#include "synth/synthesis.hpp"

namespace perfbench {

using namespace sitime;

namespace {

StatsSnapshot snapshot(const svc::CacheStats& s) {
  return StatsSnapshot{
      {"hits", static_cast<double>(s.hits)},
      {"misses", static_cast<double>(s.misses)},
      {"upgrades", static_cast<double>(s.upgrades)},
      {"evictions", static_cast<double>(s.evictions)},
      {"failures", static_cast<double>(s.failures)},
      {"decompose_runs", static_cast<double>(s.decompose_runs)},
      {"sg_hits", static_cast<double>(s.sg_cache_hits)},
      {"sg_misses", static_cast<double>(s.sg_cache_misses)},
      {"decomp_hits", static_cast<double>(s.decomp_hits)},
      {"decomp_misses", static_cast<double>(s.decomp_misses)},
      {"gate_hits", static_cast<double>(s.gate_hits)},
      {"gate_misses", static_cast<double>(s.gate_misses)},
  };
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace

svc::AnalysisRequest to_analysis_request(const Request& request) {
  svc::AnalysisRequest out;
  out.name = request.design.name;
  out.astg = request.design.astg;
  out.eqn = request.design.eqn;
  out.mode = request.verify ? svc::RequestMode::verify
                            : svc::RequestMode::derive;
  return out;
}

Replay::Replay(const svc::ServiceOptions& options, bool warm)
    : service_(std::make_unique<svc::AnalysisService>(options)),
      gate_cache_(std::size_t{1} << 30, &no_reserved_) {
  if (warm) service_->warm_benchmark_suite();
}

StatsSnapshot Replay::counters() const { return snapshot(service_->stats()); }

void Replay::count_since(const StatsSnapshot& before) {
  for (const auto& [name, value] : counters())
    delta_[name] += value - before.at(name);
}

void Replay::prime(const Request& request) {
  // Runs the request like any other, so the replay's own decomposition
  // and projection memos are primed as the server's caches are, then
  // drops its layer times and spans.
  const LayerTotals kept = totals_;
  const std::size_t spans = spans_.size();
  run(request, request_line(request));
  totals_ = kept;
  spans_.resize(spans);
}

void Replay::write_spans(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"request\": %d, \"span\": \"%s\", \"parent\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                  span.request, span.name,
                  std::strcmp(span.name, kRequestSpan) == 0 ? "" : kRequestSpan,
                  span.start_us, span.end_us);
    out << line;
  }
}

void Replay::run(const Request& request, const std::string& line) {
  LayerTotals& t = totals_;
  ++t.requests;
  const double request_start = since_origin();
  struct CloseRequestSpan {
    Replay& replay;
    double start;
    ~CloseRequestSpan() {
      replay.spans_.push_back(Span{replay.totals_.requests, kRequestSpan,
                                   start, replay.since_origin()});
    }
  } close_request_span{*this, request_start};
  // Seconds of the layers this request passes through, for
  // attributed_share (projection and local SG nest inside verify/derive).
  double path = 0.0;
  path += timed("json_decode", t.json_decode, [&] {
            return svc::parse_json(line);
          }).second;

  // Parse and canonical keying run on every request, hit or not.
  double front = 0.0;
  const auto parsed = std::make_shared<const stg::Stg>(
      timed("parse", front, [&] {
        return stg::parse_astg(request.design.astg);
      }).first);
  std::shared_ptr<const circuit::Circuit> circuit;
  if (!request.design.eqn.empty())
    circuit = std::make_shared<const circuit::Circuit>(
        timed("parse", front, [&] {
          return circuit::Circuit::from_equations(&parsed->signals,
                                                  request.design.eqn);
        }).first);
  t.parse += front;
  double keying = 0.0;
  const std::string stg_key =
      timed("keying", keying, [&] { return stg::write_astg(*parsed); }).first;
  if (circuit != nullptr)
    timed("keying", keying, [&] { return circuit->to_eqn(); });
  t.keying += keying;

  // Only the service call is inside the span; the counter snapshots
  // around it are bookkeeping no server request does.
  const svc::AnalysisRequest analysis = to_analysis_request(request);
  const StatsSnapshot before = counters();
  double service_seconds = 0.0;
  const svc::AnalysisResponse first =
      timed("analyze", service_seconds, [&] {
        return service_->analyze(analysis);
      }).first;
  count_since(before);
  if (first.cache_state == "hit") {
    t.hit += service_seconds;
    ++t.hit_samples;
    t.attributed += path + service_seconds;
    return;  // the flow layers did not run
  }
  {
    double again_seconds = 0.0;
    const svc::AnalysisResponse again =
        timed("analyze_hit", again_seconds, [&] {
          return service_->analyze(analysis);
        }).first;
    if (again.cache_state == "hit") {
      t.hit += again_seconds;
      ++t.hit_samples;
    }
  }
  path += front + keying;

  // The fresh path, layer by layer, reusing a decomposition where the
  // service's decomposition cache would.
  core::PhaseArtifacts artifacts;
  artifacts.stg = parsed;
  const auto cached = decomps_.find(stg_key);
  if (cached != decomps_.end() && circuit != nullptr) {
    artifacts.circuit = circuit;
    artifacts.decomposition = cached->second;
    artifacts.decomposition.jobs = core::enumerate_flow_jobs(
        static_cast<int>(artifacts.decomposition.component_stgs.size()),
        static_cast<int>(circuit->gates().size()));
  } else {
    double global_seconds = 0.0;
    const sg::GlobalSg global = timed("global_sg", global_seconds, [&] {
                                  return sg::build_global_sg(*parsed);
                                }).first;
    if (circuit == nullptr) {
      double synth_seconds = 0.0;
      circuit = std::make_shared<const circuit::Circuit>(
          circuit::Circuit::from_synthesis(
              &parsed->signals,
              timed("synth", synth_seconds, [&] {
                return synth::synthesize(*parsed, global);
              }).first));
      t.synth += synth_seconds;
      path += synth_seconds;
    }
    double decompose_seconds = 0.0;
    artifacts.decomposition = timed("decompose_flow", decompose_seconds, [&] {
      return core::decompose_flow(*parsed, *circuit);
    }).first;
    artifacts.circuit = circuit;
    artifacts.decomposition.source = parsed;
    // decompose_flow builds its own global SG; the rest is decomposition.
    t.global_sg += global_seconds;
    t.decompose += decompose_seconds - global_seconds;
    path += decompose_seconds;
    decomps_.emplace(stg_key, artifacts.decomposition);
  }
  artifacts.completed = core::Phase::decomposed;

  // Projection and local SG of every (component x gate) job the service
  // cannot take from its gate cache, once per phase that projects.
  const std::vector<std::string> gate_lines = lines_of(circuit->to_eqn());
  const std::vector<char> phases =
      request.verify ? std::vector<char>{'v'} : std::vector<char>{'v', 'd'};
  for (const char phase : phases) {
    for (const core::FlowJob& job : artifacts.decomposition.jobs) {
      const std::string key = std::string(1, phase) + "\x1f" + stg_key +
                              "\x1f" + std::to_string(job.component) + "\x1f" +
                              gate_lines[static_cast<std::size_t>(job.gate)];
      if (!projected_.insert(key).second) continue;
      const circuit::Gate& gate =
          circuit->gates()[static_cast<std::size_t>(job.gate)];
      const stg::MgStg local = timed("projection", t.projection, [&] {
        return core::local_stg(
            artifacts.decomposition
                .component_stgs[static_cast<std::size_t>(job.component)],
            gate);
      }).first;
      timed("local_sg", t.local_sg,
            [&] { return sg::build_state_graph(local); });
    }
  }

  core::FlowOptions options;
  options.gate_store = &gate_cache_;
  options.sg_cache = &sg_cache_;
  double verify_seconds = 0.0, derive_seconds = 0.0;
  timed("verify", verify_seconds, [&] {
    core::run_verify_phase(artifacts, options);
    return 0;
  });
  if (!request.verify)
    timed("derive", derive_seconds, [&] {
      core::run_derive_phase(artifacts, options);
      return 0;
    });
  t.verify += verify_seconds;
  t.derive += derive_seconds;
  path += verify_seconds + derive_seconds;
  if (request.family == "ring")
    t.rings.emplace_back(static_cast<int>(circuit->gates().size()),
                         verify_seconds + derive_seconds);
  if (artifacts.has_result) {
    t.expand_steps += artifacts.result.expand_steps;
    double render_seconds = 0.0;
    timed("render", render_seconds, [&] {
      core::FlowReport report =
          core::make_flow_report("", artifacts.result, parsed->signals);
      report.content_hash = first.key;
      const std::string canonical = core::to_canonical_json(report);
      const core::RenderedReport rendered = core::render_report(report);
      return canonical.size() + rendered.json_body.size();
    });
    t.render += render_seconds;
    path += render_seconds;
  }
  t.attributed += path;
}

}  // namespace perfbench

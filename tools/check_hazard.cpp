// check_hazard — the thesis tool's command-line interface (Section 7.3.1),
// grown into a batch driver: one process pipelines any number of designs
// through the parallel flow on one shared thread pool.
//
// Usage:
//   check_hazard STG.g [EQN.eqn]                      # legacy single design
//   check_hazard [options] DESIGN.g [DESIGN2.g ...]   # batch
//
// Options:
//   --jobs N, -j N   parallel (component × gate) jobs and concurrent
//                    designs; 0 = one per hardware thread, default 1
//   --json           structured JSON report (an array in batch mode)
//   --eqn FILE       restricted-EQN netlist (single design only); without
//                    it a DESIGN.eqn sibling is used when present, else the
//                    circuit is synthesized from the STG's state graph
//   --bench NAME     add an embedded benchmark ('all' = the whole suite)
//   --list-benchmarks
//   --dump-bench DIR write the embedded suite as .g/.eqn files into DIR
//
// Text output per design prints the adversary-path conditions before
// relaxation and the relative timing constraints after, in the format of
// the thesis tool:
//
//   The timing constraints in the original specification are: ...
//   The timing constraints for this circuit to work correctly are: ...
//   The running time for this program is ... seconds
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "base/thread_pool.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/report.hpp"
#include "svc/analysis_service.hpp"

#include "design_io.hpp"  // shared tools helpers (sibling of this file)

namespace {

struct DesignInput {
  std::string name;  // display name: file path or benchmark name
  std::string astg;  // implementation STG text
  std::string eqn;   // optional netlist text; empty -> synthesize
};

struct DesignOutcome {
  bool ok = false;
  std::string text;   // rendered report (text mode)
  std::string json;   // rendered report (json mode)
  std::string error;  // failure message when !ok
};

struct CliOptions {
  int jobs = 1;
  bool json = false;
  std::string eqn_path;
  std::vector<std::string> bench_names;
  std::vector<std::string> files;
};

using sitime::tools::read_file;

int usage() {
  std::fprintf(
      stderr,
      "usage: check_hazard STG.g [EQN.eqn]\n"
      "       check_hazard [--jobs N] [--json] [--eqn FILE] [--bench NAME]\n"
      "                    [DESIGN.g ...]\n"
      "       check_hazard --list-benchmarks | --dump-bench DIR\n");
  return 2;
}

/// Runs one design through the analysis service (verify + derive share one
/// FlowDecomposition there, and repeated designs in a batch are answered
/// from the content-addressed cache). `legacy` reproduces the original
/// tool's stderr side channel (synthesized netlist) for the single-design
/// invocation.
DesignOutcome process_design(const DesignInput& input,
                             const CliOptions& options,
                             sitime::svc::AnalysisService& service,
                             bool legacy) {
  using namespace sitime;
  DesignOutcome outcome;
  svc::AnalysisRequest request;
  request.name = input.name;
  request.astg = input.astg;
  request.eqn = input.eqn;
  request.mode = svc::RequestMode::derive;
  const svc::AnalysisResponse response = service.analyze(request);
  // The original tool printed the synthesized netlist right after circuit
  // construction — before the flow could fail — so the dump must appear
  // even for !ok responses (the service reports the netlist as soon as it
  // is synthesized; it is empty only when parsing/synthesis itself threw).
  if (legacy && input.eqn.empty() && response.netlist_eqn != nullptr)
    std::fprintf(stderr, "synthesized netlist:\n%s\n",
                 response.netlist_eqn->c_str());
  if (!response.ok) {
    outcome.error = response.error;
    return outcome;
  }
  if (!response.speed_independent) {
    outcome.error = "the circuit is not speed independent (gate '" +
                    response.verify_offender +
                    "' violates timing conformance under the isochronic "
                    "fork)";
    return outcome;
  }
  // The cached report body is name-free and the service memoizes its
  // renderings (every ok, speed-independent derive response carries
  // them); serve those verbatim, prefixing this request's display
  // name and cache provenance where the format carries them (the JSON
  // head; the text layouts are name-free by construction). A pure cache
  // hit re-renders nothing.
  if (options.json)
    outcome.json = core::json_report_head(input.name, response.key,
                                          response.cache_state,
                                          response.phases_run) +
                   response.rendered->json_body;
  else if (legacy)
    outcome.text = response.rendered->thesis;
  else
    outcome.text = response.rendered->text;
  outcome.ok = true;
  return outcome;
}

int list_benchmarks() {
  for (const auto& bench : sitime::benchdata::all_benchmarks())
    std::printf("%s%s\n", bench.name.c_str(),
                bench.eqn.empty() ? " (synthesized)" : "");
  return 0;
}

int dump_benchmarks(const std::string& directory) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  for (const auto& bench : sitime::benchdata::all_benchmarks()) {
    const fs::path base = fs::path(directory) / bench.name;
    std::ofstream g(base.string() + ".g");
    g << bench.astg;
    g.close();  // flush so deferred write errors (full disk) surface here
    if (!g) {
      std::fprintf(stderr, "error: cannot write '%s.g'\n",
                   base.string().c_str());
      return 1;
    }
    if (!bench.eqn.empty()) {
      std::ofstream eqn(base.string() + ".eqn");
      eqn << bench.eqn;
      eqn.close();
      if (!eqn) {
        std::fprintf(stderr, "error: cannot write '%s.eqn'\n",
                     base.string().c_str());
        return 1;
      }
    }
  }
  std::printf("wrote %zu designs to %s\n",
              sitime::benchdata::all_benchmarks().size(), directory.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sitime;
  CliOptions options;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](const char* flag) -> std::string {
      if (++i >= args.size()) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return args[i];
    };
    if (arg == "--jobs" || arg == "-j") {
      const std::string text = value("--jobs");
      char* end = nullptr;
      const long jobs = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || jobs < 0 || jobs > 4096) {
        std::fprintf(stderr, "error: --jobs needs an integer in [0, 4096]\n");
        return 2;
      }
      options.jobs = static_cast<int>(jobs);
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--eqn") {
      options.eqn_path = value("--eqn");
    } else if (arg == "--bench") {
      options.bench_names.push_back(value("--bench"));
    } else if (arg == "--list-benchmarks") {
      return list_benchmarks();
    } else if (arg == "--dump-bench") {
      return dump_benchmarks(value("--dump-bench"));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return usage();
    } else {
      options.files.push_back(arg);
    }
  }

  // Legacy form: exactly two positionals where the second is not another
  // design (.g). The original tool accepted any filename as its netlist
  // argument, so only a .g suffix routes the pair into batch mode.
  const auto is_design = [](const std::string& path) {
    return path.size() >= 2 &&
           path.compare(path.size() - 2, 2, ".g") == 0;
  };
  const bool legacy_eqn = options.files.size() == 2 &&
                          options.eqn_path.empty() &&
                          !is_design(options.files[1]);
  if (legacy_eqn) {
    options.eqn_path = options.files[1];
    options.files.pop_back();
  }

  std::vector<DesignInput> designs;
  try {
    for (const std::string& path : options.files) {
      DesignInput input;
      input.name = path;
      input.astg = read_file(path);
      // Sibling netlist autodetect (DESIGN.g -> DESIGN.eqn) is a batch
      // convenience; the legacy single-file invocation keeps the original
      // tool's contract (synthesize unless an EQN is passed explicitly).
      const bool batch_mode = options.json || !options.bench_names.empty() ||
                              options.files.size() >= 2;
      if (options.eqn_path.empty() && batch_mode) {
        const std::string sibling = tools::sibling_eqn_path(path);
        if (!sibling.empty()) {
          input.eqn = read_file(sibling);
          std::fprintf(stderr, "note: using sibling netlist '%s' for '%s'\n",
                       sibling.c_str(), path.c_str());
        }
      }
      designs.push_back(std::move(input));
    }
    for (const std::string& name : options.bench_names) {
      if (name == "all") {
        for (const auto& bench : benchdata::all_benchmarks())
          designs.push_back(DesignInput{bench.name, bench.astg, bench.eqn});
      } else {
        const auto& bench = benchdata::benchmark(name);
        designs.push_back(DesignInput{bench.name, bench.astg, bench.eqn});
      }
    }
    // --eqn overrides the netlist of the (single) design, wherever it came
    // from — a file or an embedded benchmark.
    if (!options.eqn_path.empty()) {
      if (designs.size() != 1) {
        std::fprintf(stderr, "error: --eqn applies to a single design\n");
        return 2;
      }
      designs[0].eqn = read_file(options.eqn_path);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  if (designs.empty()) return usage();

  const bool legacy = designs.size() == 1 && !options.json &&
                      options.bench_names.empty();
  base::ThreadPool* pool =
      options.jobs == 1 ? nullptr : &base::ThreadPool::shared();

  // One resident service per invocation: verify + derive share a
  // decomposition per design, and repeated designs (the same file listed
  // twice, a file matching an embedded benchmark) coalesce on its cache.
  svc::ServiceOptions service_options;
  service_options.jobs = options.jobs;
  service_options.pool = pool;
  svc::AnalysisService service(service_options);

  // The designs pipeline through the same pool the per-design job graphs
  // run on; results are collected per slot and printed in input order.
  std::vector<DesignOutcome> outcomes(designs.size());
  auto run_design = [&](int index) {
    outcomes[index] =
        process_design(designs[index], options, service, legacy);
  };
  if (pool == nullptr || designs.size() == 1) {
    for (int i = 0; i < static_cast<int>(designs.size()); ++i)
      run_design(i);
  } else {
    pool->parallel_for(0, static_cast<int>(designs.size()), run_design,
                       /*grain=*/1,
                       /*max_tasks=*/options.jobs);
  }

  bool all_ok = true;
  if (options.json) {
    std::printf("[\n");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const DesignOutcome& outcome = outcomes[i];
      if (outcome.ok)
        std::printf("%s", outcome.json.c_str());
      else
        std::printf("{\"design\": \"%s\", \"error\": \"%s\"}",
                    core::json_escape(designs[i].name).c_str(),
                    core::json_escape(outcome.error).c_str());
      std::printf(i + 1 < outcomes.size() ? ",\n" : "\n");
      all_ok = all_ok && outcome.ok;
    }
    std::printf("]\n");
  } else {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const DesignOutcome& outcome = outcomes[i];
      if (!legacy)
        std::printf("== %s ==\n", designs[i].name.c_str());
      if (outcome.ok)
        std::printf("%s", outcome.text.c_str());
      else if (legacy)  // byte-compatible with the original tool's stderr
        std::fprintf(stderr, "error: %s\n", outcome.error.c_str());
      else
        std::fprintf(stderr, "error: %s: %s\n", designs[i].name.c_str(),
                     outcome.error.c_str());
      if (!legacy && i + 1 < outcomes.size()) std::printf("\n");
      all_ok = all_ok && outcome.ok;
    }
  }
  return all_ok ? 0 : 1;
}

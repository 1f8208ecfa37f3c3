#include "reference.hpp"

#include <atomic>
#include <thread>

#include "jscan.hpp"
#include "replay.hpp"
#include "svc/analysis_service.hpp"

namespace perfbench {

std::vector<Expected> cold_references(const std::vector<Request>& requests,
                                      int threads) {
  sitime::svc::ServiceOptions options;
  options.cache_budget_bytes = 0;
  sitime::svc::AnalysisService service(options);
  std::vector<Expected> expected(requests.size());
  std::atomic<std::size_t> cursor{0};
  const auto work = [&] {
    for (std::size_t i = cursor++; i < requests.size(); i = cursor++) {
      const sitime::svc::AnalysisResponse response =
          service.analyze(to_analysis_request(requests[i]));
      Expected& out = expected[i];
      if (!response.ok) {
        out.error = response.error.empty() ? "cold run failed"
                                           : response.error;
        continue;
      }
      out.key = response.key;
      out.speed_independent = response.speed_independent;
      out.offender = response.verify_offender;
      if (response.canonical_json != nullptr)
        out.report = *response.canonical_json;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  return expected;
}

bool response_matches(std::string_view line, const Expected& expected,
                      std::string& why) {
  if (!expected.error.empty()) {
    why = "reference run failed: " + expected.error;
    return false;
  }
  Members fields;
  if (!object_members(line, fields)) {
    why = "malformed response";
    return false;
  }
  if (member(fields, "ok") != "true") {
    why = "not ok: " + std::string(line.substr(0, 300));
    return false;
  }
  if (string_member(fields, "key") != expected.key) {
    why = "content address differs";
    return false;
  }
  const bool si = member(fields, "speed_independent") == "true";
  if (si != expected.speed_independent ||
      string_member(fields, "offender") != expected.offender) {
    why = "speed-independence verdict differs";
    return false;
  }
  if (member(fields, "report") != expected.report) {
    why = "canonical report differs";
    return false;
  }
  return true;
}

std::pair<int, int> constraint_counts(std::string_view report) {
  Members top;
  Members constraints;
  if (!object_members(report, top) ||
      !object_members(member(top, "constraints"), constraints))
    return {-1, -1};
  return {array_length(member(constraints, "before")),
          array_length(member(constraints, "after"))};
}

}  // namespace perfbench

// The correctness gate: reference answers from in-process cold runs with
// every cache disabled, and the byte-level comparison of wire responses
// against them.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "gen.hpp"

namespace perfbench {

/// What a correct response to one request carries.
struct Expected {
  std::string key;       // content address
  bool speed_independent = false;
  std::string offender;  // first non-conformant gate, when not SI
  std::string report;    // canonical report bytes; empty for verify
  std::string error;     // non-empty when the cold run itself failed
};

/// Cold references for `requests`, computed on `threads` threads by one
/// AnalysisService with cache_budget_bytes = 0.
std::vector<Expected> cold_references(const std::vector<Request>& requests,
                                      int threads);

/// Checks one response line against its reference; on mismatch returns
/// false and says why.
bool response_matches(std::string_view line, const Expected& expected,
                      std::string& why);

/// Constraint counts (before, after) of a canonical report.
std::pair<int, int> constraint_counts(std::string_view report);

}  // namespace perfbench

// Error handling for the sitime library.
//
// All invariant violations and malformed inputs raise sitime::Error, which
// carries a human-readable message. Library code never aborts the process.
#pragma once

#include <stdexcept>
#include <string>

namespace sitime {

/// Exception type thrown for all library-level failures (malformed input
/// files, violated Petri-net invariants, inconsistent STGs, ...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message) : std::runtime_error(message) {}
};

/// Throws Error with the given message.
[[noreturn]] inline void fail(const std::string& message) {
  throw Error(message);
}

/// Throws Error with the given message when the condition does not hold.
/// The literal overload costs nothing unless the check fails; a message
/// that has to be computed belongs behind the condition instead
/// (`if (!condition) fail(...)`), so passing checks build no string.
inline void check(bool condition, const char* message) {
  if (!condition) fail(message);
}

inline void check(bool condition, const std::string& message) {
  if (!condition) fail(message);
}

}  // namespace sitime

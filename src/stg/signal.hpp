// Signals and transition labels (Section 3.3).
//
// An STG labels Petri-net transitions with signal transitions a+ / a-;
// multiple occurrences of the same signal transition are distinguished by an
// index suffix ("a-/2"). Signals are partitioned into primary inputs I,
// primary outputs O, and internal signals R.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sitime::stg {

enum class SignalKind { input, output, internal };

/// Name table for the signals of one circuit/STG; signal ids are dense and
/// shared between the STG, the netlist, the state graphs and the boolean
/// covers (cube bitmask positions).
class SignalTable {
 public:
  /// Adds a signal; names must be unique. Returns the new id.
  int add(const std::string& name, SignalKind kind);

  int count() const { return static_cast<int>(names_.size()); }
  const std::string& name(int signal) const { return names_[signal]; }
  SignalKind kind(int signal) const { return kinds_[signal]; }
  bool is_input(int signal) const {
    return kinds_[signal] == SignalKind::input;
  }

  /// Id of the named signal or -1.
  int find(const std::string& name) const;

  /// Ids of all output and internal signals (the gates of the circuit).
  std::vector<int> non_input_signals() const;

  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::vector<SignalKind> kinds_;
};

/// A labelled signal transition: a+ (rising) or a- (falling), with an
/// occurrence index >= 1 to distinguish repeats within one STG cycle.
struct TransitionLabel {
  int signal = -1;
  bool rising = true;
  int occurrence = 1;

  bool operator==(const TransitionLabel&) const = default;
  auto operator<=>(const TransitionLabel&) const = default;

  /// The opposite-direction label with the same occurrence.
  TransitionLabel opposite() const {
    return TransitionLabel{signal, !rising, occurrence};
  }
};

/// Renders e.g. "csc0-/2" ("/1" is omitted).
std::string label_text(const TransitionLabel& label, const SignalTable& table);

/// Parses "name+", "name-", "name+/2"; returns false when `text` is not a
/// transition of any declared signal (the caller then treats it as a place
/// name).
bool parse_label(const std::string& text, const SignalTable& table,
                 TransitionLabel& out);

/// The syntactic half of parse_label: splits "name+/2" into the signal
/// name (a view into `text`), the direction and the occurrence. Returns
/// false when `text` is not shaped like a label; whether the signal
/// exists is the caller's question.
bool split_label(std::string_view text, std::string_view& name,
                 bool& rising, int& occurrence);

}  // namespace sitime::stg

#include "stg/signal.hpp"

#include <algorithm>

#include "base/error.hpp"

namespace sitime::stg {

int SignalTable::add(const std::string& name, SignalKind kind) {
  check(!name.empty(), "SignalTable::add: empty name");
  if (find(name) != -1)
    fail("SignalTable::add: duplicate signal '" + name + "'");
  names_.push_back(name);
  kinds_.push_back(kind);
  return count() - 1;
}

int SignalTable::find(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  return it == names_.end() ? -1 : static_cast<int>(it - names_.begin());
}

std::vector<int> SignalTable::non_input_signals() const {
  std::vector<int> result;
  for (int s = 0; s < count(); ++s)
    if (!is_input(s)) result.push_back(s);
  return result;
}

std::string label_text(const TransitionLabel& label,
                       const SignalTable& table) {
  std::string text = table.name(label.signal);
  text += label.rising ? "+" : "-";
  if (label.occurrence != 1) {
    text += '/';
    text += std::to_string(label.occurrence);
  }
  return text;
}

bool split_label(std::string_view text, std::string_view& name,
                 bool& rising, int& occurrence) {
  std::string_view body = text;
  occurrence = 1;
  const auto slash = body.find('/');
  if (slash != std::string_view::npos) {
    const std::string_view index = body.substr(slash + 1);
    if (index.empty() ||
        index.find_first_not_of("0123456789") != std::string_view::npos)
      return false;
    occurrence = std::stoi(std::string(index));
    body = body.substr(0, slash);
  }
  if (body.size() < 2) return false;
  const char direction = body.back();
  if (direction != '+' && direction != '-') return false;
  name = body.substr(0, body.size() - 1);
  rising = direction == '+';
  return true;
}

bool parse_label(const std::string& text, const SignalTable& table,
                 TransitionLabel& out) {
  std::string_view name;
  bool rising = true;
  int occurrence = 1;
  if (!split_label(text, name, rising, occurrence)) return false;
  const int signal = table.find(std::string(name));
  if (signal == -1) return false;
  out = TransitionLabel{signal, rising, occurrence};
  return true;
}

}  // namespace sitime::stg

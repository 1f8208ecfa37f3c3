// Minimal JSON scanning for response lines: splits one object into its
// top-level members without building a tree, so the client can compare
// the raw "report" bytes against a reference and read envelope fields
// cheaply. Independent of the server's own JSON code on purpose.
#pragma once

#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Index one past the JSON value starting at `at` (whitespace skipped),
/// or npos when the text is malformed.
inline std::size_t skip_value(std::string_view text, std::size_t at) {
  constexpr std::size_t npos = std::string_view::npos;
  while (at < text.size() && (text[at] == ' ' || text[at] == '\n' ||
                              text[at] == '\t' || text[at] == '\r'))
    ++at;
  if (at >= text.size()) return npos;
  const char first = text[at];
  if (first == '"') {
    for (std::size_t i = at + 1; i < text.size(); ++i) {
      if (text[i] == '\\') {
        ++i;
      } else if (text[i] == '"') {
        return i + 1;
      }
    }
    return npos;
  }
  if (first == '{' || first == '[') {
    int depth = 0;
    for (std::size_t i = at; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '"') {
        const std::size_t end = skip_value(text, i);
        if (end == npos) return npos;
        i = end - 1;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) return i + 1;
      }
    }
    return npos;
  }
  std::size_t i = at;
  while (i < text.size() && text[i] != ',' && text[i] != '}' &&
         text[i] != ']' && text[i] != ' ' && text[i] != '\n')
    ++i;
  return i == at ? npos : i;
}

using Members = std::vector<std::pair<std::string_view, std::string_view>>;

/// Top-level members of one JSON object: (key without quotes, raw value
/// text). Returns false on malformed input.
inline bool object_members(std::string_view text, Members& out) {
  out.clear();
  std::size_t at = text.find('{');
  if (at == std::string_view::npos) return false;
  ++at;
  while (true) {
    while (at < text.size() && (text[at] == ' ' || text[at] == ',' ||
                                text[at] == '\n'))
      ++at;
    if (at >= text.size()) return false;
    if (text[at] == '}') return true;
    if (text[at] != '"') return false;
    const std::size_t key_end = skip_value(text, at);
    if (key_end == std::string_view::npos) return false;
    const std::string_view key = text.substr(at + 1, key_end - at - 2);
    at = text.find(':', key_end);
    if (at == std::string_view::npos) return false;
    const std::size_t value_start = text.find_first_not_of(" \n\t", at + 1);
    if (value_start == std::string_view::npos) return false;
    const std::size_t value_end = skip_value(text, value_start);
    if (value_end == std::string_view::npos) return false;
    out.emplace_back(key, text.substr(value_start, value_end - value_start));
    at = value_end;
  }
}

inline std::string_view member(const Members& members,
                               std::string_view key) {
  for (const auto& [name, value] : members)
    if (name == key) return value;
  return {};
}

/// A string member's raw content without its quotes (escapes kept).
inline std::string_view string_member(const Members& members,
                                      std::string_view key) {
  const std::string_view raw = member(members, key);
  if (raw.size() < 2 || raw.front() != '"') return {};
  return raw.substr(1, raw.size() - 2);
}

/// A number member's value (0 when absent).
inline double number_member(const Members& members, std::string_view key) {
  const std::string_view raw = member(members, key);
  if (raw.empty()) return 0.0;
  return std::strtod(std::string(raw).c_str(), nullptr);
}

/// Number of elements of a raw JSON array.
inline int array_length(std::string_view array) {
  if (array.size() < 2 || array.front() != '[') return -1;
  int count = 0;
  std::size_t at = 1;
  while (true) {
    while (at < array.size() && (array[at] == ' ' || array[at] == ','))
      ++at;
    if (at >= array.size()) return -1;
    if (array[at] == ']') return count;
    const std::size_t end = skip_value(array, at);
    if (end == std::string_view::npos) return -1;
    ++count;
    at = end;
  }
}

}  // namespace perfbench

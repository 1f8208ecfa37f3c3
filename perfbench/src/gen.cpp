#include "gen.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "benchdata/benchmarks.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Rng::uniform(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

bool Rng::chance(double p) {
  return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  Rng rng(seed * 0x100000001b3ULL ^ (a + 1) * 0x9e3779b97f4a7c15ULL ^
          (b + 1) * 0xc2b2ae3d27d4eb4fULL);
  return rng.next();
}

namespace {

void append_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
}

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Prefixes every identifier token of `text` that names a signal.
std::string rename_tokens(const std::string& text,
                          const std::set<std::string>& signals,
                          const std::string& prefix) {
  std::string out;
  out.reserve(text.size() + text.size() / 2);
  std::size_t i = 0;
  while (i < text.size()) {
    if (!is_name_char(text[i])) {
      out += text[i++];
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && is_name_char(text[end])) ++end;
    const std::string token = text.substr(i, end - i);
    if (signals.count(token) != 0) out += prefix;
    out += token;
    i = end;
  }
  return out;
}

}  // namespace

std::string request_line(const Request& request) {
  std::string line = "{\"design\":{\"name\":\"";
  append_escaped(line, request.design.name);
  line += "\",\"astg\":\"";
  append_escaped(line, request.design.astg);
  line += "\"";
  if (!request.design.eqn.empty()) {
    line += ",\"eqn\":\"";
    append_escaped(line, request.design.eqn);
    line += "\"";
  }
  line += "}";
  if (request.verify) line += ",\"mode\":\"verify\"";
  line += "}";
  return line;
}

Design ring_design(int signals, const std::string& prefix) {
  std::vector<std::string> s;
  for (int i = 0; i < signals; ++i)
    s.push_back(prefix + "s" + std::to_string(i));
  std::vector<std::string> order;
  for (const auto& name : s) order.push_back(name + "+");
  for (const auto& name : s) order.push_back(name + "-");
  Design design;
  design.name = prefix + "ring" + std::to_string(signals);
  std::string& g = design.astg;
  g = ".model ring" + std::to_string(signals) + "\n.inputs " + s[0] +
      "\n.outputs";
  for (int i = 1; i < signals; ++i) g += " " + s[i];
  g += "\n.graph\n";
  for (std::size_t i = 0; i < order.size(); ++i)
    g += order[i] + " " + order[(i + 1) % order.size()] + "\n";
  g += ".marking { <" + order.back() + "," + order.front() + "> }\n.end\n";
  for (int i = 1; i < signals; ++i)
    design.eqn += s[i] + " = " + s[i - 1] + ";\n";
  return design;
}

Design muller_design(int stages, const std::string& prefix) {
  // c[0] = r (input request), c[1..n] = C-elements, c[n+1] = a (input
  // acknowledge). Stage i rises after its predecessor rose and its
  // successor fell, and falls after its predecessor fell and its
  // successor rose; everything starts low.
  std::vector<std::string> c;
  c.push_back(prefix + "r");
  for (int i = 1; i <= stages; ++i)
    c.push_back(prefix + "c" + std::to_string(i));
  c.push_back(prefix + "a");
  const int n = stages;
  std::vector<std::pair<std::string, std::string>> arcs;
  for (int i = 1; i <= n; ++i) {
    arcs.emplace_back(c[i - 1] + "+", c[i] + "+");
    arcs.emplace_back(c[i - 1] + "-", c[i] + "-");
    arcs.emplace_back(c[i + 1] + "-", c[i] + "+");
    arcs.emplace_back(c[i + 1] + "+", c[i] + "-");
  }
  arcs.emplace_back(c[1] + "+", c[0] + "-");
  arcs.emplace_back(c[1] + "-", c[0] + "+");
  arcs.emplace_back(c[n] + "+", c[n + 1] + "+");
  arcs.emplace_back(c[n] + "-", c[n + 1] + "-");
  Design design;
  design.name = prefix + "muller" + std::to_string(stages);
  std::string& g = design.astg;
  g = ".model muller" + std::to_string(stages) + "\n.inputs " + c[0] + " " +
      c[n + 1] + "\n.outputs";
  for (int i = 1; i <= n; ++i) g += " " + c[i];
  g += "\n.graph\n";
  for (const auto& [from, to] : arcs) g += from + " " + to + "\n";
  g += ".marking {";
  for (int i = 0; i <= n; ++i) g += " <" + c[i + 1] + "-," + c[i] + "+>";
  g += " }\n.end\n";
  return design;
}

std::vector<std::string> signal_names(const std::string& astg) {
  std::vector<std::string> names;
  std::istringstream in(astg);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string directive;
    words >> directive;
    if (directive != ".inputs" && directive != ".outputs" &&
        directive != ".internal" && directive != ".dummy")
      continue;
    std::string name;
    while (words >> name) names.push_back(name);
  }
  return names;
}

Design rename_design(const Design& design, const std::string& prefix) {
  const std::vector<std::string> names = signal_names(design.astg);
  const std::set<std::string> signals(names.begin(), names.end());
  Design renamed;
  renamed.name = prefix + design.name;
  std::istringstream in(design.astg);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(".model", 0) == 0)
      renamed.astg += line;  // the model name is not a signal
    else
      renamed.astg += rename_tokens(line, signals, prefix);
    renamed.astg += "\n";
  }
  renamed.eqn = rename_tokens(design.eqn, signals, prefix);
  return renamed;
}

std::vector<std::string> gate_names(const std::string& eqn) {
  std::vector<std::string> names;
  std::istringstream in(eqn);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find(" = ");
    if (eq != std::string::npos) names.push_back(line.substr(0, eq));
  }
  return names;
}

std::string duplicate_first_cube(const std::string& eqn,
                                 const std::string& gate, int copies) {
  const std::string lhs = gate + " = ";
  std::size_t at = eqn.rfind(lhs, 0) == 0 ? 0 : std::string::npos;
  if (at == std::string::npos) {
    at = eqn.find("\n" + lhs);
    if (at == std::string::npos) return eqn;
    ++at;
  }
  const std::size_t rhs = at + lhs.size();
  std::size_t end = eqn.find('+', rhs);
  const std::size_t semi = eqn.find(';', rhs);
  if (end == std::string::npos || semi < end) end = semi;
  std::string first = eqn.substr(rhs, end - rhs);
  while (!first.empty() && first.back() == ' ') first.pop_back();
  std::string inserted;
  for (int c = 0; c < copies; ++c) inserted += first + " + ";
  std::string edited = eqn;
  edited.insert(rhs, inserted);
  return edited;
}

std::vector<Design> suite_designs() {
  std::vector<Design> designs;
  for (const auto& bench : sitime::benchdata::all_benchmarks())
    designs.push_back(Design{bench.name, bench.astg, bench.eqn});
  return designs;
}

SuiteStream::SuiteStream(std::uint64_t seed) {
  for (const Design& design : suite_designs())
    for (const bool verify : {false, true}) {
      Request request;
      request.design = design;
      request.verify = verify;
      request.family = "suite";
      requests_.push_back(request);
      lines_.push_back(request_line(request));
    }
  for (int c = 0; c < kConnections; ++c)
    rngs_.emplace_back(stream_seed(seed, 1, static_cast<std::uint64_t>(c)));
}

int SuiteStream::next(int conn) {
  Rng& rng = rngs_[static_cast<std::size_t>(conn)];
  const int design = rng.uniform(0, static_cast<int>(lines_.size() / 2) - 1);
  const bool verify = rng.chance(0.2);
  return design * 2 + (verify ? 1 : 0);
}

Deck::Deck(std::vector<int> cards, std::uint64_t seed)
    : cards_(std::move(cards)), next_(cards_.size()), rng_(seed) {}

int Deck::draw() {
  if (next_ == cards_.size()) {
    for (std::size_t i = cards_.size() - 1; i > 0; --i)
      std::swap(cards_[i], cards_[static_cast<std::size_t>(
                               rng_.uniform(0, static_cast<int>(i)))]);
    next_ = 0;
  }
  return cards_[next_++];
}

namespace {

std::vector<int> range(int lo, int hi) {
  std::vector<int> values;
  for (int v = lo; v <= hi; ++v) values.push_back(v);
  return values;
}

/// 0 = ring, 1 = Muller pipeline, 2 = bundled design, kFamilyWeights each.
std::vector<int> family_cards() {
  std::vector<int> cards;
  for (int family = 0; family < 3; ++family)
    cards.insert(cards.end(), static_cast<std::size_t>(kFamilyWeights[family]),
                 family);
  return cards;
}

}  // namespace

FamiliesStream::FamiliesStream(std::uint64_t seed)
    : seed_(seed), suite_(suite_designs()) {
  for (int c = 0; c < kConnections; ++c) {
    const auto stream = [&](std::uint64_t label) {
      return stream_seed(seed, 2, static_cast<std::uint64_t>(c) * 8 + label);
    };
    connections_.push_back(Connection{
        Deck(family_cards(), stream(0)),
        Deck(range(8, 48), stream(1)), Deck(range(4, 10), stream(2)),
        Deck(range(0, static_cast<int>(suite_.size()) - 1), stream(3))});
  }
}

Request FamiliesStream::next(int conn) {
  Connection& c = connections_[static_cast<std::size_t>(conn)];
  // Unique per (seed, connection, request): the server never saw it.
  const std::string prefix = "q" + std::to_string(seed_ % 100000) + "c" +
                             std::to_string(conn) + "n" +
                             std::to_string(c.issued++) + "_";
  Request request;
  switch (c.family.draw()) {
    case 0:
      request.family = "ring";
      request.design = ring_design(c.ring.draw(), prefix);
      break;
    case 1:
      request.family = "muller";
      request.design = muller_design(c.muller.draw(), prefix);
      break;
    default:
      request.family = "suite";
      request.design = rename_design(
          suite_[static_cast<std::size_t>(c.suite.draw())], prefix);
  }
  return request;
}

std::vector<Design> editor_bases() {
  using namespace sitime;
  std::vector<Design> bases;
  for (const char* name :
       {"imec-ram-read-sbuf", "trimos-send", "mp-forward-pkt"}) {
    const benchdata::Benchmark& bench = benchdata::benchmark(name);
    std::string eqn = bench.eqn;
    if (eqn.empty()) {
      const stg::Stg stg = benchdata::load_stg(bench);
      eqn = benchdata::load_circuit(bench, stg).to_eqn();
    }
    bases.push_back(Design{bench.name, bench.astg, eqn});
  }
  bases.push_back(ring_design(32));
  return bases;
}

std::vector<Edit> edit_space(const Design& base) {
  std::vector<Edit> space;
  const int gates = static_cast<int>(gate_names(base.eqn).size());
  for (int g = 0; g < gates; ++g)
    for (int k = 1; k <= kMaxEditCopies; ++k) space.push_back(Edit{g, k});
  return space;
}

Request edit_request(const Design& base, const Edit& edit) {
  const std::vector<std::string> gates = gate_names(base.eqn);
  Request request;
  request.family = "edit";
  request.design.name = base.name;
  request.design.astg = base.astg;
  request.design.eqn = duplicate_first_cube(
      base.eqn, gates[static_cast<std::size_t>(edit.gate)], edit.copies);
  return request;
}

std::vector<int> permutation(int n, std::uint64_t seed) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng rng(seed);
  for (int i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform(0, i))]);
  return order;
}

}  // namespace perfbench

#include "boolfn/eqn.hpp"

#include <sstream>

#include "base/error.hpp"
#include "base/strings.hpp"

namespace sitime::boolfn {

namespace {

Cube parse_cube(const std::string& text, const NameResolver& resolve) {
  Cube cube;
  for (const std::string& raw : base::split(text, "*")) {
    std::string name = base::trim(raw);
    if (name.empty())
      fail("parse_eqn: empty literal in cube '" + text + "'");
    bool phase = true;
    if (base::ends_with(name, "'")) {
      phase = false;
      name = name.substr(0, name.size() - 1);
    }
    const int var = resolve(name);
    if (var < 0) fail("parse_eqn: unknown signal '" + name + "'");
    check(var < kMaxVariables, "parse_eqn: variable id out of range");
    const Cube literal = Cube::literal(var, phase);
    if (cube.has_literal(var, !phase))
      fail("parse_eqn: contradictory literals on '" + name + "'");
    cube.pos |= literal.pos;
    cube.neg |= literal.neg;
  }
  check(cube.support() != 0, "parse_eqn: empty cube");
  return cube;
}

}  // namespace

std::vector<Equation> parse_eqn(const std::string& text,
                                const NameResolver& resolve) {
  std::vector<Equation> equations;
  std::istringstream stream(text);
  std::string line;
  std::string pending;
  while (std::getline(stream, line)) {
    line = base::trim(line);
    if (line.empty() || line[0] == '#') continue;
    pending += " " + line;
    // Equations are ';'-terminated and may span lines.
    auto semi = pending.find(';');
    while (semi != std::string::npos) {
      const std::string statement = base::trim(pending.substr(0, semi));
      pending = pending.substr(semi + 1);
      if (!statement.empty()) {
        const auto eq = statement.find('=');
        if (eq == std::string::npos)
          fail("parse_eqn: missing '=' in '" + statement + "'");
        const std::string lhs = base::trim(statement.substr(0, eq));
        const std::string rhs = base::trim(statement.substr(eq + 1));
        check(!lhs.empty(), "parse_eqn: empty left-hand side");
        check(rhs.find('(') == std::string::npos &&
                  rhs.find(')') == std::string::npos,
              "parse_eqn: brackets are not allowed in the restricted format");
        Equation equation;
        equation.output = resolve(lhs);
        if (equation.output < 0)
          fail("parse_eqn: unknown output '" + lhs + "'");
        for (const std::string& cube_text : base::split(rhs, "+"))
          equation.cover.cubes.push_back(parse_cube(cube_text, resolve));
        if (equation.cover.cubes.empty())
          fail("parse_eqn: empty right-hand side in '" + statement + "'");
        equations.push_back(equation);
      }
      semi = pending.find(';');
    }
  }
  if (!base::trim(pending).empty())
    fail("parse_eqn: trailing text without ';': '" + base::trim(pending) + "'");
  return equations;
}

std::string write_eqn(const std::vector<Equation>& equations,
                      const std::vector<std::string>& names) {
  std::string out;
  for (const Equation& equation : equations) {
    check(equation.output >= 0 &&
              equation.output < static_cast<int>(names.size()),
          "write_eqn: output variable unnamed");
    out += names[equation.output] + " = ";
    for (std::size_t i = 0; i < equation.cover.cubes.size(); ++i) {
      if (i > 0) out += " + ";
      out += to_string(equation.cover.cubes[i], names);
    }
    out += ";\n";
  }
  return out;
}

}  // namespace sitime::boolfn

#include "circuit/circuit.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "boolfn/qm.hpp"

namespace sitime::circuit {

Circuit::Circuit(const stg::SignalTable* signals) : signals_(signals) {
  check(signals != nullptr, "Circuit: null signal table");
  gate_index_.assign(signals->count(), -1);
}

void Circuit::add_gate(Gate gate) {
  check(gate.output >= 0 && gate.output < signals_->count(),
        "Circuit::add_gate: bad output signal");
  check(!signals_->is_input(gate.output),
        "Circuit::add_gate: input signal cannot own a gate");
  if (gate_index_[gate.output] != -1)
    fail("Circuit::add_gate: duplicate gate for '" +
         signals_->name(gate.output) + "'");
  // Fan-ins: union support of the two covers minus the output itself.
  const std::uint64_t support =
      (gate.up.support() | gate.down.support()) &
      ~(std::uint64_t{1} << gate.output);
  gate.fanins = boolfn::support_variables(support);
  gate_index_[gate.output] = static_cast<int>(gates_.size());
  gates_.push_back(std::move(gate));
}

Circuit Circuit::from_synthesis(const stg::SignalTable* signals,
                                const std::vector<synth::GateFunctions>& fns) {
  Circuit circuit(signals);
  for (const synth::GateFunctions& fn : fns) {
    Gate gate;
    gate.output = fn.output;
    gate.up = fn.up;
    gate.down = fn.down;
    circuit.add_gate(std::move(gate));
  }
  return circuit;
}

Circuit Circuit::from_equations(const stg::SignalTable* signals,
                                const std::string& eqn_text) {
  Circuit circuit(signals);
  const auto resolve = [signals](const std::string& name) {
    return signals->find(name);
  };
  for (const boolfn::Equation& equation :
       boolfn::parse_eqn(eqn_text, resolve)) {
    Gate gate;
    gate.output = equation.output;
    gate.up = equation.cover;
    gate.down = boolfn::complement_cover(gate.up);
    circuit.add_gate(std::move(gate));
  }
  for (int s = 0; s < signals->count(); ++s)
    if (!signals->is_input(s) && !circuit.has_gate(s))
      fail("Circuit::from_equations: no equation for non-input signal '" +
           signals->name(s) + "'");
  return circuit;
}

const Gate& Circuit::gate_for(int signal) const {
  check(signal >= 0 && signal < signals_->count() &&
            gate_index_[signal] != -1,
        "Circuit::gate_for: no gate for signal");
  return gates_[gate_index_[signal]];
}

bool Circuit::has_gate(int signal) const {
  return signal >= 0 && signal < signals_->count() &&
         gate_index_[signal] != -1;
}

std::vector<Wire> Circuit::wires() const {
  std::vector<Wire> result;
  for (const Gate& gate : gates_)
    for (int source : gate.fanins)
      result.push_back(Wire{source, gate.output});
  return result;
}

int Circuit::fanout(int signal) const {
  int count = 0;
  for (const Gate& gate : gates_)
    if (std::find(gate.fanins.begin(), gate.fanins.end(), signal) !=
        gate.fanins.end())
      ++count;
  return count;
}

std::vector<bool> Circuit::local_signal_mask(int signal) const {
  const Gate& gate = gate_for(signal);
  std::vector<bool> mask(signals_->count(), false);
  mask[signal] = true;
  for (int fanin : gate.fanins) mask[fanin] = true;
  return mask;
}

std::string Circuit::to_eqn() const {
  std::vector<boolfn::Equation> equations;
  for (const Gate& gate : gates_)
    equations.push_back(boolfn::Equation{gate.output, gate.up});
  return boolfn::write_eqn(equations, signals_->names());
}

}  // namespace sitime::circuit

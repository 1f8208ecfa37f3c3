#include "benchdata/benchmarks.hpp"

#include <utility>

#include "base/error.hpp"
#include "sg/state_graph.hpp"
#include "stg/astg.hpp"
#include "synth/synthesis.hpp"

namespace sitime::benchdata {

namespace {

// Verbatim from Section 7.3.1 of the thesis.
const char* const kImecRamReadSbufStg = R"(.model imec-ram-read-sbuf
.inputs req precharged prnotin wenin wsldin
.outputs ack wsen prnot wen wsld
.internal csc0 map0 i0 i2 i4 i8
.graph
req+ i4+
i4+ prnot+
prnot+ prnotin+
precharged+ prnot+
prnotin+ wen+
wen+ precharged- wenin+
precharged- i0-
i0- ack+
wenin+ i0-
ack+ req-
req- i8+ wen-
i8+ csc0-
wen- wenin-
wsen- wenin-
wenin- wsld+ i4- i0+
i0+ ack-
i4- prnot-
wsld+ wsldin+ precharged+
wsldin+ csc0+
prnot- prnotin- precharged+
prnotin- i8-
i8- csc0+
wsld- wsldin-
wsldin- wsen+ map0+
ack- req+
wsen+ req+
csc0+ wsld- i2-
i2- wsen+
csc0- map0-
map0+ ack-
map0- i2+
i2+ wsen-
.marking { <i4+,prnot+> <precharged+,prnot+> }
.end
)";

// Verbatim from Section 7.3.1 of the thesis.
const char* const kImecRamReadSbufEqn = R"(i0 = precharged + wenin';
ack = i0' + map0';
i2 = csc0' * map0';
wsen = wsldin' * i2';
i4 = wenin + req;
prnot = i4*precharged + i4*prnot + precharged*prnot;
wen = req * prnotin;
wsld = wenin' * csc0';
i8 = req' * prnotin;
csc0 = i8' * wsldin + i8' * csc0;
map0 = wsldin' * csc0;
)";

// FIFO controller in the spirit of chu150 (Figure 7.1): input handshake
// Ri/Ai, output handshake Ro/Ao, latch enable L acknowledged by the latch
// done indicator D. The latch opens on an input request, the captured data
// is offered downstream, and the stage recovers concurrently on both sides.
const char* const kFifoStg = R"(.model fifo
.inputs Ri D Ao
.outputs Ai Ro L
.graph
Ri+ L+
D- L+
D- Ri+
Ao- L+
L+ D+
D+ Ai+
D+ Ro+
Ao- Ro+
Ai+ Ri-
Ri- Ai-
Ai- Ri+
Ri- L-
Ao+ L-
L- D-
Ro+ Ao+
Ao+ Ro-
Ro- Ao-
D- Ao-
.marking { <Ai-,Ri+> <D-,Ri+> <D-,L+> <Ao-,L+> <Ao-,Ro+> }
.end
)";

// A/D converter front-end control (adfast reconstruction): sample, compare,
// latch the result; the sample/comparator reset runs concurrently with the
// result-latch recovery.
const char* const kAdfastStg = R"(.model adfast
.inputs go cmp la
.outputs sa lr d
.graph
go+ sa+
sa+ cmp+
cmp+ lr+
lr+ la+
la+ d+
d+ go-
go- sa-
sa- cmp-
d+ lr-
lr- la-
cmp- d-
la- d-
d- go+
.marking { <d-,go+> }
.end
)";

// A/D successive-approximation step (atod reconstruction): a free-choice
// decision between comparator outcomes c0/c1 selects which done rail d0/d1
// answers; the two branches merge before the next request.
const char* const kAtodStg = R"(.model atod
.inputs r c0 c1
.outputs s d0 d1
.graph
r+ s+
s+ pc
pc c0+
pc c1+
c0+ d0+
d0+ r-
r- s-
r- c0-
s- d0-
c0- d0-
d0- pm
c1+ d1+
d1+ r-/2
r-/2 s-/2
r-/2 c1-
s-/2 d1-
c1- d1-
d1- pm
pm r+
.marking { pm }
.end
)";

// Two-request join (chu133 reconstruction): x is a C-element join of the a
// and b handshakes, gated by a private y/z/c handshake chain.
const char* const kChu133Stg = R"(.model chu133
.inputs a b c
.outputs x y z
.graph
a+ x+
b+ x+
z- x+
x+ a-
x+ b-
x+ c+
c+ y+
y+ z+
z+ c-
c- y-
a- x-
b- x-
z+ x-
x- a+
x- b+
x- z-
y- z-
.marking { <x-,a+> <x-,b+> <z-,x+> }
.end
)";

// Handshake converter (converta reconstruction): port 1 is r/q, port 2 is
// b/a, with an internal state signal c sequencing the port-2 recovery.
const char* const kConvertaStg = R"(.model converta
.inputs r a
.outputs b q c
.graph
r+ b+
a- b+
c- b+
b+ a+
a+ q+
q+ r-
q+ c+
c+ b-
b- a-
a- c-
r- q-
q- r+
a- r+
.marking { <q-,r+> <a-,r+> <a-,b+> <c-,b+> }
.end
)";

// Ebergen-style pipeline element: the join c opens the q strobe, the
// downstream ack a drives the toggle stage t which closes c again.
const char* const kEbergenStg = R"(.model ebergen
.inputs r a
.outputs c q t
.graph
r+ c+
t- c+
c+ q+
q+ a+
a+ t+
a+ r-
r- c-
t+ c-
r- q-
q- a-
a- t-
c- t-
t- r+
.marking { <t-,r+> <t-,c+> }
.end
)";

// NAK/packet-accept controller (imec-nak-pa reconstruction): a two-way fork
// joined by y, then a sequential n/d handshake guarded by the state signal
// c (which also recloses n).
const char* const kImecNakPaStg = R"(.model imec-nak-pa
.inputs r a1 a2 d
.outputs x1 x2 y n c
.graph
r+ x1+
r+ x2+
x1+ a1+
x2+ a2+
a1+ y+
a2+ y+
y+ n+
n+ d+
d+ c+
c+ n-
n- d-
d- r-
r- x1-
r- x2-
x1- a1-
x2- a2-
a1- y-
a2- y-
y- c-
c- r+
.marking { <c-,r+> }
.end
)";

// Sender buffer read control (imec-sbuf-read-ctl reconstruction): upstream
// r, strobe s, downstream q/a, state c, completion p; the input-side and
// state-side recoveries run concurrently and rejoin at p-.
const char* const kImecSbufReadCtlStg = R"(.model imec-sbuf-read-ctl
.inputs r a
.outputs s q c p
.graph
r+ s+
s+ q+
q+ a+
a+ c+
c+ p+
p+ r-
r- s-
s- q-
q- a-
r- c-
c- p-
a- p-
p- r+
.marking { <p-,r+> }
.end
)";

// Packet-forwarding control (mp-forward-pkt reconstruction): fork/join via
// y, a forward pulse z closed by the state signal c.
const char* const kMpForwardPktStg = R"(.model mp-forward-pkt
.inputs r a1 a2
.outputs x1 x2 y z c
.graph
r+ x1+
r+ x2+
x1+ a1+
x2+ a2+
a1+ y+
a2+ y+
y+ z+
z+ c+
c+ z-
z- r-
r- x1-
r- x2-
x1- a1-
x2- a2-
a1- y-
a2- y-
y- c-
c- r+
.marking { <c-,r+> }
.end
)";

// Mode-select controller (nowick reconstruction): a free choice between
// mode rails m0/m1 picks which of the two result signals z/w answers.
const char* const kNowickStg = R"(.model nowick
.inputs r m0 m1
.outputs y z w
.graph
r+ y+
y+ pc
pc m0+
pc m1+
m0+ z+
z+ r-
r- y-
r- m0-
y- z-
m0- z-
z- pm
m1+ w+
w+ r-/2
r-/2 y-/2
r-/2 m1-
y-/2 w-
m1- w-
w- pm
pm r+
.marking { pm }
.end
)";

// Memory send controller (trimos-send reconstruction): fork/join, a pulse
// stage z, and a two-deep state tail c/w rejoining before the next cycle.
const char* const kTrimosSendStg = R"(.model trimos-send
.inputs r a1 a2
.outputs x1 x2 y z c w
.graph
r+ x1+
r+ x2+
x1+ a1+
x2+ a2+
a1+ y+
a2+ y+
y+ z+
z+ c+
c+ z-
c+ w+
w+ r-
r- x1-
r- x2-
x1- a1-
x2- a2-
a1- y-
a2- y-
y- w-
z- w-
w- c-
c- r+
.marking { <c-,r+> }
.end
)";

// VME-bus style element (vbe5c reconstruction): dsr/dtack bus handshake
// wrapping an lds/ldtack device handshake whose release overlaps the next
// bus cycle.
const char* const kVbe5cStg = R"(.model vbe5c
.inputs dsr ldtack
.outputs lds d dtack
.graph
dsr+ lds+
ldtack- lds+
lds+ ldtack+
ldtack+ d+
d+ dtack+
dtack+ dsr-
dsr- d-
d- dtack-
d- lds-
lds- ldtack-
dtack- dsr+
lds- dsr+
.marking { <dtack-,dsr+> <lds-,dsr+> <ldtack-,lds+> }
.end
)";

std::vector<Benchmark> build_suite() {
  std::vector<Benchmark> suite;
  suite.push_back({"adfast", kAdfastStg, ""});
  suite.push_back({"atod", kAtodStg, ""});
  suite.push_back({"chu133", kChu133Stg, ""});
  suite.push_back({"converta", kConvertaStg, ""});
  suite.push_back({"ebergen", kEbergenStg, ""});
  suite.push_back({"fifo", kFifoStg, ""});
  suite.push_back({"imec-nak-pa", kImecNakPaStg, ""});
  suite.push_back(
      {"imec-ram-read-sbuf", kImecRamReadSbufStg, kImecRamReadSbufEqn});
  suite.push_back({"imec-sbuf-read-ctl", kImecSbufReadCtlStg, ""});
  suite.push_back({"mp-forward-pkt", kMpForwardPktStg, ""});
  suite.push_back({"nowick", kNowickStg, ""});
  suite.push_back({"trimos-send", kTrimosSendStg, ""});
  suite.push_back({"vbe5c", kVbe5cStg, ""});
  return suite;
}

}  // namespace

const std::vector<Benchmark>& all_benchmarks() {
  static const std::vector<Benchmark> suite = build_suite();
  return suite;
}

const Benchmark& benchmark(const std::string& name) {
  for (const Benchmark& bench : all_benchmarks())
    if (bench.name == name) return bench;
  fail("benchmark: unknown benchmark '" + name + "'");
}

Benchmark ring_design(int signals) {
  check(signals >= 2, "ring_design: needs at least two signals");
  std::vector<std::string> s;
  // (Appending, not "s" + to_string(i): gcc 12 misreports that as
  // -Wrestrict.)
  for (int i = 0; i < signals; ++i)
    s.push_back(std::string("s").append(std::to_string(i)));
  std::vector<std::string> order;
  for (const auto& name : s) order.push_back(name + "+");
  for (const auto& name : s) order.push_back(name + "-");
  Benchmark bench;
  bench.name = "ring" + std::to_string(signals);
  std::string& g = bench.astg;
  g = ".model " + bench.name + "\n.inputs " + s[0] + "\n.outputs";
  for (int i = 1; i < signals; ++i) g += " " + s[i];
  g += "\n.graph\n";
  for (std::size_t i = 0; i < order.size(); ++i)
    g += order[i] + " " + order[(i + 1) % order.size()] + "\n";
  g += ".marking { <" + order.back() + "," + order.front() + "> }\n.end\n";
  for (int i = 1; i < signals; ++i)
    bench.eqn += s[i] + " = " + s[i - 1] + ";\n";
  return bench;
}

Benchmark muller_pipeline(int stages) {
  check(stages >= 1, "muller_pipeline: needs at least one stage");
  // c[0] = r, c[1..n] = the C-elements, c[n+1] = a.
  std::vector<std::string> c{"r"};
  for (int i = 1; i <= stages; ++i)
    c.push_back(std::string("c").append(std::to_string(i)));
  c.push_back("a");
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
  Benchmark bench;
  bench.name = "muller" + std::to_string(stages);
  std::string& g = bench.astg;
  g = ".model " + bench.name + "\n.inputs " + c[0] + " " + c[n + 1] +
      "\n.outputs";
  for (int i = 1; i <= n; ++i) g += " " + c[i];
  g += "\n.graph\n";
  for (const auto& [from, to] : arcs) g += from + " " + to + "\n";
  g += ".marking {";
  for (int i = 0; i <= n; ++i) g += " <" + c[i + 1] + "-," + c[i] + "+>";
  g += " }\n.end\n";
  return bench;
}

stg::Stg load_stg(const Benchmark& bench) {
  return stg::parse_astg(bench.astg);
}

circuit::Circuit load_circuit(const Benchmark& bench, const stg::Stg& stg) {
  if (!bench.eqn.empty())
    return circuit::Circuit::from_equations(&stg.signals, bench.eqn);
  const sg::GlobalSg global = sg::build_global_sg(stg);
  return circuit::Circuit::from_synthesis(&stg.signals,
                                          synth::synthesize(stg, global));
}

}  // namespace sitime::benchdata

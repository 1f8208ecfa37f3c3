// Seeded request generators for the perfbench workloads.
//
// Every request the benchmark sends is inline design text built here from
// the run's seed: the bundled suite, n-signal rings, n-stage Muller
// C-element pipelines, per-request signal renaming, and the bounded
// single-gate edit stream of the editor loop. The same seed always yields
// the same request bytes (checked by the self-tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  int uniform(int lo, int hi);
  /// True with probability `p`.
  bool chance(double p);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a run seed and stream labels.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

struct Design {
  std::string name;
  std::string astg;
  std::string eqn;  // empty = the server synthesizes the netlist
};

struct Request {
  Design design;
  bool verify = false;  // mode "verify" instead of "derive"
  std::string family;   // "suite", "ring", "muller" or "edit"
};

/// The NDJSON request line (no trailing newline).
std::string request_line(const Request& request);

/// Ring of n signals s0..s(n-1) with one token: s0+ -> ... -> s(n-1)+ ->
/// s0- -> ... -> s(n-1)- -> s0+. s0 is the environment's input; every
/// other signal is a buffer of its predecessor (netlist included).
Design ring_design(int signals, const std::string& prefix = "");

/// Muller C-element pipeline of `stages` stages between an input request
/// r and an input acknowledge a; sent without a netlist, so the server
/// synthesizes the C-elements.
Design muller_design(int stages, const std::string& prefix = "");

/// Prefixes every signal name of the design (STG and netlist) with
/// `prefix`, so the server has never seen the result.
Design rename_design(const Design& design, const std::string& prefix);

/// Signal names declared by the STG (.inputs/.outputs/.internal/.dummy).
std::vector<std::string> signal_names(const std::string& astg);

/// Output names of a netlist, in equation order.
std::vector<std::string> gate_names(const std::string& eqn);

/// The editor edit: duplicates the first cube of `gate`'s equation
/// `copies` times. The gate's function is unchanged; its text is not.
std::string duplicate_first_cube(const std::string& eqn,
                                 const std::string& gate, int copies);

/// The 13 bundled designs with their embedded text.
std::vector<Design> suite_designs();

// ---- workloads ------------------------------------------------------------

constexpr int kConnections = 4;

/// suite_warm: a seeded draw over the 13 bundled designs, 80% derive and
/// 20% verify. Request j of connection c is a pure function of
/// (seed, c, j).
class SuiteStream {
 public:
  explicit SuiteStream(std::uint64_t seed);
  /// Index into lines() of the next request of connection `conn`.
  int next(int conn);
  /// The 26 distinct request lines (13 designs x 2 modes).
  const std::vector<std::string>& lines() const { return lines_; }
  const std::vector<Request>& requests() const { return requests_; }

 private:
  std::vector<Request> requests_;
  std::vector<std::string> lines_;
  std::vector<Rng> rngs_;
};

/// Draws without replacement from a fixed multiset, reshuffling it each
/// time it runs out: every full pass has the same composition, so runs
/// with different seeds see the same mix in a different order.
class Deck {
 public:
  Deck(std::vector<int> cards, std::uint64_t seed);
  int draw();

 private:
  std::vector<int> cards_;
  std::size_t next_ = 0;
  Rng rng_;
};

/// families_cold's mix, in deck cards per family: ring, Muller pipeline,
/// renamed bundled design. The weights are set so that each family takes
/// about a third of the server's time, so the ring growth, synthesis and
/// the bundled designs' decomposition weigh alike in the timed figures.
/// They come from the mean server time per request of each family, as
/// the families_cold run notes it: ring 27.1 ms, Muller 32.2 ms, bundled
/// 1.75 ms (medians over seven 20 s runs; Release build, 4-vCPU x86-64
/// VM, 4 connections). Weights 7 : 6 : 110 give 189 : 193 : 192 ms of
/// server time per pass of the deck.
constexpr int kFamilyWeights[3] = {7, 6, 110};

/// families_cold: every request is a design never seen before — a ring
/// of 8..48 signals, a 4..10-stage Muller pipeline without netlist, or a
/// bundled design, in the proportions of kFamilyWeights, each renamed
/// with a per-request prefix. Families and sizes are dealt from decks, so
/// the mix is the same for every seed.
class FamiliesStream {
 public:
  explicit FamiliesStream(std::uint64_t seed);
  Request next(int conn);

 private:
  struct Connection {
    Deck family, ring, muller, suite;
    int issued = 0;
  };
  std::uint64_t seed_;
  std::vector<Design> suite_;
  std::vector<Connection> connections_;
};

/// editor_loop base designs: imec-ram-read-sbuf, trimos-send and
/// mp-forward-pkt (netlists synthesized in-process for the two without
/// one) and a ring-32 with its explicit netlist — one per connection.
std::vector<Design> editor_bases();

/// Largest number of duplicated cubes one edit adds. An edit's cost
/// grows only slightly with its copies (32 copies cost 3-8% more than
/// one); a larger space makes the editor loop's epochs longer
/// (mp-forward-pkt's 5 gates give 160 edits), so fewer server restarts
/// fall in a run.
constexpr int kMaxEditCopies = 32;

/// The bounded edit space of one base: every (gate, copies) pair with
/// copies in 1..kMaxEditCopies, in a fixed order.
struct Edit {
  int gate = 0;
  int copies = 0;
};
std::vector<Edit> edit_space(const Design& base);

/// The edited request for `edit` of `base`.
Request edit_request(const Design& base, const Edit& edit);

/// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<int> permutation(int n, std::uint64_t seed);

}  // namespace perfbench

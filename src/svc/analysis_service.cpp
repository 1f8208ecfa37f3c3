#include "svc/analysis_service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/error.hpp"
#include "benchdata/benchmarks.hpp"
#include "core/artifact_codec.hpp"
#include "stg/astg.hpp"
#include "svc/footprint.hpp"

namespace sitime::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Wire error class of a flow failure. CancelledError maps to the two
/// cancellation codes; everything else (parse errors excepted — those are
/// classified at the call site) is an analysis error, injected faults
/// included.
const char* error_code_of(const std::exception& exception) {
  if (const auto* cancelled =
          dynamic_cast<const base::CancelledError*>(&exception))
    return cancelled->deadline_exceeded() ? "deadline_exceeded"
                                          : "cancelled";
  return "analysis_error";
}

/// FNV-1a 64 over the canonical content, rendered as 16 hex digits — the
/// public content-address. The cache map itself is keyed on the full
/// canonical string, so hash collisions cannot alias two designs.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  char out[17];
  static const char digits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = digits[hash & 0xf];
    hash >>= 4;
  }
  out[16] = '\0';
  return out;
}

/// Hash of a request's raw design spelling, the front-index slot key. The
/// two texts are hashed apart with the astg length mixed in, so bytes
/// moved across the astg/eqn boundary change the hash; a slot is trusted
/// only after a byte compare of both texts anyway.
std::uint64_t spelling_hash(const std::string& astg, const std::string& eqn) {
  const std::hash<std::string> hash;
  std::uint64_t mixed = hash(astg);
  mixed ^= astg.size() + 0x9e3779b97f4a7c15ull + (mixed << 6) + (mixed >> 2);
  mixed ^= hash(eqn) + 0x9e3779b97f4a7c15ull + (mixed << 6) + (mixed >> 2);
  return mixed;
}

/// State codes pack one bit per signal into a 64-bit word
/// (sg::GlobalSg::codes), so a wider design cannot be analysed.
constexpr int kMaxSignals = 64;

/// Bound on the cross-request state-graph cache: when a fresh run leaves
/// more than this many memoized graphs, the SG cache is flushed (a coarse
/// but safe valve — correctness is unaffected, the next flows just rebuild
/// their graphs). Without it a long-running server on diverse traffic
/// would grow without bound even under the cache byte budget.
constexpr int kSgCacheMaxEntries = 1 << 16;

}  // namespace

/// One resident design: the staged PhaseArtifacts plus the rendered
/// products, advanced in place by lazy phase upgrades.
///
/// Concurrency protocol (all fields below the mutex are guarded by it):
///   - `completed` is the highest finished phase; `target` is the goal of
///     the active runner. target == completed means the entry is idle.
///   - A request that finds the entry idle and unsatisfying claims the run
///     by raising `target` and becomes the single runner; it computes each
///     phase WITHOUT the lock (it alone touches `artifacts` while
///     target > completed) and publishes under the lock, notifying after
///     every phase so a verify waiter wakes as soon as the verdict exists
///     even while the same run continues into derive.
///   - A request that finds a runner active waits on `cv` for the phases
///     it shares with the run and claims whatever the run leaves missing
///     afterwards — or, from pool-task context, where blocking could
///     deadlock on its own help-while-wait stack, runs a private entry
///     (never indexed, retained or spilled) through the same runner path.
///   - A failed run parks the entry at its last completed phase
///     (target = completed), records `run_error` for the current waiters,
///     and keeps the phases that did succeed; failures are never cached.
struct AnalysisService::Entry {
  std::string canonical;  // immutable; cache map key (owned for eviction)
  std::string key_hex;    // immutable
  std::string stg_canonical;  // immutable; decomposition-cache key
  /// The request carried a netlist (vs. synthesizing from the STG) —
  /// decides whether a decompose run donates synthesis products to the
  /// decomposition cache. Immutable.
  bool explicit_netlist = false;
  /// The raw request spelling (astg and eqn text exactly as received)
  /// the front index serves this entry for: the creating request's, or
  /// for an entry warmed from disk the first one that parsed to it (empty
  /// until then; a design's astg text is never empty). Written once —
  /// before the entry is shared, or under mutex_ and `mutex` — and read
  /// under either lock.
  std::string spelled_astg;
  std::string spelled_eqn;

  std::mutex mutex;
  std::condition_variable cv;
  core::Phase completed = core::Phase::parsed;
  core::Phase target = core::Phase::parsed;
  std::string run_error;  // failure of the active run, for its waiters
  std::string run_error_code;  // wire class of run_error ("cancelled", ...)

  core::PhaseArtifacts artifacts;
  std::shared_ptr<const std::string> netlist_eqn;   // set at decomposed
  std::shared_ptr<const core::FlowReport> report;   // set at derived (SI)
  std::shared_ptr<const std::string> canonical_json;
  std::shared_ptr<const core::RenderedReport> rendered;  // set with report

  /// A persistent-store spill was already attempted for this entry (set
  /// true on loaded entries too — they came FROM the store). Guarded by
  /// this->mutex. "Attempted", not "succeeded": a failed write is not
  /// retried — persistence is best-effort and a flaky disk must not turn
  /// every request into an I/O storm.
  bool spill_attempted = false;

  /// True when a request needing `phase` can be answered: the phase
  /// completed, or the design is already known not speed independent (the
  /// derive phase has nothing to add to the verdict).
  bool satisfies(core::Phase phase) const {
    if (completed >= phase) return true;
    return phase == core::Phase::derived &&
           completed >= core::Phase::verified &&
           !artifacts.verify_offender.empty();
  }

  /// Resident footprint of everything the entry currently holds. Called
  /// with `mutex` held (or by the sole runner before publishing).
  std::size_t footprint_bytes() const {
    // The canonical string is charged twice (conservatively, for the
    // store node's key), plus the charge the node records and the node
    // and index overheads.
    std::size_t total = sizeof(Entry) + sizeof(std::size_t) +
                        2 * heap_bytes(canonical) + heap_bytes(key_hex) +
                        heap_bytes(stg_canonical) + 2 * kHashNodeBytes +
                        sizeof(std::shared_ptr<Entry>) + 2 * sizeof(void*);
    if (!spelled_astg.empty())
      total += heap_bytes(spelled_astg) + heap_bytes(spelled_eqn) +
               kHashNodeBytes +
               sizeof(std::pair<std::uint64_t, std::weak_ptr<Entry>>);
    if (artifacts.stg != nullptr) total += footprint(*artifacts.stg);
    if (artifacts.circuit != nullptr) total += footprint(*artifacts.circuit);
    if (completed >= core::Phase::decomposed)
      total += footprint(artifacts.decomposition);
    total += heap_bytes(artifacts.verify_offender);
    if (artifacts.has_result)
      total += footprint(artifacts.result.before) +
               footprint(artifacts.result.after);
    if (netlist_eqn != nullptr)
      total += sizeof(std::string) + heap_bytes(*netlist_eqn);
    if (canonical_json != nullptr)
      total += sizeof(std::string) + heap_bytes(*canonical_json);
    if (report != nullptr) total += footprint(*report);
    if (rendered != nullptr) total += footprint(*rendered);
    return total;
  }
};

/// Parses the request into a fresh, idle entry holding the parsed design
/// plus its canonical identity. Keying is deliberately cheap: it never
/// synthesizes — a design without an explicit netlist is keyed by its
/// canonical STG plus a "synthesized" marker, because the synthesized
/// circuit is a pure function of the STG.
std::shared_ptr<AnalysisService::Entry> AnalysisService::parse_request(
    const AnalysisRequest& request, const core::ExpandOptions& expand) {
  if (base::fault_fires(base::FaultPoint::parse))
    base::injected_failure(base::FaultPoint::parse);
  // Not make_shared: a dead front slot then pins only the control block,
  // not the entry's storage.
  auto entry = std::shared_ptr<Entry>(new Entry);
  entry->artifacts.stg =
      std::make_shared<const stg::Stg>(stg::parse_astg(request.astg));
  if (!request.eqn.empty())
    entry->artifacts.circuit = std::make_shared<const circuit::Circuit>(
        circuit::Circuit::from_equations(&entry->artifacts.stg->signals,
                                         request.eqn));
  entry->explicit_netlist = entry->artifacts.circuit != nullptr;

  // Canonical content: the *parsed* STG and netlist rendered back out (so
  // whitespace, comments and equation formatting cannot split one design
  // into several keys), plus every option that can change the answer.
  // Worker counts are excluded by design (the orchestrator guarantees
  // byte-identical output for any jobs value) — and so is the request
  // MODE: the mode selects which phases of the one entry must be complete,
  // it does not change any artifact.
  entry->stg_canonical = stg::write_astg(*entry->artifacts.stg);
  std::string canonical;
  canonical.reserve(request.astg.size() + 64);
  canonical += "astg\x1f";
  canonical += entry->stg_canonical;
  canonical += "\x1f""eqn\x1f";
  canonical += entry->explicit_netlist ? entry->artifacts.circuit->to_eqn()
                                       : "(synthesized)";
  canonical += "\x1f""order\x1f";
  canonical += std::to_string(static_cast<int>(expand.order));
  canonical += "\x1f""max_steps\x1f";
  canonical += std::to_string(expand.max_steps);
  canonical += "\x1f""max_depth\x1f";
  canonical += std::to_string(expand.max_depth);
  entry->key_hex = fnv1a_hex(canonical);
  entry->canonical = std::move(canonical);
  return entry;
}

AnalysisService::AnalysisService(ServiceOptions options)
    : options_(std::move(options)),
      designs_(options_.cache_budget_bytes, /*shards=*/1,
               base::FaultPoint::cache_insert),
      decomp_cache_(options_.cache_budget_bytes),
      gate_cache_(options_.cache_budget_bytes, /*reserved_bytes=*/nullptr) {
  decomp_cache_.place_below(designs_);
  gate_cache_.place_below(decomp_cache_);
  // The persistent store opens before the metric registrations so the
  // sitime_disk_store_* callbacks can read it unconditionally. A store
  // that failed to open stays constructed (ok() false) for the boot
  // diagnostics; it never loads and never saves.
  if (!options_.cache_dir.empty())
    disk_store_ = std::make_unique<DiskStore>(options_.cache_dir);
  register_metrics();
  sg_cache_.set_build_seconds(sg_build_seconds_);
}

AnalysisService::~AnalysisService() = default;

void AnalysisService::register_metrics() {
  const char* kRequests = "sitime_design_cache_requests_total";
  const char* kRequestsHelp =
      "Requests by design-cache outcome: hit (every needed phase "
      "resident), miss (fresh run), upgrade (only missing phases run), "
      "coalesced (waited on another request's run).";
  hits_ = &metrics_.counter(kRequests, kRequestsHelp, "outcome=\"hit\"");
  misses_ = &metrics_.counter(kRequests, kRequestsHelp, "outcome=\"miss\"");
  upgrades_ =
      &metrics_.counter(kRequests, kRequestsHelp, "outcome=\"upgrade\"");
  coalesced_ =
      &metrics_.counter(kRequests, kRequestsHelp, "outcome=\"coalesced\"");
  failures_ = &metrics_.counter(
      "sitime_request_failures_total",
      "Requests that ended in an error (every error_code).");
  deadline_exceeded_ = &metrics_.counter(
      "sitime_deadline_exceeded_total",
      "Requests answered with error_code deadline_exceeded.");
  const char* kPhaseRuns = "sitime_phase_runs_total";
  const char* kPhaseRunsHelp =
      "Phase executions, private-entry runs of pool-task duplicates "
      "included (derive counts runs that produced constraints).";
  decompose_runs_ =
      &metrics_.counter(kPhaseRuns, kPhaseRunsHelp, "phase=\"decompose\"");
  verify_runs_ =
      &metrics_.counter(kPhaseRuns, kPhaseRunsHelp, "phase=\"verify\"");
  derive_runs_ =
      &metrics_.counter(kPhaseRuns, kPhaseRunsHelp, "phase=\"derive\"");
  expand_steps_ = &metrics_.counter(
      "sitime_expand_steps_total",
      "Expand relaxation steps summed over all derive runs.");
  expand_subtasks_ = &metrics_.counter(
      "sitime_expand_subtasks_total",
      "OR-causality subSTG subtasks spawned by derive runs.");

  const char* kPhaseSeconds = "sitime_phase_seconds";
  const char* kPhaseSecondsHelp =
      "Per-phase latency; source=cold ran from the parsed design, "
      "source=upgrade advanced a resident cache entry.";
  static const char* const kPhaseLabel[4] = {"parse", "decompose", "verify",
                                             "derive"};
  for (int phase = 0; phase < 4; ++phase) {
    for (int source = 0; source < 2; ++source) {
      if (phase == 0 && source == 1) continue;  // parse never upgrades
      phase_seconds_[phase][source] = &metrics_.histogram(
          kPhaseSeconds, kPhaseSecondsHelp,
          base::MetricHistogram::default_latency_bounds(),
          std::string("phase=\"") + kPhaseLabel[phase] + "\",source=\"" +
              (source == 0 ? "cold" : "upgrade") + "\"");
    }
  }

  sg_build_seconds_ = &metrics_.histogram(
      "sitime_sg_build_seconds",
      "State-graph build latency (SgCache misses and the verify phase's "
      "direct builds).",
      base::MetricHistogram::default_latency_bounds());

  // Scrape-time callbacks over the authoritative atomics that live
  // outside the registry. Owner tag `this`: the registry is a member, so
  // everything these read outlives every render.
  auto cb = [this](const std::string& name, const std::string& help,
                   const char* type, std::function<double()> read) {
    metrics_.callback(this, name, help, type, "", std::move(read));
  };
  cb("sitime_cancelled_subtasks_total",
     "OR-causality subtasks that observed a cancel and unwound early.",
     "counter", [this] {
       return static_cast<double>(
           cancelled_subtasks_.load(std::memory_order_relaxed));
     });
  cb("sitime_cache_budget_bytes",
     "Byte budget shared by the design, decomposition and gate-slice "
     "caches.",
     "gauge",
     [this] { return static_cast<double>(options_.cache_budget_bytes); });
  cb("sitime_sg_cache_hits_total", "Cross-request state-graph cache hits.",
     "counter", [this] { return static_cast<double>(sg_cache_.hits()); });
  cb("sitime_sg_cache_misses_total",
     "Cross-request state-graph cache misses.", "counter",
     [this] { return static_cast<double>(sg_cache_.misses()); });
  cb("sitime_sg_cache_entries", "Memoized state graphs resident.", "gauge",
     [this] { return static_cast<double>(sg_cache_.entries()); });

  // One family set per cache level. The design level's hits and misses
  // are the request outcomes above, not index lookups.
  struct Level {
    const char* family;
    const char* noun;
    const StoreLevel* store;
  };
  for (const Level& level :
       {Level{"sitime_design_cache", "design", &designs_},
        Level{"sitime_decomp_cache", "decomposition", &decomp_cache_},
        Level{"sitime_gate_cache", "gate-slice", &gate_cache_}}) {
    const std::string family = level.family;
    const std::string noun = level.noun;
    const StoreLevel* store = level.store;
    if (store != &designs_) {
      cb(family + "_hits_total", "Hits of the " + noun + " cache.",
         "counter", [store] { return static_cast<double>(store->hits()); });
      cb(family + "_misses_total", "Misses of the " + noun + " cache.",
         "counter",
         [store] { return static_cast<double>(store->misses()); });
    }
    cb(family + "_evictions_total",
       "Entries of the " + noun + " cache shed to fit the shared budget.",
       "counter",
       [store] { return static_cast<double>(store->evictions()); });
    cb(family + "_entries", "Resident entries of the " + noun + " cache.",
       "gauge", [store] { return static_cast<double>(store->entries()); });
    cb(family + "_bytes",
       "Estimated resident footprint of the " + noun + " cache.", "gauge",
       [store] { return static_cast<double>(store->bytes()); });
  }

  // Persistent-store counters: registered unconditionally (zero without
  // --cache-dir) so dashboards and the metrics_check catalog see a
  // stable family set regardless of deployment flags.
  cb("sitime_disk_store_writes_total",
     "Design entries spilled to the persistent store (--cache-dir).",
     "counter", [this] {
       return disk_store_ != nullptr
                  ? static_cast<double>(disk_store_->writes())
                  : 0.0;
     });
  cb("sitime_disk_store_write_errors_total",
     "Persistent-store spills dropped by an I/O failure (the in-memory "
     "entry and the response are unaffected).",
     "counter", [this] {
       return disk_store_ != nullptr
                  ? static_cast<double>(disk_store_->write_errors())
                  : 0.0;
     });
  cb("sitime_disk_store_loads_total",
     "Design entries warm-started from the persistent store at boot.",
     "counter", [this] {
       return disk_store_ != nullptr
                  ? static_cast<double>(disk_store_->loads())
                  : 0.0;
     });
  cb("sitime_disk_store_load_skips_total",
     "Store files rejected at boot for a stale format version or a "
     "content-address mismatch (deleted; the design runs cold).",
     "counter", [this] {
       return disk_store_ != nullptr
                  ? static_cast<double>(disk_store_->load_skips())
                  : 0.0;
     });
  cb("sitime_disk_store_load_corrupt_total",
     "Store files rejected at boot as unreadable, truncated or "
     "bit-flipped (deleted; the design runs cold).",
     "counter", [this] {
       return disk_store_ != nullptr
                  ? static_cast<double>(disk_store_->load_corrupt())
                  : 0.0;
     });

  // Pool utilization: the pool the request job graphs are admitted onto.
  auto pool = [this]() -> base::ThreadPool& {
    return options_.pool != nullptr ? *options_.pool
                                    : base::ThreadPool::shared();
  };
  cb("sitime_pool_workers", "Worker threads of the analysis pool.",
     "gauge",
     [pool] { return static_cast<double>(pool().worker_count()); });
  cb("sitime_pool_active_workers",
     "Threads currently inside an analysis pool task.", "gauge",
     [pool] { return static_cast<double>(pool().active_workers()); });
  cb("sitime_pool_tasks_total", "Tasks the analysis pool has executed.",
     "counter",
     [pool] { return static_cast<double>(pool().tasks_executed()); });
  cb("sitime_pool_steals_total",
     "Tasks taken from another thread's deque (work stealing + "
     "help-while-wait).",
     "counter",
     [pool] { return static_cast<double>(pool().tasks_stolen()); });
}

core::FlowOptions AnalysisService::flow_options(
    int request_jobs, const core::CancelToken& cancel) {
  core::FlowOptions options;
  options.expand = options_.expand;
  options.expand.cancelled_subtasks = &cancelled_subtasks_;
  options.jobs = request_jobs > 0 ? request_jobs : options_.jobs;
  options.pool = options_.pool;
  options.sg_cache = &sg_cache_;
  options.sg_build_seconds = sg_build_seconds_;
  if (options_.cache_budget_bytes > 0) options.gate_store = &gate_cache_;
  options.cancel = cancel;
  return options;
}

bool AnalysisService::run_phases(const std::shared_ptr<Entry>& entry,
                                 int jobs, const core::CancelToken& cancel,
                                 std::string& error,
                                 std::string& error_code, RunStats& run,
                                 core::Phase& achieved,
                                 std::size_t& footprint) {
  const core::FlowOptions options = flow_options(jobs, cancel);
  while (true) {
    core::Phase next;
    {
      // Runner invariant: target > completed from the claim until the
      // publish below observes the goal reached and returns INSIDE its
      // critical section — the moment that lock releases with
      // target == completed, another thread may claim a new run, so this
      // loop must never take another look after that. target is fixed
      // for the duration of the run (waiters never extend it).
      std::lock_guard<std::mutex> lock(entry->mutex);
      next = static_cast<core::Phase>(static_cast<int>(entry->completed) +
                                      1);
    }
    // Compute without the lock: while target > completed this thread is
    // the only one touching `artifacts`.
    std::shared_ptr<const std::string> netlist;
    std::shared_ptr<const core::FlowReport> report;
    std::shared_ptr<const std::string> canonical_json;
    std::shared_ptr<const core::RenderedReport> rendered_forms;
    try {
      switch (next) {
        case core::Phase::decomposed: {
          // Decomposition-cache consult, keyed on the canonical STG
          // alone: a netlist-only edit misses the whole-design key above
          // but lands here, reusing the entire FlowDecomposition —
          // global-SG rebuild, consistency check and component
          // projections included. A design with no explicit netlist is
          // servable only when the cached value retained the synthesized
          // circuit.
          const std::shared_ptr<const DecompCache::Value> cached =
              decomp_cache_.lookup(
                  entry->stg_canonical,
                  /*have_circuit=*/entry->artifacts.circuit != nullptr);
          if (cached != nullptr) {
            // The phase still executes (cheaply): it polls the same
            // fault and cancel points as a cold decompose, so injected
            // decompose faults and deadlines behave identically warm.
            const auto hit_start = std::chrono::steady_clock::now();
            if (base::fault_fires(base::FaultPoint::decompose))
              base::injected_failure(base::FaultPoint::decompose);
            options.cancel.poll("decompose phase");
            if (entry->artifacts.circuit == nullptr) {
              entry->artifacts.circuit = cached->synth_circuit;
              netlist = cached->synth_eqn;  // no re-serialization
            } else {
              netlist = std::make_shared<const std::string>(
                  entry->artifacts.circuit->to_eqn());
            }
            core::FlowDecomposition decomposition = cached->decomposition;
            if (*netlist != cached->built_eqn) {
              // Different circuit, same STG: re-target the job list at
              // this circuit's gate count. The shared key_cache stays —
              // component key bases (adversary-weight matrix included)
              // are a pure function of the STG, and every per-gate key
              // still differs through its gate-word suffix — so a
              // netlist-only edit pays no keying serialization at all.
              decomposition.jobs = core::enumerate_flow_jobs(
                  static_cast<int>(decomposition.component_stgs.size()),
                  static_cast<int>(
                      entry->artifacts.circuit->gates().size()));
            }
            entry->artifacts.decomposition = std::move(decomposition);
            entry->artifacts.decompose_seconds = seconds_since(hit_start);
            entry->artifacts.completed = core::Phase::decomposed;
            run.decomp_cache_hit = true;
            run.decompose_seconds = entry->artifacts.decompose_seconds;
            break;
          }
          core::run_decompose_phase(entry->artifacts, options.cancel);
          netlist = std::make_shared<const std::string>(
              entry->artifacts.circuit->to_eqn());
          ++run.decomposes;
          run.decompose_seconds = entry->artifacts.decompose_seconds;
          {
            DecompCache::Value value;
            value.decomposition = entry->artifacts.decomposition;
            value.built_eqn = *netlist;
            if (!entry->explicit_netlist) {
              value.synth_circuit = entry->artifacts.circuit;
              value.synth_eqn = netlist;
            }
            decomp_cache_.insert(entry->stg_canonical, std::move(value));
          }
          break;
        }
        case core::Phase::verified:
          core::run_verify_phase(entry->artifacts, options);
          ++run.verifies;
          run.verify_seconds = entry->artifacts.verify_seconds;
          break;
        case core::Phase::derived:
          core::run_derive_phase(entry->artifacts, options);
          run.derive_ran = true;
          run.derive_seconds = entry->artifacts.derive_seconds;
          if (entry->artifacts.has_result) {
            ++run.derives;
            const core::FlowResult& result = entry->artifacts.result;
            run.expand_seconds = result.expand_seconds;
            run.expand_steps = result.expand_steps;
            run.expand_subtasks = result.expand_subtasks;
            run.expand_jobs = result.jobs;
            run.gate_hits = result.gate_hits;
            run.gate_misses = result.gate_misses;
            core::FlowReport rendered = core::make_flow_report(
                /*design=*/"", entry->artifacts.result,
                entry->artifacts.stg->signals);
            rendered.content_hash = entry->key_hex;
            canonical_json = std::make_shared<const std::string>(
                core::to_canonical_json(rendered));
            // Render the provenance-independent forms once, here, so
            // every later hit on this entry serves them verbatim.
            rendered_forms = std::make_shared<const core::RenderedReport>(
                core::render_report(rendered));
            report = std::make_shared<const core::FlowReport>(
                std::move(rendered));
          }
          // Coarse valve on the cross-request SG memoization: evicting
          // design entries does not release the state graphs their flows
          // inserted.
          if (sg_cache_.entries() > kSgCacheMaxEntries) sg_cache_.clear();
          break;
        case core::Phase::parsed:
          break;  // unreachable: parsed is never a *next* phase
      }
    } catch (const std::exception& exception) {
      error = exception.what();
      error_code = error_code_of(exception);
      std::lock_guard<std::mutex> lock(entry->mutex);
      // The legacy check_hazard contract reports the synthesized netlist
      // even when decomposition then failed.
      if (entry->netlist_eqn == nullptr &&
          entry->artifacts.circuit != nullptr)
        entry->netlist_eqn = std::make_shared<const std::string>(
            entry->artifacts.circuit->to_eqn());
      entry->run_error = error;
      entry->run_error_code = error_code;
      entry->target = entry->completed;  // park; keep finished phases
      // Still the last thread that touched the artifacts: capture the
      // retention data before the lock goes and a new runner can claim.
      achieved = entry->completed;
      footprint = entry->footprint_bytes();
      entry->cv.notify_all();
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      if (netlist != nullptr) entry->netlist_eqn = std::move(netlist);
      if (report != nullptr) entry->report = std::move(report);
      if (canonical_json != nullptr)
        entry->canonical_json = std::move(canonical_json);
      if (rendered_forms != nullptr)
        entry->rendered = std::move(rendered_forms);
      entry->completed = next;
      const bool done = entry->completed >= entry->target;
      if (done) {
        // The goal (possibly raised meanwhile) is reached and runnership
        // ends when this lock releases — last safe moment to size the
        // artifacts.
        achieved = entry->completed;
        footprint = entry->footprint_bytes();
      }
      entry->cv.notify_all();
      if (done) return true;
    }
  }
}

void AnalysisService::finish_run(const std::shared_ptr<Entry>& entry,
                                 bool from_scratch, bool ok,
                                 core::Phase achieved,
                                 std::size_t footprint_now,
                                 const RunStats& run) {
  std::lock_guard<std::mutex> lock(mutex_);
  decompose_runs_->inc(run.decomposes);
  verify_runs_->inc(run.verifies);
  derive_runs_->inc(run.derives);
  if (ok) (from_scratch ? misses_ : upgrades_)->inc();

  // A successor runner may have claimed the entry between our run ending
  // and this epilogue: if the entry has already advanced past what we
  // achieved, our footprint is stale — return and leave retention (and
  // the inflight slot, when we were the creator) to the successor's own
  // finish_run, which carries the newer footprint. The last finisher
  // always observes completed == achieved, so exactly one epilogue
  // retains.
  {
    std::lock_guard<std::mutex> elock(entry->mutex);
    if (entry->completed != achieved) return;
  }

  const auto inflight = inflight_.find(entry->canonical);
  const bool mine_inflight =
      inflight != inflight_.end() && inflight->second == entry;
  if (mine_inflight) inflight_.erase(inflight);

  // A resident entry (upgrade or failed upgrade attempt) is re-charged at
  // its new footprint — and dropped when it alone no longer fits. A fresh
  // entry is retained on first insert: even a failed run keeps the phases
  // that did succeed (a derive that threw leaves a decomposed + verified
  // entry the next request upgrades from), but an entry with nothing but
  // the parse is not worth a slot. A superseded entry, or a duplicate
  // that lost the race to a resident one, is served but not retained;
  // so is one larger than the whole budget.
  if (designs_.peek(entry->canonical).entry != entry) {
    if (!mine_inflight) return;
    if (achieved == core::Phase::parsed) return;
  }
  designs_.insert(entry->canonical, Resident{entry, footprint_now});
}

void AnalysisService::maybe_spill(const std::shared_ptr<Entry>& entry) {
  if (disk_store_ == nullptr || !disk_store_->ok()) return;
  core::PersistedArtifact artifact;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->spill_attempted) return;
    // Only idle, TERMINAL entries are spilled: an entry that satisfies
    // Phase::derived answers both request modes as a pure hit forever,
    // so the load path never has to advance it — which is exactly what
    // lets the codec skip the FlowDecomposition (graphs pointing into
    // the signal table) and still guarantee zero decompose re-runs for
    // every design served from disk. A verify-only SI entry simply is
    // not persisted; after a restart that design runs cold.
    if (entry->target != entry->completed) return;
    if (!entry->satisfies(core::Phase::derived)) return;
    if (entry->netlist_eqn == nullptr) return;
    entry->spill_attempted = true;
    artifact.canonical = entry->canonical;
    artifact.key_hex = entry->key_hex;
    artifact.stg_canonical = entry->stg_canonical;
    artifact.netlist_eqn = *entry->netlist_eqn;
    artifact.explicit_netlist = entry->explicit_netlist;
    artifact.completed = entry->completed;
    artifact.verify_offender = entry->artifacts.verify_offender;
    if (entry->report != nullptr && entry->canonical_json != nullptr &&
        entry->rendered != nullptr) {
      // The rendered forms are persisted VERBATIM — byte-identity of a
      // disk-warm response is by construction, not re-rendering.
      artifact.has_report = true;
      artifact.report = *entry->report;
      artifact.canonical_json = *entry->canonical_json;
      artifact.rendered = *entry->rendered;
    }
  }
  // Encode and write outside every lock: disk latency must not stall
  // requests coalescing on the entry or the cache indexes.
  disk_store_->save(artifact.key_hex, core::encode_artifact(artifact));
}

void AnalysisService::record_run_metrics(const RunStats& run, bool cold) {
  const int source = cold ? 0 : 1;
  if (run.decomposes > 0)
    phase_seconds_[1][source]->observe(run.decompose_seconds);
  if (run.verifies > 0)
    phase_seconds_[2][source]->observe(run.verify_seconds);
  if (run.derive_ran)
    phase_seconds_[3][source]->observe(run.derive_seconds);
  if (run.derives > 0) {
    expand_steps_->inc(run.expand_steps);
    expand_subtasks_->inc(run.expand_subtasks);
  }
}

void AnalysisService::append_run_spans(const RunStats& run, bool cold,
                                       double at_seconds,
                                       std::vector<TraceSpan>& spans) {
  const char* source = cold ? "cold" : "upgrade";
  double at = at_seconds;
  if (run.decomposes > 0 || run.decomp_cache_hit) {
    // A decomposition-cache hit still emits the decompose span (the phase
    // is in phases_run) but carries its own provenance instead of
    // masquerading as a cold decompose.
    spans.push_back({"decompose", at, run.decompose_seconds,
                     run.decomp_cache_hit ? "cache=decomp" : source, ""});
    at += run.decompose_seconds;
  }
  if (run.verifies > 0) {
    spans.push_back({"verify", at, run.verify_seconds, source, ""});
    at += run.verify_seconds;
  }
  if (run.derive_ran) {
    spans.push_back({"derive", at, run.derive_seconds, source, ""});
    if (run.derives > 0)
      spans.push_back({"expand", at, run.expand_seconds,
                       "jobs=" + std::to_string(run.expand_jobs) +
                           " steps=" + std::to_string(run.expand_steps) +
                           " subtasks=" +
                           std::to_string(run.expand_subtasks) +
                           " gate_hits=" + std::to_string(run.gate_hits) +
                           " gate_misses=" +
                           std::to_string(run.gate_misses),
                       "derive"});
  }
}

void AnalysisService::respond_from_locked(const Entry& entry,
                                          RequestMode mode,
                                          const char* cache_state,
                                          AnalysisResponse& out) const {
  out.ok = true;
  out.key = entry.key_hex;
  out.cache_state = cache_state;
  out.cache_hit = cache_state[0] == 'h' || cache_state[0] == 'c';
  out.verify_offender = entry.artifacts.verify_offender;
  out.speed_independent = out.verify_offender.empty();
  out.netlist_eqn = entry.netlist_eqn;
  if (mode == RequestMode::derive) {
    out.report = entry.report;
    out.canonical_json = entry.canonical_json;
    out.rendered = entry.rendered;
  }
}

std::shared_ptr<AnalysisService::Entry> AnalysisService::front_lookup(
    std::uint64_t spelling, const AnalysisRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto slot = front_.find(spelling);
  if (slot == front_.end()) return nullptr;
  const std::shared_ptr<Entry> spelled = slot->second.lock();
  if (spelled == nullptr || spelled->spelled_astg != request.astg ||
      spelled->spelled_eqn != request.eqn)
    return nullptr;
  // The spelling parses to this canonical key, so whatever the design
  // level holds under it answers the request; the lookup also refreshes
  // its LRU position, as a parsed hit's does.
  return designs_.lookup(spelled->canonical).entry;
}

void AnalysisService::remember_spelling_locked(
    std::uint64_t spelling, const std::shared_ptr<Entry>& entry) {
  front_[spelling] = entry;
  if (front_.size() < front_sweep_at_) return;
  std::erase_if(front_,
                [](const auto& slot) { return slot.second.expired(); });
  front_sweep_at_ = std::max(kFrontSweepFloor, 2 * front_.size());
}

AnalysisResponse AnalysisService::analyze(const AnalysisRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  AnalysisResponse response;

  // Fills an error response, keeping the failure and deadline_exceeded
  // counters in step with every response that carries an error (runner
  // and waiter alike).
  auto fail_with = [&](const std::string& message, const std::string& code) {
    failures_->inc();
    if (code == "deadline_exceeded") deadline_exceeded_->inc();
    response.ok = false;
    response.error = message;
    response.error_code = code;
    response.seconds = seconds_since(start);
  };

  // A request whose budget is already gone skips even the parse: the
  // deadline answer is known and parsing large designs is not free.
  if (request.cancel.deadline_expired()) {
    fail_with("deadline exceeded before analysis started",
              "deadline_exceeded");
    return response;
  }

  // This request's own parse: null until parsed, and again once donated
  // to a new shared entry.
  std::shared_ptr<Entry> parsed;
  // Parses into `parsed`; false = the response already holds the failure.
  auto parse = [&] {
    try {
      const double parse_begin = seconds_since(start);
      parsed = parse_request(request, options_.expand);
      response.key = parsed->key_hex;
      const double parse_seconds = seconds_since(start) - parse_begin;
      phase_seconds_[0][0]->observe(parse_seconds);
      if (request.trace_spans)
        response.spans.push_back(
            {"parse", parse_begin, parse_seconds, "cold", ""});
      return true;
    } catch (const std::exception& error) {
      // Injected parse faults are infrastructure failures, not malformed
      // designs; everything else parse_request throws is bad input.
      const bool injected =
          dynamic_cast<const FaultInjectedError*>(&error) != nullptr;
      fail_with(error.what(),
                injected ? "analysis_error" : "invalid_request");
      return false;
    }
  };

  // A byte-identical repeat of a resident entry's spelling is served
  // from the entry without parsing or keying.
  const std::uint64_t spelling = spelling_hash(request.astg, request.eqn);
  std::shared_ptr<Entry> entry = front_lookup(spelling, request);
  if (entry != nullptr) {
    response.key = entry->key_hex;
  } else {
    if (!parse()) return response;
    const int signals = parsed->artifacts.stg->signals.count();
    if (signals > kMaxSignals) {
      fail_with("design has " + std::to_string(signals) +
                    " signals; state codes hold at most " +
                    std::to_string(kMaxSignals),
                "too_large");
      return response;
    }

    // Find or create the ONE entry for this design — resident, in
    // flight, or brand new (the creator donates its parsed entry and its
    // spelling).
    std::lock_guard<std::mutex> lock(mutex_);
    entry = designs_.lookup(parsed->canonical).entry;
    if (entry != nullptr) {
      if (entry->spelled_astg.empty()) {
        // Warmed from disk: adopt this spelling and re-charge the entry
        // with it. Such entries are terminal, so they never have a
        // runner and sizing them here is safe.
        std::size_t bytes = 0;
        {
          std::lock_guard<std::mutex> elock(entry->mutex);
          entry->spelled_astg = request.astg;
          entry->spelled_eqn = request.eqn;
          bytes = entry->footprint_bytes();
        }
        designs_.insert(entry->canonical, Resident{entry, bytes});
        remember_spelling_locked(spelling, entry);
      }
    } else if (const auto in_flight = inflight_.find(parsed->canonical);
               in_flight != inflight_.end()) {
      entry = in_flight->second;
    } else {
      entry = std::move(parsed);
      if (options_.cache_budget_bytes > 0) {
        entry->spelled_astg = request.astg;
        entry->spelled_eqn = request.eqn;
        remember_spelling_locked(spelling, entry);
      }
      inflight_.emplace(entry->canonical, entry);
    }
  }

  const core::Phase needed = request.mode == RequestMode::verify
                                 ? core::Phase::verified
                                 : core::Phase::derived;

  // The per-(entry, phase) machine: serve, wait, or run.
  bool waited = false;
  double wait_begin = 0.0;  // offset of the first coalesced wait
  std::unique_lock<std::mutex> elock(entry->mutex);
  while (true) {
    if (entry->satisfies(needed)) {
      respond_from_locked(*entry, request.mode,
                          waited ? "coalesced" : "hit", response);
      elock.unlock();
      (waited ? coalesced_ : hits_)->inc();
      response.seconds = seconds_since(start);
      if (request.trace_spans) {
        if (waited) {
          response.spans.push_back({"coalesced_wait", wait_begin,
                                    response.seconds - wait_begin,
                                    "coalesced", ""});
        } else {
          // The lookup span starts where the parse span ended, so
          // top-level spans stay disjoint (they must sum to <= wall).
          const double lookup_begin =
              response.spans.empty()
                  ? 0.0
                  : response.spans.back().start +
                        response.spans.back().seconds;
          response.spans.push_back({"cache", lookup_begin,
                                    response.seconds - lookup_begin, "hit",
                                    ""});
        }
      }
      return response;
    }

    if (entry->target > entry->completed) {  // a runner is active
      // Pool-task duplicates must never block on the run: it may be frames
      // beneath this very stack (work stealing + help-while-wait). They
      // run a private entry instead, through the same path below; it is
      // never indexed, retained or spilled, so the runner keeps the cache
      // slot. A parse that was donated (or skipped by the front index) is
      // redone.
      if (base::ThreadPool::in_task()) {
        elock.unlock();
        if (parsed == nullptr && !parse()) return response;
        parsed->spill_attempted = true;
        entry = std::move(parsed);
        elock = std::unique_lock<std::mutex>(entry->mutex);
        continue;
      }
      // Wait for the active run to end (waking at every phase publish in
      // case it already covers us); whatever it leaves missing we claim
      // ourselves on a later iteration. Deliberately NOT extending the
      // runner's goal: a verify runner must not pay for a coalescing
      // derive request's phases before it can answer its own. A
      // cancellable waiter sleeps only until its own budget fires — a
      // waiter must not outlive its deadline just because another
      // request's run does.
      if (!waited) {
        waited = true;
        wait_begin = seconds_since(start);
      }
      if (request.cancel.cancellable()) {
        entry->cv.wait_until(elock, request.cancel.wait_point());
        if (request.cancel.cancelled() && !entry->satisfies(needed)) {
          const bool deadline = request.cancel.deadline_expired();
          response.netlist_eqn = entry->netlist_eqn;
          elock.unlock();
          fail_with(deadline ? "deadline exceeded while coalesced on an "
                               "in-flight run"
                             : "cancelled while coalesced on an in-flight "
                               "run",
                    deadline ? "deadline_exceeded" : "cancelled");
          return response;
        }
      } else {
        entry->cv.wait(elock);
      }
      if (!entry->satisfies(needed) && entry->target < needed &&
          !entry->run_error.empty()) {
        const std::string error = entry->run_error;
        const std::string code = entry->run_error_code.empty()
                                     ? "analysis_error"
                                     : entry->run_error_code;
        response.netlist_eqn = entry->netlist_eqn;
        elock.unlock();
        fail_with(error, code);
        return response;
      }
      continue;  // served (or a new runner took over) — re-evaluate
    }

    // Idle: claim the run and advance the entry ourselves.
    const core::Phase from = entry->completed;
    entry->target = needed;
    entry->run_error.clear();
    entry->run_error_code.clear();
    elock.unlock();

    std::string error;
    std::string error_code;
    RunStats run;
    core::Phase achieved = from;
    std::size_t footprint = 0;
    const double run_begin = seconds_since(start);
    const bool ok =
        run_phases(entry, request.jobs, request.cancel, error, error_code,
                   run, achieved, footprint);
    finish_run(entry, /*from_scratch=*/from == core::Phase::parsed, ok,
               achieved, footprint, run);
    const bool cold = from == core::Phase::parsed;
    record_run_metrics(run, cold);
    // Persist BEFORE the response returns: a client that saw this answer
    // may kill the server immediately (the restart-survival contract)
    // and must still find the artifact durable on disk.
    if (ok) maybe_spill(entry);
    if (request.trace_spans)
      append_run_spans(run, cold, run_begin, response.spans);
    if (!ok) {
      {
        std::lock_guard<std::mutex> lock(entry->mutex);
        response.netlist_eqn = entry->netlist_eqn;
      }
      fail_with(error, error_code);
      return response;
    }
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      respond_from_locked(*entry, request.mode,
                          from == core::Phase::parsed ? "fresh" : "upgraded",
                          response);
    }
    response.phases_run = core::phase_range_text(from, achieved);
    response.seconds = seconds_since(start);
    return response;
  }
}

int AnalysisService::warm_benchmark_suite(const std::atomic<bool>* stop) {
  int loaded = 0;
  for (const auto& bench : benchdata::all_benchmarks()) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    AnalysisRequest request;
    request.name = bench.name;
    request.astg = bench.astg;
    request.eqn = bench.eqn;
    request.mode = RequestMode::derive;
    if (analyze(request).ok) ++loaded;
  }
  return loaded;
}

int AnalysisService::warm_from_disk() {
  if (disk_store_ == nullptr || !disk_store_->ok()) return 0;
  if (options_.cache_budget_bytes == 0) return 0;  // cache disabled
  int loaded = 0;
  for (const std::string& path : disk_store_->list_files()) {
    // Every rejection below deletes the file: a store file is either
    // provably whole and loadable by THIS binary, or it is dead weight
    // the next boot should not re-examine. The design it carried simply
    // runs cold — rejection is never an error.
    std::string bytes;
    if (!disk_store_->read_file(path, bytes)) {
      disk_store_->note_corrupt();
      disk_store_->remove_file(path);
      continue;
    }
    core::PersistedArtifact artifact;
    const core::ArtifactDecodeStatus status =
        core::decode_artifact(bytes, artifact);
    if (status == core::ArtifactDecodeStatus::version_mismatch) {
      disk_store_->note_skip();
      disk_store_->remove_file(path);
      continue;
    }
    if (status != core::ArtifactDecodeStatus::ok) {
      disk_store_->note_corrupt();
      disk_store_->remove_file(path);
      continue;
    }
    // Cross-checks beyond the codec's own header hash: the payload's
    // content-address must match both its canonical content and the
    // file name it was stored under, and the entry must be terminal —
    // a file claiming a non-terminal phase set was not written by this
    // code and could provoke a phase run on artifacts the codec does
    // not carry.
    const bool terminal =
        artifact.has_report
            ? artifact.completed >= core::Phase::derived
            : artifact.completed >= core::Phase::verified &&
                  !artifact.verify_offender.empty();
    if (fnv1a_hex(artifact.canonical) != artifact.key_hex ||
        disk_store_->path_for(artifact.key_hex) != path || !terminal) {
      disk_store_->note_skip();
      disk_store_->remove_file(path);
      continue;
    }
    // Re-parse the canonical STG under the CURRENT parser and demand an
    // exact round-trip: if the canonicalizer has drifted since the file
    // was written, the entry would never match a live request's key —
    // skip it instead of carrying dead weight.
    std::shared_ptr<const stg::Stg> stg;
    try {
      stg = std::make_shared<const stg::Stg>(
          stg::parse_astg(artifact.stg_canonical));
    } catch (const std::exception&) {
      disk_store_->note_corrupt();
      disk_store_->remove_file(path);
      continue;
    }
    if (stg::write_astg(*stg) != artifact.stg_canonical) {
      disk_store_->note_skip();
      disk_store_->remove_file(path);
      continue;
    }

    // Not make_shared, as in parse_request(): a dead front slot pins only
    // the control block.
    auto entry = std::shared_ptr<Entry>(new Entry);
    entry->canonical = std::move(artifact.canonical);
    entry->key_hex = std::move(artifact.key_hex);
    entry->stg_canonical = std::move(artifact.stg_canonical);
    entry->explicit_netlist = artifact.explicit_netlist;
    entry->artifacts.stg = std::move(stg);
    entry->artifacts.completed = artifact.completed;
    entry->artifacts.verify_offender = std::move(artifact.verify_offender);
    entry->completed = artifact.completed;
    entry->target = artifact.completed;  // idle; terminal — never advanced
    entry->netlist_eqn = std::make_shared<const std::string>(
        std::move(artifact.netlist_eqn));
    if (artifact.has_report) {
      entry->report = std::make_shared<const core::FlowReport>(
          std::move(artifact.report));
      entry->canonical_json = std::make_shared<const std::string>(
          std::move(artifact.canonical_json));
      entry->rendered = std::make_shared<const core::RenderedReport>(
          std::move(artifact.rendered));
    }
    entry->spill_attempted = true;  // it came FROM the store
    const std::size_t footprint_now = entry->footprint_bytes();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // A duplicate key (warm_from_disk called twice, or a request beat
      // the boot load) keeps the resident entry and the file.
      if (designs_.peek(entry->canonical).entry != nullptr ||
          inflight_.find(entry->canonical) != inflight_.end())
        continue;
      if (!designs_.insert(entry->canonical, Resident{entry, footprint_now})) {
        disk_store_->note_skip();
        continue;  // served cold this generation; keep the file
      }
    }
    disk_store_->note_load();
    ++loaded;
  }
  return loaded;
}

CacheStats AnalysisService::stats() const {
  CacheStats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.upgrades = upgrades_->value();
  stats.coalesced = coalesced_->value();
  stats.evictions = designs_.evictions();
  stats.failures = failures_->value();
  stats.deadline_exceeded = deadline_exceeded_->value();
  stats.cancelled_subtasks = cancelled_subtasks_;
  stats.decompose_runs = decompose_runs_->value();
  stats.verify_runs = verify_runs_->value();
  stats.derive_runs = derive_runs_->value();
  stats.entries = designs_.entries();
  stats.bytes = designs_.bytes();
  stats.budget_bytes = options_.cache_budget_bytes;
  stats.sg_cache_entries = sg_cache_.entries();
  stats.sg_cache_hits = sg_cache_.hits();
  stats.sg_cache_misses = sg_cache_.misses();
  stats.decomp_hits = decomp_cache_.hits();
  stats.decomp_misses = decomp_cache_.misses();
  stats.decomp_evictions = decomp_cache_.evictions();
  stats.decomp_entries = decomp_cache_.entries();
  stats.decomp_bytes = decomp_cache_.bytes();
  stats.gate_hits = gate_cache_.hits();
  stats.gate_misses = gate_cache_.misses();
  stats.gate_evictions = gate_cache_.evictions();
  stats.gate_entries = gate_cache_.entries();
  stats.gate_bytes = gate_cache_.bytes();
  if (disk_store_ != nullptr) {
    stats.disk_writes = disk_store_->writes();
    stats.disk_write_errors = disk_store_->write_errors();
    stats.disk_loads = disk_store_->loads();
    stats.disk_load_skips = disk_store_->load_skips();
    stats.disk_load_corrupt = disk_store_->load_corrupt();
  }
  return stats;
}

}  // namespace sitime::svc

#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/mode_system.hpp"
#include "core/schedule.hpp"
#include "core/sensitivity.hpp"
#include "core/study_runner.hpp"
#include "fault/fault_model.hpp"
#include "hier/sched_test.hpp"
#include "part/bin_packing.hpp"
#include "rt/canonical.hpp"
#include "rt/deadline_bound.hpp"

namespace flexrt::svc {

/// The multi-system analysis service: the paper's methodology is
/// fleet-shaped (every figure asks the same design question across many
/// candidate systems), and this is the fleet-shaped front for it.
///
/// An AnalysisService holds a fleet of mode-task systems -- added directly,
/// parsed from files, or generated as a sharded trial study -- and answers
/// *typed requests* (SolveRequest, MinQuantumRequest, RegionSweepRequest,
/// SensitivityRequest, VerifyRequest, FaultSweepRequest) through one
/// request runner in three forms: run_one(i, req) for one entry,
/// run(req, sink, window) streaming every entry in order from the shared
/// par::parallel_for pool, and run(req) collecting that stream into a
/// vector. Results are typed structs that carry the answer plus
/// *provenance*: whether the deadline-set analysis was exact, the dlSet
/// point budget behind the answer, how many accuracy rounds ran, the
/// measured over-approximation gap, and wall time.
///
/// Every request takes an AccuracyPolicy. `fixed` probes once at one
/// budget (the default budget reproduces the BatchEngine/solve_design
/// answers bit for bit -- parity-tested). `adaptive(tol)` starts from a
/// small budget and re-probes with a doubled budget until the answer
/// moves by <= tol, the analysis becomes exact, or the budget cap is
/// reached: the per-probe accuracy knob for systems where exactness is
/// unaffordable. The one budget knob drives whichever condensation the
/// scheduler uses -- the EDF dlSet budget (rt::DlBoundOptions) or the
/// per-task FP scheduling-point budget (rt::FpPointOptions) -- so the
/// ladder is scheduler-agnostic.
///
/// The one-system free functions in core/integration.hpp,
/// core/sensitivity.hpp and core::solve_design(sys, ...) are thin wrappers
/// over a throwaway one-entry service. BatchEngine remains the per-system
/// probe engine underneath; the service adds the fleet, the accuracy
/// ladder, and an engine cache keyed by (system, scheduler, budget) so a
/// request menu (e.g. an overhead sweep) reuses each system's caches.

/// Per-entry wall-time budget of a request. When active, every entry's
/// accuracy ladder checks the elapsed wall time after each completed rung:
/// once the budget is spent, the ladder stops escalating and the answer of
/// the rung that just finished is returned as a *degraded* result
/// (Provenance::degraded = true, gap = null) instead of erroring or running
/// on. The deadline is checked between rungs, never mid-rung -- a rung in
/// flight always completes -- so a run overshoots its deadline by at most
/// one rung, and there is always a completed rung to degrade to (the first
/// rung runs unconditionally). Degraded answers are conservative exactly
/// like every condensed answer in the library: schedulable implies
/// schedulable, reported minQ >= exact minQ -- the monotone non-worsening
/// the ladder's rungs already guarantee.
///
/// Fixed policies run a single rung and are unaffected: a deadline cannot
/// shrink one probe, only stop an adaptive ladder from starting more.
struct Deadline {
  double wall_ms = 0.0;  ///< per-entry wall-clock budget; <= 0 = no deadline

  bool active() const noexcept { return wall_ms > 0.0; }
};

/// Per-request accuracy policy; default-constructed == fixed at the
/// library-default budget (the bit-for-bit parity configuration).
struct AccuracyPolicy {
  /// One probe at `points` (0 = the scheduler's library default:
  /// rt::kDefaultDlPointBudget for EDF, rt::kDefaultFpPointBudget for FP).
  static AccuracyPolicy fixed(std::size_t points = 0) noexcept {
    AccuracyPolicy p;
    p.initial_points = points;
    return p;
  }

  /// Re-probe with a doubled budget until the answer moves <= `tol`
  /// between consecutive rounds (or the analysis becomes exact, or
  /// `max_points` is hit). `initial_points` seeds the ladder low so cheap
  /// answers stay cheap.
  static AccuracyPolicy adaptive(double tol,
                                 std::size_t initial_points = 1u << 10,
                                 std::size_t max_points = 1u << 20) noexcept {
    AccuracyPolicy p;
    p.is_adaptive = true;
    p.tol = tol;
    p.initial_points = initial_points;
    p.max_points = max_points;
    return p;
  }

  bool is_adaptive = false;
  /// First (adaptive) / only (fixed) point budget; 0 = library default.
  std::size_t initial_points = 0;
  /// Adaptive stop: answer moved <= tol between consecutive rounds.
  double tol = 0.0;
  /// Adaptive hard cap on the budget ladder.
  std::size_t max_points = 1u << 20;
  /// Per-entry wall-time budget with graceful degradation (see Deadline).
  Deadline deadline{};

  /// Fluent deadline attachment: policy.with_deadline(50) caps each
  /// entry's ladder at 50 ms of wall time.
  AccuracyPolicy with_deadline(double wall_ms) const noexcept {
    AccuracyPolicy p = *this;
    p.deadline.wall_ms = wall_ms;
    return p;
  }
};

/// How an answer was obtained -- attached to every result.
struct Provenance {
  /// Final probe ran on exact (full-hyperperiod) deadline sets; trivially
  /// true for FP requests (the EDF side is never consulted). When false
  /// the answer is a safe over-approximation.
  bool dl_exact = true;
  /// FP twin of dl_exact: final probe ran on full Bini-Buttazzo point
  /// sets; trivially true for EDF requests.
  bool fp_exact = true;
  /// Point budget of the final probe (dlSet budget under EDF, per-task
  /// scheduling-point budget under FP).
  std::size_t budget = 0;
  /// The per-task FP point budget of the final probe; 0 for EDF requests
  /// (whose budget is the dlSet one above).
  std::size_t fp_budget = 0;
  /// Number of accuracy rounds executed (1 under fixed).
  std::size_t probes = 1;
  /// Measured over-approximation gap. Non-null only when the final answer
  /// is trustworthy at the requested accuracy: 0 when the probe turned
  /// exact, or the last inter-round move when the adaptive ladder converged
  /// (moved <= tol). nullopt means unknown: a fixed policy on a condensed
  /// set, or an adaptive ladder that exhausted its budget cap while the
  /// answer was still moving (the last measured move says nothing about
  /// how far the capped answer sits from the exact one).
  std::optional<double> gap;
  /// True when the request's Deadline stopped the adaptive ladder before it
  /// reached exactness, convergence or the budget cap: the answer is the
  /// best completed rung's conservative answer (bit-for-bit what a fixed
  /// policy at `budget` would return), and `gap` is null because nothing
  /// bounds its distance to the exact answer. Never set by fixed policies
  /// or by ladders that finished on their own.
  bool degraded = false;
  /// Executions this entry took under a journaled run's per-entry retry
  /// (svc::run_journaled): > 1 means transient failures were retried on
  /// the deterministic backoff schedule. Always 1 outside journaled runs.
  std::size_t attempts = 1;
  /// True when a journaled run exhausted its retry budget on this entry:
  /// the row is an explicit quarantine error row (error + attempts record
  /// what happened) rather than a transient failure, and the rest of the
  /// fleet ran on. Never set when retrying is disabled (max_attempts 1).
  bool quarantined = false;
  /// True when this answer came from the process-wide content-addressed
  /// memo (svc::MemoCache) instead of running the accuracy ladder: some
  /// canonically identical system was already solved with this request
  /// anywhere in the process. Rendered only when true, and only next to
  /// wall_ms: like wall_ms it describes this run's transport, not the
  /// answer, and every wall-free byte-identity contract (streamed ==
  /// buffered, journal resume, wire == offline, warm repeat == cold run)
  /// requires rows to read the same whether the answer was computed or
  /// replayed.
  bool cache_hit = false;
  /// Wall time of this entry's request, milliseconds.
  double wall_ms = 0.0;
};

inline constexpr std::size_t kNoTrial = static_cast<std::size_t>(-1);

/// Fields shared by every result row.
struct ResultBase {
  std::size_t system = 0;      ///< entry index within the service fleet
  std::string name;            ///< entry name (file, "trial<k>", ...)
  std::size_t trial = kNoTrial;  ///< global trial id for generated entries
  /// Non-empty when the request produced no answer for this entry:
  /// generation/packing failed, the model was rejected, or the entry's
  /// analysis threw -- *any* exception, not just flexrt::Error, becomes an
  /// error row rather than escaping into the thread pool (a std::bad_alloc
  /// or stray library exception must never lose the entry or wedge a
  /// streaming run's ordered gate).
  std::string error;
  Provenance prov;

  bool ok() const noexcept { return error.empty(); }
};

// --- requests -------------------------------------------------------------

/// Solve the §3.3/§4 design problem (== core::solve_design).
struct SolveRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::Overheads overheads{};
  core::DesignGoal goal = core::DesignGoal::MinOverheadBandwidth;
  core::SearchOptions search{};
  AccuracyPolicy accuracy{};
};

struct SolveResult : ResultBase {
  bool feasible = false;
  /// Why the design is infeasible (when ok() && !feasible).
  std::string infeasible;
  core::Design design{};  ///< valid iff feasible
};

/// Per-mode minimum quanta and the Eq. 15 margin at one period.
struct MinQuantumRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  double period = 1.0;
  bool use_exact_supply = false;
  AccuracyPolicy accuracy{};
};

struct MinQuantumResult : ResultBase {
  /// minQ per mode, indexed FT, FS, NF (core::kAllModes order).
  std::array<double, 3> mode_quantum{};
  /// lhs(P) = P - sum of the quanta (== core::feasibility_margin).
  double margin = 0.0;
};

/// The Figure-4 curve lhs(P) over a period grid (== core::sample_region).
struct RegionSweepRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::SearchOptions search{};
  AccuracyPolicy accuracy{};
};

struct RegionSweepResult : ResultBase {
  std::vector<core::RegionSample> samples;
};

/// WCET scale margins of a finished schedule (== core::sensitivity_report /
/// wcet_scale_margin / global_scale_margin).
struct SensitivityRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::ModeSchedule schedule{};
  /// Non-empty: only this task's margin (global margin is skipped).
  std::string task;
  /// Also compute the all-tasks-simultaneously margin (ignored for a
  /// named task). Off when the caller only wants the per-task report.
  bool include_global = true;
  double lambda_max = 16.0;
  double tolerance = 1e-4;  ///< bisection tolerance (named task / global)
  AccuracyPolicy accuracy{};
};

struct SensitivityResult : ResultBase {
  /// One row per task (system iteration order), or a single row for a
  /// named task.
  std::vector<core::TaskMargin> margins;
  /// All-tasks-simultaneously margin; computed only when `task` is empty.
  double global_margin = 0.0;
};

/// Eq. 12-14 schedulability of an explicit schedule (== BatchEngine::verify).
/// Under adaptive accuracy a condensed "no" is re-probed at larger budgets
/// (a condensed "yes" is already definitive).
struct VerifyRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::ModeSchedule schedule{};
  bool use_exact_supply = false;
  AccuracyPolicy accuracy{};
};

struct VerifyResult : ResultBase {
  bool schedulable = false;
};

/// Fault-tolerance sweep (paper §2.1 made a fleet workload): solve the
/// nominal design, then sweep the fault::FaultModel rate and report, per
/// rate, schedulability under the fault model's recovery demand for each
/// task class -- FT masks (no extra demand), FS detects-and-silences (the
/// affected job re-executes: fault::recovery_task demand added to every FS
/// channel), NF corrupts (timing unchanged, output integrity degrades by
/// fault::corruption_exposure) -- side by side with the software baselines
/// the paper argues against: baseline::primary_backup (active backups,
/// rate-independent, doubled load) and the three baseline::StaticConfig
/// platforms (static-FS pays the same recovery demand on its permanent
/// couples).
struct FaultSweepRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  /// Fault rates (lambda, faults per time unit) to sweep; >= 0 each.
  std::vector<double> rates;
  /// FaultModel::min_separation of the swept models: the hard floor of the
  /// guaranteed inter-fault gap (fault::recovery_gap).
  double min_separation = 1.0;
  core::Overheads overheads{};
  core::DesignGoal goal = core::DesignGoal::MinOverheadBandwidth;
  core::SearchOptions search{};
  /// Exact slot supply for the per-rate FS channel checks (default: the
  /// linear supply bound, matching verify's default).
  bool use_exact_supply = false;
  /// Also evaluate the primary/backup and static-configuration baselines.
  bool with_baselines = true;
  AccuracyPolicy accuracy{};
};

/// One swept rate's verdicts. Flexible-platform fields assume the nominal
/// design (FaultSweepResult::schedule); baseline fields are admission
/// verdicts on the baseline platforms and are present only when
/// with_baselines.
struct FaultRatePoint {
  double rate = 0.0;
  /// Guaranteed inter-fault gap the recovery demand assumes (+inf at rate 0).
  double recovery_gap = 0.0;
  bool ft_ok = false;  ///< FT class: faults masked, design guarantee holds
  bool fs_ok = false;  ///< FS class: channels schedulable incl. recovery demand
  bool nf_ok = false;  ///< NF class: timing guarantee holds (outputs may corrupt)
  /// Expected corrupting faults per time unit (NF integrity metric).
  double nf_exposure = 0.0;
  bool pb_ok = false;         ///< primary/backup baseline schedulable
  bool static_ft_ok = false;  ///< all-FT static platform hosts the app
  bool static_fs_ok = false;  ///< all-FS static platform, recovery demand incl.
  bool static_nf_ok = false;  ///< all-NF static platform hosts the app
};

struct FaultSweepResult : ResultBase {
  bool feasible = false;  ///< nominal design exists (prov covers its ladder)
  /// Why the nominal design is infeasible (when ok() && !feasible; the
  /// sweep then has no points -- there is no schedule to degrade from).
  std::string infeasible;
  core::ModeSchedule schedule{};  ///< the nominal design, valid iff feasible
  std::vector<FaultRatePoint> points;  ///< one per requested rate, in order
};

// --- the service ----------------------------------------------------------

/// What a fleet run reports back: every row was delivered to the sink (in
/// entry order), so the stats describe the transport, not the answers.
/// `max_buffered <= window` is the bounded-memory guarantee the
/// stream_fleet bench row tracks against the fleet size.
struct StreamStats {
  std::size_t emitted = 0;       ///< results delivered to the sink
  std::size_t window = 0;        ///< reorder window in force
  std::size_t max_buffered = 0;  ///< reorder-buffer high-water mark
};

class AnalysisService {
 public:
  /// Builds one trial system (or nullopt when packing fails) -- the
  /// per-trial recipe of a generated fleet. Must be deterministic in
  /// (trial, rng), and rng comes from core::trial_rng, so fleets are
  /// identical across shard layouts and thread counts.
  using SystemFactory =
      std::function<std::optional<core::ModeTaskSystem>(std::size_t trial,
                                                        Rng& rng)>;

  AnalysisService() = default;
  /// A one-entry fleet around `sys`: what the core:: one-shot wrappers
  /// (integration/sensitivity/solve_design) run their request against.
  explicit AnalysisService(core::ModeTaskSystem sys) {
    add_system(std::move(sys));
  }
  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Adds one system; returns its entry index.
  std::size_t add_system(core::ModeTaskSystem sys, std::string name = {});

  /// Packs a flat task set onto the platform channels (gen::build_system)
  /// and adds it. Throws InfeasibleError when the packing fails.
  std::size_t add_task_set(const rt::TaskSet& ts, std::string name = {},
                           const part::PackOptions& pack = {});

  /// Adds this shard's slice of a generated trial study: one entry per
  /// global trial in shard_range(study.trials, study.shard), named
  /// "<prefix><trial>", built by `make` with the layout-independent
  /// trial_rng stream. Trials whose factory returns nullopt become
  /// answer-less entries (results carry error "packing failed"), keeping
  /// trial accounting intact across shards. Returns the first entry index.
  std::size_t add_fleet(const core::StudyOptions& study,
                        const SystemFactory& make,
                        const std::string& prefix = "trial");

  std::size_t size() const noexcept { return entries_.size(); }
  const std::string& name(std::size_t i) const { return entries_.at(i).name; }
  /// Global trial id of a generated entry, kNoTrial otherwise.
  std::size_t trial(std::size_t i) const { return entries_.at(i).trial; }
  bool has_system(std::size_t i) const {
    return entries_.at(i).system.has_value();
  }
  const core::ModeTaskSystem& system(std::size_t i) const;

  // One request runner in three forms. run_one(i, req) answers one entry:
  // the memo lookup, the accuracy ladder and the per-type analysis body,
  // with any failure turned into an error row. run(req, sink, window)
  // runs it for every entry across the par::parallel_for pool and hands
  // each result to `sink` in entry order through a bounded reorder buffer
  // (par::ordered_stream; window 0 = the library default, a small multiple
  // of the thread count), so peak result memory is O(window), not
  // O(fleet) -- the enabler for 10^5+-trial studies. run(req) is that same
  // stream collected into a vector: buffered == streamed by construction.
  SolveResult run_one(std::size_t i, const SolveRequest& req) const;
  MinQuantumResult run_one(std::size_t i, const MinQuantumRequest& req) const;
  RegionSweepResult run_one(std::size_t i,
                            const RegionSweepRequest& req) const;
  SensitivityResult run_one(std::size_t i,
                            const SensitivityRequest& req) const;
  VerifyResult run_one(std::size_t i, const VerifyRequest& req) const;
  FaultSweepResult run_one(std::size_t i, const FaultSweepRequest& req) const;

  /// The sink is called once per entry, in entry order, with the result as
  /// an rvalue, from whichever worker is emitting -- one call at a time
  /// (ordered_stream serializes emission), so a sink writing a single
  /// ostream needs no locking of its own.
  template <typename Request, typename Sink>
  StreamStats run(const Request& req, const Sink& sink,
                  std::size_t window = 0) const {
    StreamStats stats;
    stats.window = window ? window : par::default_stream_window();
    stats.max_buffered = par::ordered_stream(
        size(), stats.window, [&](std::size_t i) { return run_one(i, req); },
        [&](std::size_t, auto&& result) {
          sink(std::move(result));
          ++stats.emitted;
        });
    return stats;
  }

  template <typename Request>
  auto run(const Request& req) const {
    std::vector<decltype(run_one(0, req))> out;
    out.reserve(size());
    run(req, [&](auto&& result) { out.push_back(std::move(result)); });
    return out;
  }

  // Named streaming forms of two request types, kept only because the
  // benchmark's replay program (flexbench/trace_driver.cpp) calls them and
  // must build unchanged; everything else calls run().
  template <typename Sink>
  StreamStats solve(const SolveRequest& req, const Sink& sink,
                    std::size_t window = 0) const {
    return run(req, sink, window);
  }
  template <typename Sink>
  StreamStats min_quantum(const MinQuantumRequest& req, const Sink& sink,
                          std::size_t window = 0) const {
    return run(req, sink, window);
  }

  /// Deterministic fault-injection hook for executor hardening tests: when
  /// set, called at the *start of every accuracy round* of every entry's
  /// ladder, with (entry index, 1-based round). A hook that throws models a
  /// failing analysis (the entry becomes an error row -- see
  /// ResultBase::error); a hook that sleeps models a stalling one (an
  /// active Deadline then degrades the entry). Test-only by intent: not
  /// synchronized against in-flight requests, so set it before issuing
  /// work. Pass nullptr to clear.
  using ProbeHook = std::function<void(std::size_t entry, std::size_t round)>;
  void set_probe_hook(ProbeHook hook) { probe_hook_ = std::move(hook); }

  /// The cached per-(entry, scheduler, budget) probe engine -- the escape
  /// hatch for engine-level probes the typed requests do not cover
  /// (max_admissible_overhead, one-task margins, ...). `max_points` 0
  /// means the scheduler's library default budget (dlSet budget for EDF,
  /// per-task scheduling-point budget for FP). Engines are immutable and
  /// safe to probe concurrently. The reference stays valid while the
  /// engine is resident in the bounded cache -- callers that probe across
  /// many budgets on a shared service should pin via engine_ptr instead.
  const analysis::BatchEngine& engine(std::size_t i, hier::Scheduler alg,
                                      std::size_t max_points = 0) const {
    return *engine_ptr(i, alg, max_points);
  }

  /// Shared-ownership variant: the engine outlives any cache eviction as
  /// long as the returned pointer does (what the accuracy ladders hold
  /// across a probe).
  std::shared_ptr<const analysis::BatchEngine> engine_ptr(
      std::size_t i, hier::Scheduler alg, std::size_t max_points = 0) const;

  /// Canonical form of an entry's system (empty hash for answer-less
  /// entries): the system half of the memo key, computed once at add time.
  const rt::CanonicalSystem& canonical(std::size_t i) const {
    return entries_.at(i).canon;
  }

 private:
  struct Entry {
    std::string name;
    std::size_t trial = kNoTrial;
    std::optional<core::ModeTaskSystem> system;
    std::string error;  ///< why `system` is absent
    rt::CanonicalSystem canon{};  ///< hash/scale of `system` (if present)
  };

  /// (entry, scheduler, dlSet budget) -> engine.
  using EngineKey = std::tuple<std::size_t, int, std::size_t>;

  /// Resident-engine bound of the cache: a long-lived daemon session
  /// cannot grow engine memory without bound. Oldest engines are evicted
  /// first; shared_ptr ownership keeps an engine alive for any ladder that
  /// pinned it before eviction.
  static constexpr std::size_t kEngineCapacity = 8192;

  template <typename Result, typename Body>
  Result run_entry(std::size_t i, Body&& body) const;

  /// Memo-aware wrapper of run_entry: consult the process-wide answer
  /// cache under the canonical (system, request) key, fall back to `body`
  /// on a miss, and publish cacheable answers. Defined in the .cpp (all
  /// instantiations live there).
  template <typename Result, typename Request, typename Body>
  Result memoized(std::size_t i, const Request& req, Body&& body) const;

  /// The accuracy ladder of entry i: probes the cached engines at the
  /// policy's budget rungs until an answer stops it (defined in the .cpp).
  template <typename Value, typename Probe, typename Move, typename Settled>
  Value run_ladder(std::size_t i, hier::Scheduler alg,
                   const AccuracyPolicy& pol, const Probe& probe,
                   const Move& move, const Settled& settled,
                   Provenance& prov) const;

  /// The design ladder of a solve request on entry i (nullopt and `why`
  /// when infeasible): solve's whole analysis and fault-sweep's nominal
  /// phase.
  std::optional<core::Design> design(std::size_t i, const SolveRequest& req,
                                     Provenance& prov, std::string& why) const;

  std::vector<Entry> entries_;
  ProbeHook probe_hook_;
  /// The engine cache. Held only to find or insert: engines are built
  /// outside it, so fleet workers contend on a map lookup, not a build.
  mutable sys::Mutex engines_mu_;
  mutable std::map<EngineKey, std::shared_ptr<const analysis::BatchEngine>>
      engines_ GUARDED_BY(engines_mu_);
  /// insertion order; front evicts first
  mutable std::deque<EngineKey> engine_order_ GUARDED_BY(engines_mu_);
};

}  // namespace flexrt::svc

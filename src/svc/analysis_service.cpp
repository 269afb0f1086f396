#include "svc/analysis_service.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "baseline/primary_backup.hpp"
#include "baseline/static_config.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fault/recovery.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/memo_cache.hpp"

namespace flexrt::svc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

rt::CanonicalSystem canonicalize(const core::ModeTaskSystem& sys) {
  rt::CanonicalBuilder b;
  for (const rt::Mode mode : core::kAllModes) {
    b.add_group(static_cast<std::uint64_t>(mode), sys.partitions(mode));
  }
  return b.finish();
}

std::size_t resolve_budget(std::size_t points, hier::Scheduler alg) noexcept {
  if (points) return points;
  return alg == hier::Scheduler::FP ? rt::kDefaultFpPointBudget
                                    : rt::kDefaultDlPointBudget;
}

/// Fills the provenance of one probe round from the engine that ran it.
/// Asked *after* probing, so the exactness answers describe the
/// materialized caches (see BatchEngine::dl_exact).
bool record_probe(const analysis::BatchEngine& eng, std::size_t round,
                  std::size_t budget, Provenance& prov) {
  prov.probes = round;
  prov.budget = budget;
  prov.dl_exact = eng.dl_exact();
  prov.fp_exact = eng.fp_exact();
  prov.fp_budget =
      eng.scheduler() == hier::Scheduler::FP ? eng.fp_options().max_points : 0;
  return prov.dl_exact && prov.fp_exact;
}

/// The `settled` argument of every ladder whose condensed answers are
/// never definitive on their own.
constexpr auto kNeverSettled = [](const auto&) { return false; };

double array_move(const std::array<double, 3>& a, const std::array<double, 3>& b) {
  double m = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) m = std::max(m, std::abs(a[k] - b[k]));
  return m;
}

// --- memo keys ------------------------------------------------------------
//
// The request half of the memo key. Time-dimensioned parameters hash
// through CanonicalSystem::time so a request against a rescaled twin
// system produces the same key; dimensionless knobs hash raw. Every
// request type leads with a distinct tag, so identical parameter lists of
// different kinds cannot alias. The deadline is absent by construction:
// deadline-active requests bypass the memo entirely (degraded answers are
// wall-clock-dependent and must never be replayed as definitive).

void hash_policy(rt::HashStream& h, const AccuracyPolicy& pol,
                 hier::Scheduler alg) {
  h.u64(static_cast<std::uint64_t>(alg))
      .boolean(pol.is_adaptive)
      .u64(resolve_budget(pol.initial_points, alg))
      .f64(pol.tol)
      .u64(pol.max_points);
}

void hash_search(rt::HashStream& h, const rt::CanonicalSystem& c,
                 const core::SearchOptions& s) {
  c.time(h, s.p_min);
  if (s.p_max > 0.0) {
    c.time(h, s.p_max);
  } else {
    h.f64(s.p_max);  // auto range: scale-free sentinel
  }
  c.time(h, s.grid_step);
  c.time(h, s.tolerance);
  h.boolean(s.use_exact_supply);
}

void hash_overheads(rt::HashStream& h, const rt::CanonicalSystem& c,
                    const core::Overheads& o) {
  c.time(h, o.ft);
  c.time(h, o.fs);
  c.time(h, o.nf);
}

void hash_schedule(rt::HashStream& h, const rt::CanonicalSystem& c,
                   const core::ModeSchedule& s) {
  c.time(h, s.period);
  for (const core::Slot* slot : {&s.ft, &s.fs, &s.nf}) {
    c.time(h, slot->usable);
    c.time(h, slot->overhead);
  }
}

void hash_request(rt::HashStream& h, const rt::CanonicalSystem& c,
                  const SolveRequest& r) {
  h.u64(1);
  hash_policy(h, r.accuracy, r.alg);
  hash_overheads(h, c, r.overheads);
  h.u64(static_cast<std::uint64_t>(r.goal));
  hash_search(h, c, r.search);
}

void hash_request(rt::HashStream& h, const rt::CanonicalSystem& c,
                  const MinQuantumRequest& r) {
  h.u64(2);
  hash_policy(h, r.accuracy, r.alg);
  c.time(h, r.period);
  h.boolean(r.use_exact_supply);
}

void hash_request(rt::HashStream& h, const rt::CanonicalSystem& c,
                  const RegionSweepRequest& r) {
  h.u64(3);
  hash_policy(h, r.accuracy, r.alg);
  hash_search(h, c, r.search);
}

void hash_request(rt::HashStream& h, const rt::CanonicalSystem& c,
                  const SensitivityRequest& r) {
  h.u64(4);
  hash_policy(h, r.accuracy, r.alg);
  hash_schedule(h, c, r.schedule);
  h.str(r.task).boolean(r.include_global).f64(r.lambda_max).f64(r.tolerance);
}

void hash_request(rt::HashStream& h, const rt::CanonicalSystem& c,
                  const VerifyRequest& r) {
  h.u64(5);
  hash_policy(h, r.accuracy, r.alg);
  hash_schedule(h, c, r.schedule);
  h.boolean(r.use_exact_supply);
}

void hash_request(rt::HashStream& h, const rt::CanonicalSystem& c,
                  const FaultSweepRequest& r) {
  h.u64(6);
  hash_policy(h, r.accuracy, r.alg);
  h.u64(r.rates.size());
  for (const double rate : r.rates) c.inverse_time(h, rate);
  c.time(h, r.min_separation);
  hash_overheads(h, c, r.overheads);
  h.u64(static_cast<std::uint64_t>(r.goal));
  hash_search(h, c, r.search);
  h.boolean(r.use_exact_supply).boolean(r.with_baselines);
}

// --- cross-scale rescaling ------------------------------------------------
//
// A memo hit whose producer ran at a different canonical time scale maps
// the stored answer back by multiplying every time-dimensioned field by
// k = consumer_scale / producer_scale (rates and exposures divide).
// Same-scale hits -- every identical repeat -- skip this entirely and
// return the stored payload verbatim, which is what makes warm output
// bit-identical to cold output.

void rescale_schedule(core::ModeSchedule& s, double k) {
  s.period *= k;
  for (core::Slot* slot : {&s.ft, &s.fs, &s.nf}) {
    slot->usable *= k;
    slot->overhead *= k;
  }
}

void rescale_gap(Provenance& prov, double k) {
  if (prov.gap) *prov.gap *= k;
}

void rescale_payload(SolveResult& r, double k) {
  if (r.feasible) {
    rescale_schedule(r.design.schedule, k);
    r.design.min_quantum_ft *= k;
    r.design.min_quantum_fs *= k;
    r.design.min_quantum_nf *= k;
  }
  rescale_gap(r.prov, k);  // ladder move: a period distance
}

void rescale_payload(MinQuantumResult& r, double k) {
  for (double& q : r.mode_quantum) q *= k;
  r.margin *= k;
  rescale_gap(r.prov, k);
}

void rescale_payload(RegionSweepResult& r, double k) {
  for (core::RegionSample& s : r.samples) {
    s.period *= k;
    s.margin *= k;
  }
  rescale_gap(r.prov, k);
}

void rescale_payload(SensitivityResult& r, double k) {
  for (core::TaskMargin& m : r.margins) m.wcet *= k;
  // scale_margin, global_margin and the ladder gap are dimensionless.
}

void rescale_payload(VerifyResult&, double) {}  // verdict only

void rescale_payload(FaultSweepResult& r, double k) {
  if (r.feasible) rescale_schedule(r.schedule, k);
  for (FaultRatePoint& p : r.points) {
    p.rate /= k;
    p.recovery_gap *= k;  // +inf at rate 0 stays +inf
    p.nf_exposure /= k;
  }
  rescale_gap(r.prov, k);  // design-phase ladder move: a period distance
}

}  // namespace

std::size_t AnalysisService::add_system(core::ModeTaskSystem sys,
                                        std::string name) {
  Entry e;
  e.name = name.empty() ? "system" + std::to_string(entries_.size())
                        : std::move(name);
  e.system = std::move(sys);
  e.canon = canonicalize(*e.system);
  entries_.push_back(std::move(e));
  return entries_.size() - 1;
}

std::size_t AnalysisService::add_task_set(const rt::TaskSet& ts,
                                          std::string name,
                                          const part::PackOptions& pack) {
  std::optional<core::ModeTaskSystem> sys = gen::build_system(ts, pack);
  if (!sys) {
    throw InfeasibleError("task set does not pack onto the platform channels");
  }
  return add_system(std::move(*sys), std::move(name));
}

std::size_t AnalysisService::add_fleet(const core::StudyOptions& study,
                                       const SystemFactory& make,
                                       const std::string& prefix) {
  FLEXRT_REQUIRE(static_cast<bool>(make), "fleet factory must be callable");
  const auto [begin, end] = core::shard_range(study.trials, study.shard);
  const std::size_t first = entries_.size();
  for (std::size_t t = begin; t < end; ++t) {
    Rng rng = core::trial_rng(study.base_seed, t);
    Entry e;
    e.name = prefix + std::to_string(t);
    e.trial = t;
    e.system = make(t, rng);
    if (!e.system) {
      e.error = "packing failed";
    } else {
      e.canon = canonicalize(*e.system);
    }
    entries_.push_back(std::move(e));
  }
  return first;
}

const core::ModeTaskSystem& AnalysisService::system(std::size_t i) const {
  const Entry& e = entries_.at(i);
  FLEXRT_REQUIRE(e.system.has_value(),
                 "entry " + e.name + " has no system: " + e.error);
  return *e.system;
}

std::shared_ptr<const analysis::BatchEngine> AnalysisService::engine_ptr(
    std::size_t i, hier::Scheduler alg, std::size_t max_points) const {
  const core::ModeTaskSystem& sys = system(i);  // validates the entry
  const std::size_t budget = resolve_budget(max_points, alg);
  const EngineKey key{i, static_cast<int>(alg), budget};
  {
    sys::MutexLock lock(engines_mu_);
    const auto it = engines_.find(key);
    if (it != engines_.end()) return it->second;
  }
  // Construct outside the lock -- fleet requests hit this from every
  // worker at once, and serializing the task-set snapshots would bottleneck
  // the fan-out. A losing duplicate is simply discarded. The one budget
  // feeds whichever condensation the scheduler consults (dlSet under EDF,
  // per-task scheduling points under FP).
  rt::DlBoundOptions dl_opts;
  dl_opts.max_points = budget;
  rt::FpPointOptions fp_opts;
  fp_opts.max_points = budget;
  auto built =
      std::make_shared<const analysis::BatchEngine>(sys, alg, dl_opts,
                                                    fp_opts);
  sys::MutexLock lock(engines_mu_);
  const auto [it, inserted] = engines_.emplace(key, std::move(built));
  if (inserted) {
    engine_order_.push_back(key);
    // Oldest-first eviction keeps a long-lived session's engine memory
    // bounded; in-flight ladders hold their own shared_ptr pins.
    while (engine_order_.size() > kEngineCapacity) {
      engines_.erase(engine_order_.front());
      engine_order_.pop_front();
    }
  }
  return it->second;
}

template <typename Result, typename Body>
Result AnalysisService::run_entry(std::size_t i, Body&& body) const {
  Result out;
  const Entry& e = entries_.at(i);
  out.system = i;
  out.name = e.name;
  out.trial = e.trial;
  const par::StopWatch clock;
  if (!e.system) {
    out.error = e.error.empty() ? "entry has no system" : e.error;
  } else {
    // Catch-all, not just flexrt::Error: a fleet entry's analysis may throw
    // anything (bad_alloc, a stray library exception, an injected fault),
    // and an escaping exception would lose the entry -- or wedge a
    // streaming run's ordered gate, which waits on every ticket. Every
    // failure becomes an error row instead.
    try {
      body(out);
    } catch (const std::exception& err) {  // flexrt::Error included
      out.error = err.what();
    } catch (...) {
      out.error = "unknown exception";
    }
  }
  out.prov.wall_ms = clock.elapsed_ms();
  return out;
}

template <typename Result, typename Request, typename Body>
Result AnalysisService::memoized(std::size_t i, const Request& req,
                                 Body&& body) const {
  const Entry& e = entries_.at(i);
  MemoCache& memo = global_memo();
  // The memo stays out of the way whenever replaying could change
  // semantics: answer-less entries (error rows carry entry context),
  // injection hooks (hardening tests count ladder rounds), and
  // deadline-active requests (wall-clock-dependent, possibly degraded).
  const bool use_memo = e.system.has_value() && memo.enabled() &&
                        !probe_hook_ && !req.accuracy.deadline.active();
  rt::Hash128 key{};
  rt::Hash128 raw{};
  if (use_memo) {
    rt::HashStream h;
    h.u64(e.canon.hash.hi).u64(e.canon.hash.lo);
    hash_request(h, e.canon, req);
    key = h.digest();
    rt::HashStream raw_h;
    raw_h.u64(e.canon.exact.hi).u64(e.canon.exact.lo);
    hash_request(raw_h, rt::CanonicalSystem{}, req);
    raw = raw_h.digest();
    const par::StopWatch clock;
    if (std::optional<MemoValue> hit = memo.lookup(key, e.canon.scale, raw)) {
      if (Result* payload = std::get_if<Result>(&hit->payload)) {
        Result out = std::move(*payload);
        out.system = i;
        out.name = e.name;
        out.trial = e.trial;
        // Same producer scale -- every identical repeat -- returns the
        // stored answer verbatim (bit-identical to recomputation); a
        // rescaled twin maps time-dimensioned fields by the scale ratio.
        if (e.canon.scale != hit->scale) {
          rescale_payload(out, e.canon.scale / hit->scale);
        }
        out.prov.cache_hit = true;
        out.prov.wall_ms = clock.elapsed_ms();
        return out;
      }
      // A different result type under this key would be a tag collision;
      // treat it as a miss and recompute (never replay a wrong shape).
    }
  }
  Result out = run_entry<Result>(i, std::forward<Body>(body));
  if (use_memo && out.ok() && !out.prov.degraded) {
    MemoValue v;
    Result stored = out;
    stored.system = 0;      // identity belongs to the asking entry
    stored.name.clear();
    stored.trial = kNoTrial;
    stored.prov.wall_ms = 0.0;  // transport, not answer
    v.scale = e.canon.scale;
    v.raw = raw;
    v.payload = std::move(stored);
    memo.insert(key, std::move(v));
  }
  return out;
}

/// Drives the accuracy ladder for entry i: probe at the initial budget,
/// then (adaptive only) re-probe at doubled budgets until the answer is
/// exact, settled, stops moving (move <= tol), or the cap is reached.
/// `move` returns the distance between consecutive answers; +inf means
/// "not comparable, keep refining" (e.g. the feasibility verdict flipped).
/// `settled(value)` marks an answer that is definitive even when condensed
/// (verify's "schedulable": a condensed yes is safe), under any policy.
///
/// Gap semantics: prov.gap is set only when the final answer is trustworthy
/// at the requested accuracy -- 0 when the probe turned exact or settled,
/// the last inter-round move when the ladder converged (<= tol). A ladder
/// that exhausts the budget cap while the answer is still moving reports
/// nullopt: the last measured move bounds nothing about the distance to the
/// exact answer, so reporting it as "the gap" would overstate the capped
/// answer's accuracy.
///
/// Deadline semantics: an active pol.deadline is checked *after* the other
/// stop conditions and only between rungs, so a ladder that would finish
/// anyway reports its natural outcome, the first rung always completes
/// (there is always an answer to degrade to), and a run overshoots its
/// budget by at most one rung. Deadline degradation looks like a capped
/// ladder (gap nullopt, answer == fixed(final budget) bit for bit) plus
/// prov.degraded = true.
///
/// The probe hook (set_probe_hook) fires at the start of every round,
/// before the probe -- the deterministic injection point the
/// executor-hardening tests use to throw or stall at a chosen entry/round.
template <typename Value, typename Probe, typename Move, typename Settled>
Value AnalysisService::run_ladder(std::size_t i, hier::Scheduler alg,
                                  const AccuracyPolicy& pol, const Probe& probe,
                                  const Move& move, const Settled& settled,
                                  Provenance& prov) const {
  const par::StopWatch clock;
  std::size_t budget = resolve_budget(pol.initial_points, alg);
  const std::size_t cap = std::max(budget, pol.max_points);
  Value value{};
  std::optional<Value> prev;
  for (std::size_t round = 1;; ++round) {
    if (probe_hook_) probe_hook_(i, round);
    // Pinned for the whole round: the bounded engine cache may evict
    // concurrently, and the probe must outlive any eviction.
    const std::shared_ptr<const analysis::BatchEngine> pinned =
        engine_ptr(i, alg, budget);
    const analysis::BatchEngine& eng = *pinned;
    value = probe(eng);
    if (record_probe(eng, round, budget, prov) || settled(value)) {
      prov.gap = 0.0;
      break;
    }
    if (!pol.is_adaptive) {
      prov.gap = std::nullopt;  // condensed one-shot: gap unknown
      break;
    }
    if (prev) {
      const double m = move(*prev, value);
      if (m <= pol.tol) {
        prov.gap = m;  // converged: the last move is the measured gap
        break;
      }
    }
    if (budget >= cap) {
      prov.gap = std::nullopt;  // exhausted while still moving: gap unknown
      break;
    }
    if (pol.deadline.active() && clock.elapsed_ms() >= pol.deadline.wall_ms) {
      prov.degraded = true;  // out of wall time: settle for this rung
      prov.gap = std::nullopt;
      break;
    }
    prev = std::move(value);
    budget = rt::next_budget_rung(budget, cap);
  }
  return value;
}

std::optional<core::Design> AnalysisService::design(std::size_t i,
                                                    const SolveRequest& req,
                                                    Provenance& prov,
                                                    std::string& why) const {
  // The probed value is the designed schedule (nullopt: infeasible at this
  // budget); the ladder compares consecutive periods.
  using Value = std::optional<core::Design>;
  return run_ladder<Value>(
      i, req.alg, req.accuracy,
      [&](const analysis::BatchEngine& eng) -> Value {
        try {
          return core::solve_design(eng, req.overheads, req.goal, req.search);
        } catch (const InfeasibleError& err) {
          why = err.what();
          return std::nullopt;
        }
      },
      [](const Value& a, const Value& b) {
        if (!a || !b) return kInf;  // verdict flipped / still infeasible
        return std::abs(a->schedule.period - b->schedule.period);
      },
      kNeverSettled, prov);
}

SolveResult AnalysisService::run_one(std::size_t i,
                                     const SolveRequest& req) const {
  return memoized<SolveResult>(i, req, [&](SolveResult& out) {
    std::string why;
    std::optional<core::Design> d = design(i, req, out.prov, why);
    out.feasible = d.has_value();
    if (d) {
      out.design = std::move(*d);
    } else {
      out.infeasible = std::move(why);
    }
  });
}

MinQuantumResult AnalysisService::run_one(
    std::size_t i, const MinQuantumRequest& req) const {
  return memoized<MinQuantumResult>(i, req, [&](MinQuantumResult& out) {
    out.mode_quantum = run_ladder<std::array<double, 3>>(
        i, req.alg, req.accuracy,
        [&](const analysis::BatchEngine& eng) {
          std::array<double, 3> q{};
          for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
            q[m] = eng.mode_min_quantum(core::kAllModes[m], req.period,
                                        req.use_exact_supply);
          }
          return q;
        },
        array_move, kNeverSettled, out.prov);
    out.margin = req.period - out.mode_quantum[0] - out.mode_quantum[1] -
                 out.mode_quantum[2];
  });
}

RegionSweepResult AnalysisService::run_one(
    std::size_t i, const RegionSweepRequest& req) const {
  return memoized<RegionSweepResult>(i, req, [&](RegionSweepResult& out) {
    out.samples = run_ladder<std::vector<core::RegionSample>>(
        i, req.alg, req.accuracy,
        [&](const analysis::BatchEngine& eng) {
          return eng.sample_region(req.search);
        },
        [](const std::vector<core::RegionSample>& a,
           const std::vector<core::RegionSample>& b) {
          if (a.size() != b.size()) return kInf;
          double m = 0.0;
          for (std::size_t k = 0; k < a.size(); ++k) {
            m = std::max(m, std::abs(a[k].margin - b[k].margin));
          }
          return m;
        },
        kNeverSettled, out.prov);
  });
}

SensitivityResult AnalysisService::run_one(
    std::size_t i, const SensitivityRequest& req) const {
  return memoized<SensitivityResult>(i, req, [&](SensitivityResult& out) {
    using Value = std::pair<std::vector<core::TaskMargin>, double>;
    const Value value = run_ladder<Value>(
        i, req.alg, req.accuracy,
        [&](const analysis::BatchEngine& eng) -> Value {
          if (!req.task.empty()) {
            core::TaskMargin row{req.task, rt::Mode::NF, 0.0,
                                 eng.wcet_scale_margin(req.schedule, req.task,
                                                       req.lambda_max,
                                                       req.tolerance)};
            // Fill mode/wcet from the fleet entry for a self-contained row.
            for (const rt::Mode mode : core::kAllModes) {
              for (const rt::TaskSet& ts : system(i).partitions(mode)) {
                for (const rt::Task& t : ts) {
                  if (t.name == req.task) {
                    row.mode = t.mode;
                    row.wcet = t.wcet;
                  }
                }
              }
            }
            return {{row}, 0.0};
          }
          return {eng.sensitivity_report(req.schedule, req.lambda_max),
                  req.include_global
                      ? eng.global_scale_margin(req.schedule, req.lambda_max,
                                                req.tolerance)
                      : 0.0};
        },
        [](const Value& a, const Value& b) {
          if (a.first.size() != b.first.size()) return kInf;
          double m = std::abs(a.second - b.second);
          for (std::size_t k = 0; k < a.first.size(); ++k) {
            m = std::max(m, std::abs(a.first[k].scale_margin -
                                     b.first[k].scale_margin));
          }
          return m;
        },
        kNeverSettled, out.prov);
    out.margins = value.first;
    out.global_margin = value.second;
  });
}

VerifyResult AnalysisService::run_one(std::size_t i,
                                      const VerifyRequest& req) const {
  return memoized<VerifyResult>(i, req, [&](VerifyResult& out) {
    // A condensed "schedulable" is already safe and definitive (settled);
    // a condensed "no" never converges, so adaptive accuracy escalates it
    // until it turns exact or settles, or the cap or deadline stops it.
    out.schedulable = run_ladder<bool>(
        i, req.alg, req.accuracy,
        [&](const analysis::BatchEngine& eng) {
          return eng.verify(req.schedule, req.use_exact_supply);
        },
        [](bool, bool) { return kInf; },
        [](bool schedulable) { return schedulable; }, out.prov);
  });
}

FaultSweepResult AnalysisService::run_one(
    std::size_t i, const FaultSweepRequest& req) const {
  return memoized<FaultSweepResult>(i, req, [&](FaultSweepResult& out) {
    // Phase 1: the nominal design, solve's ladder (the request's
    // accuracy/deadline policy governs this phase; the per-rate checks below
    // run on fixed bounded contexts and need no ladder).
    std::string why;
    const std::optional<core::Design> d = design(
        i, {req.alg, req.overheads, req.goal, req.search, req.accuracy},
        out.prov, why);
    out.feasible = d.has_value();
    if (!d) {
      out.infeasible = std::move(why);
      return;  // no schedule: nothing to sweep
    }
    out.schedule = d->schedule;

    // Phase 2: rate-independent work, once per entry.
    const core::ModeTaskSystem& sys = system(i);
    rt::TaskSet all_tasks;
    for (const rt::Mode mode : core::kAllModes) {
      for (const rt::Task& t : sys.mode_tasks(mode)) all_tasks.add(t);
    }
    const double u_nf = sys.mode_tasks(rt::Mode::NF).utilization();
    bool pb_ok = false, static_ft_ok = false, static_nf_ok = false;
    std::optional<std::vector<rt::TaskSet>> static_fs_bins;
    if (req.with_baselines) {
      // PB is fault-rate independent (active backups; see primary_backup.hpp)
      // and so are AllFT (faults masked) and AllNF (timing unaffected); only
      // AllFS pays a per-rate recovery demand, re-tested per point below.
      pb_ok = baseline::try_primary_backup(all_tasks, req.alg);
      static_ft_ok =
          baseline::try_static(all_tasks, baseline::StaticConfig::AllFT,
                               req.alg)
              .schedulable;
      static_nf_ok =
          baseline::try_static(all_tasks, baseline::StaticConfig::AllNF,
                               req.alg)
              .schedulable;
      static_fs_bins = baseline::static_partition(
          all_tasks, baseline::StaticConfig::AllFS);
    }

    // Phase 3: per-rate verdicts under the fault model's recovery demand.
    out.points.reserve(req.rates.size());
    for (const double rate : req.rates) {
      FaultRatePoint p;
      p.rate = rate;
      p.recovery_gap =
          fault::recovery_gap(fault::FaultModel{rate, req.min_separation});
      // FT: the 4-way lock-step channel masks every single transient fault,
      // so the designed guarantee holds at any swept rate. NF: a strike
      // corrupts output but never timing; the guarantee holds, integrity
      // degrades by the exposure metric.
      p.ft_ok = true;
      p.nf_ok = true;
      p.nf_exposure = fault::corruption_exposure(rate, u_nf);
      // FS: each channel must absorb one re-execution per recovery gap
      // within its designed slot supply. Empty channels need no supply (a
      // design without FS tasks has Q_FS = 0, no valid supply to build);
      // tasks without usable FS time fail, as in core::verify_schedule.
      p.fs_ok = sys.mode_tasks(rt::Mode::FS).empty() ||
                out.schedule.fs.usable > 0.0;
      for (const rt::TaskSet& channel : sys.partitions(rt::Mode::FS)) {
        if (!p.fs_ok) break;
        if (channel.empty()) continue;
        p.fs_ok =
            req.use_exact_supply
                ? fault::fs_schedulable(channel, req.alg,
                                        out.schedule.exact_supply(rt::Mode::FS),
                                        p.recovery_gap)
                : fault::fs_schedulable(channel, req.alg,
                                        out.schedule.supply(rt::Mode::FS),
                                        p.recovery_gap);
      }
      if (req.with_baselines) {
        p.pb_ok = pb_ok;
        p.static_ft_ok = static_ft_ok;
        p.static_nf_ok = static_nf_ok;
        if (static_fs_bins) {
          p.static_fs_ok = true;
          for (const rt::TaskSet& bin : *static_fs_bins) {
            if (!fault::fs_schedulable_dedicated(bin, req.alg,
                                                 p.recovery_gap)) {
              p.static_fs_ok = false;
              break;
            }
          }
        }
      }
      out.points.push_back(p);
    }
  });
}

}  // namespace flexrt::svc

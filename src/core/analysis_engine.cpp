#include "core/analysis_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "hier/min_quantum.hpp"
#include "rt/priority.hpp"

namespace flexrt::analysis {

using core::kAllModes;

/// Demand-side deltas of one WCET scaling probe against one partition:
/// everything that depends on the task set is precomputed, so testing a
/// candidate lambda is one pass over cached points evaluating only
///   base + (lambda - 1) * contrib  <=  Z(t).
struct BatchEngine::ScaledProbe {
  const Partition* part = nullptr;
  hier::LinearSupply supply;
  /// EDF: utilization added per unit of (lambda - 1).
  double u_delta = 0.0;
  /// EDF: demand-line intercept added per unit of (lambda - 1); feeds the
  /// QPA tail closure on condensed deadline sets.
  double c_delta = 0.0;
  /// EDF: scaled tasks' demand at each deadline point.
  std::vector<double> edf_contrib;
  /// FP: scaled tasks' share of W_i at each scheduling point, per task i.
  std::vector<std::vector<double>> fp_contrib;
};

namespace {

bool matches(const rt::Task& t, const std::string& name) {
  return name.empty() || t.name == name;
}

}  // namespace

BatchEngine::BatchEngine(const core::ModeTaskSystem& sys, hier::Scheduler alg,
                         const rt::DlBoundOptions& dl_opts,
                         const rt::FpPointOptions& fp_opts)
    : alg_(alg),
      dl_opts_(dl_opts),
      fp_opts_(fp_opts),
      auto_p_max_(core::auto_period_bound(sys)) {
  for (const rt::Mode mode : kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        task_rows_.push_back({t.name, mode, t.wcet, 0.0});
      }
      if (ts.empty()) continue;
      mode_used_[static_cast<std::size_t>(mode)] = true;
      rt::TaskSet ordered =
          alg == hier::Scheduler::FP ? rt::sort_deadline_monotonic(ts) : ts;
      parts_.push_back({mode, std::make_unique<rt::AnalysisContext>(
                                  std::move(ordered), dl_opts, fp_opts)});
    }
  }
}

bool BatchEngine::dl_exact() const {
  if (alg_ == hier::Scheduler::FP) return true;
  for (const Partition& part : parts_) {
    if (!part.ctx->dl_exact()) return false;
  }
  return true;
}

bool BatchEngine::fp_exact() const {
  if (alg_ != hier::Scheduler::FP) return true;
  for (const Partition& part : parts_) {
    if (!part.ctx->fp_exact()) return false;
  }
  return true;
}

core::SearchOptions BatchEngine::resolve(core::SearchOptions opts) const {
  if (opts.p_max <= 0.0) opts.p_max = auto_p_max_;
  FLEXRT_REQUIRE(opts.p_min > 0.0 && opts.p_min < opts.p_max,
                 "invalid period search range");
  FLEXRT_REQUIRE(opts.grid_step > 0.0, "grid step must be > 0");
  return opts;
}

double BatchEngine::mode_min_quantum(rt::Mode mode, double period,
                                     bool use_exact_supply) const {
  double worst = 0.0;
  for (const Partition& part : parts_) {
    if (part.mode != mode) continue;
    worst = std::max(
        worst, use_exact_supply
                   ? hier::min_quantum_exact(*part.ctx, alg_, period)
                   : hier::min_quantum(*part.ctx, alg_, period));
  }
  return worst;
}

double BatchEngine::feasibility_margin(double period,
                                       bool use_exact_supply) const {
  double worst[3] = {0.0, 0.0, 0.0};
  for (const Partition& part : parts_) {
    double& slot = worst[static_cast<std::size_t>(part.mode)];
    slot = std::max(
        slot, use_exact_supply
                  ? hier::min_quantum_exact(*part.ctx, alg_, period)
                  : hier::min_quantum(*part.ctx, alg_, period));
  }
  return period - worst[0] - worst[1] - worst[2];
}

std::vector<core::RegionSample> BatchEngine::sample_region(
    const core::SearchOptions& opts_in) const {
  const core::SearchOptions opts = resolve(opts_in);
  const auto n = static_cast<std::size_t>(
      std::ceil((opts.p_max - opts.p_min) / opts.grid_step));
  std::vector<core::RegionSample> out;
  out.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const double p = std::min(
        opts.p_max, opts.p_min + static_cast<double>(i) * opts.grid_step);
    out.push_back({p, feasibility_margin(p, opts.use_exact_supply)});
  }
  return out;
}

double BatchEngine::max_feasible_period(double o_tot,
                                        const core::SearchOptions& opts_in) const {
  const core::SearchOptions opts = resolve(opts_in);
  // Downward grid scan: the first feasible candidate bounds the answer from
  // below, its predecessor from above.
  double feasible = -1.0;
  double infeasible_above = opts.p_max;
  for (double p = opts.p_max; p >= opts.p_min; p -= opts.grid_step) {
    if (feasibility_margin(p, opts.use_exact_supply) >= o_tot) {
      feasible = p;
      break;
    }
    infeasible_above = p;
  }
  if (feasible < 0.0) {
    throw InfeasibleError(
        "no feasible period found in the search range (O_tot too large?)");
  }
  double lo = feasible;
  double hi = infeasible_above;
  while (hi - lo > opts.tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (feasibility_margin(mid, opts.use_exact_supply) >= o_tot) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

struct GridMax {
  double p;
  double value;
};

/// Folds f over the grid lo, lo + step, ... <= hi into `best` with strict >,
/// so the earliest candidate wins ties.
template <typename F>
GridMax scan_max(GridMax best, double lo, double hi, double step, const F& f) {
  for (double p = lo; p <= hi; p += step) {
    const double v = f(p);
    if (v > best.value) best = {p, v};
  }
  return best;
}

/// argmax of f over the coarse grid p_min, p_min + grid_step, ... <= p_max.
template <typename F>
GridMax coarse_max(const core::SearchOptions& opts, const F& f) {
  return scan_max({opts.p_min, f(opts.p_min)}, opts.p_min + opts.grid_step,
                  opts.p_max, opts.grid_step, f);
}

/// Refines a coarse argmax on a fine grid within two coarse steps of it.
template <typename F>
GridMax refine_max(GridMax coarse, const core::SearchOptions& opts,
                   const F& f) {
  const double lo = std::max(opts.p_min, coarse.p - 2.0 * opts.grid_step);
  const double hi = std::min(opts.p_max, coarse.p + 2.0 * opts.grid_step);
  const double step = std::max(opts.tolerance, opts.grid_step * 1e-3);
  return scan_max(coarse, lo, hi, step, f);
}

}  // namespace

core::OverheadLimit BatchEngine::max_admissible_overhead(
    const core::SearchOptions& opts_in) const {
  const core::SearchOptions opts = resolve(opts_in);
  const auto margin_at = [&](double p) {
    return feasibility_margin(p, opts.use_exact_supply);
  };
  const GridMax best = refine_max(coarse_max(opts, margin_at), opts, margin_at);
  return {best.p, best.value};
}

core::SlackOptimum BatchEngine::max_slack_period(
    double o_tot, const core::SearchOptions& opts_in) const {
  const core::SearchOptions opts = resolve(opts_in);
  const auto slack_at = [&](double p) {
    return (feasibility_margin(p, opts.use_exact_supply) - o_tot) / p;
  };
  const GridMax coarse = coarse_max(opts, slack_at);
  if (coarse.value < 0.0) {
    throw InfeasibleError(
        "no feasible period in the search range: slack is negative "
        "everywhere");
  }
  const GridMax best = refine_max(coarse, opts, slack_at);
  return {best.p, best.value * best.p, best.value};
}

bool BatchEngine::verify(const core::ModeSchedule& schedule,
                         bool use_exact_supply) const {
  schedule.validate();
  for (const rt::Mode mode : kAllModes) {
    if (!mode_used_[static_cast<std::size_t>(mode)]) continue;
    if (schedule.slot(mode).usable <= 0.0) return false;
  }
  for (const Partition& part : parts_) {
    const bool ok =
        use_exact_supply
            ? hier::schedulable(*part.ctx, alg_, schedule.exact_supply(part.mode))
            : hier::schedulable(*part.ctx, alg_, schedule.supply(part.mode));
    if (!ok) return false;
  }
  return true;
}

double BatchEngine::margin_impl(const core::ModeSchedule& schedule,
                                const std::string& task_name,
                                double lambda_max, double tolerance,
                                bool base_feasible) const {
  FLEXRT_REQUIRE(lambda_max >= 1.0, "lambda_max must be >= 1");
  if (!base_feasible) return 1.0;

  // Deadline caps of the scaled tasks (a scale pushing C past D is
  // infeasible by definition) and the demand deltas per affected partition.
  std::vector<std::pair<double, double>> limits;  // (wcet, deadline)
  std::vector<ScaledProbe> probes;
  for (const Partition& part : parts_) {
    const rt::AnalysisContext& ctx = *part.ctx;
    bool any = false;
    for (const rt::Task& t : ctx.tasks()) {
      if (matches(t, task_name)) {
        limits.emplace_back(t.wcet, t.deadline);
        any = true;
      }
    }
    if (!any) continue;

    ScaledProbe probe{&part, schedule.supply(part.mode), 0.0, 0.0, {}, {}};
    if (alg_ == hier::Scheduler::EDF) {
      probe.edf_contrib.assign(ctx.deadline_points().size(), 0.0);
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        const rt::Task& t = ctx.tasks()[i];
        if (!matches(t, task_name)) continue;
        probe.u_delta += t.utilization();
        probe.c_delta += t.wcet * (t.period - t.deadline) / t.period;
        const std::vector<double> jobs = ctx.edf_point_jobs(i);
        for (std::size_t k = 0; k < jobs.size(); ++k) {
          probe.edf_contrib[k] += jobs[k] * t.wcet;
        }
      }
    } else {
      probe.fp_contrib.resize(ctx.size());
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        probe.fp_contrib[i].assign(ctx.scheduling_points(i).size(), 0.0);
        for (std::size_t j = 0; j <= i; ++j) {
          if (!matches(ctx.tasks()[j], task_name)) continue;
          const std::vector<double> jobs = ctx.fp_point_jobs(i, j);
          for (std::size_t k = 0; k < jobs.size(); ++k) {
            probe.fp_contrib[i][k] += jobs[k] * ctx.tasks()[j].wcet;
          }
        }
      }
    }
    probes.push_back(std::move(probe));
  }

  const auto probe_ok = [&](const ScaledProbe& p, double lambda) {
    const rt::AnalysisContext& ctx = *p.part->ctx;
    const double growth = lambda - 1.0;
    if (alg_ == hier::Scheduler::EDF) {
      if (ctx.utilization() + growth * p.u_delta > p.supply.rate() + 1e-12) {
        return false;
      }
      const std::vector<double>& points = ctx.deadline_points();
      const std::vector<double>& demand = ctx.edf_demand_at_points();
      for (std::size_t k = 0; k < points.size(); ++k) {
        if (!leq_tol(demand[k] + growth * p.edf_contrib[k],
                     p.supply.value(points[k]))) {
          return false;
        }
      }
      if (!ctx.dl_exact()) {
        // QPA tail closure with the scaled demand line: both U and c grow
        // linearly in (lambda - 1).
        const double tail = rt::qpa_horizon(
            ctx.utilization() + growth * p.u_delta,
            ctx.dl_util_const() + growth * p.c_delta, p.supply.rate(),
            p.supply.floor_delay());
        if (!leq_tol(tail, ctx.dl_horizon())) return false;
      }
      return true;
    }
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      const std::vector<double>& points = ctx.scheduling_points(i);
      const std::vector<double>& workloads = ctx.fp_point_workloads(i);
      bool ok = false;
      for (std::size_t k = 0; k < points.size(); ++k) {
        if (leq_tol(workloads[k] + growth * p.fp_contrib[i][k],
                    p.supply.value(points[k]))) {
          ok = true;
          break;
        }
      }
      if (!ok) return false;
    }
    return true;
  };

  const auto feasible = [&](double lambda) {
    for (const auto& [wcet, deadline] : limits) {
      if (wcet * lambda > deadline * (1.0 + 1e-12)) return false;
    }
    for (const ScaledProbe& p : probes) {
      if (!probe_ok(p, lambda)) return false;
    }
    return true;
  };

  if (feasible(lambda_max)) return lambda_max;
  double lo = 1.0, hi = lambda_max;
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double BatchEngine::wcet_scale_margin(const core::ModeSchedule& schedule,
                                      const std::string& task_name,
                                      double lambda_max,
                                      double tolerance) const {
  return margin_impl(schedule, task_name, lambda_max, tolerance,
                     verify(schedule));
}

std::vector<core::TaskMargin> BatchEngine::sensitivity_report(
    const core::ModeSchedule& schedule, double lambda_max) const {
  // The lambda = 1 feasibility of the *unscaled* system is shared by every
  // row: verify once, not once per task.
  const bool base_feasible = verify(schedule);
  std::vector<core::TaskMargin> out = task_rows_;
  for (core::TaskMargin& row : out) {
    // An empty name would silently select the global (all-tasks) margin;
    // reject it like the one-task front always has.
    FLEXRT_REQUIRE(!row.name.empty(), "task name must be non-empty");
    row.scale_margin =
        margin_impl(schedule, row.name, lambda_max, 1e-4, base_feasible);
  }
  return out;
}

double BatchEngine::global_scale_margin(const core::ModeSchedule& schedule,
                                        double lambda_max,
                                        double tolerance) const {
  return margin_impl(schedule, "", lambda_max, tolerance, verify(schedule));
}

}  // namespace flexrt::analysis

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/integration.hpp"
#include "core/mode_system.hpp"
#include "core/schedule.hpp"
#include "hier/sched_test.hpp"
#include "rt/analysis_context.hpp"

namespace flexrt::analysis {

/// Batched analysis engine: the per-partition AnalysisContexts of a
/// ModeTaskSystem built once and probed many times. Every design-space
/// iteration the paper's methodology runs -- lhs(P) curves, feasible-period
/// searches, quantum bisections, WCET sensitivity margins -- re-asks the
/// same task sets the same questions at different supplies; the engine
/// caches the task-set side (scheduling points, deadline sets, demand
/// curves) so each probe only evaluates the supply.
///
/// Construction is cheap (task-set snapshots; caches materialize lazily on
/// first probe) and the engine is immutable afterwards: const engines are
/// safe to probe from multiple threads. Every method runs serially on the
/// calling thread; parallelism lives one level up, across the entries of a
/// fleet or the trials of a study (par::parallel_for).
///
/// This is the single-system API: a caller with one system constructs an
/// engine and asks it (or core::solve_design(engine, ...)) directly. The
/// fleet service (svc::AnalysisService) caches engines per entry and adds
/// the accuracy ladder and the answer memo on top.
class BatchEngine {
 public:
  /// `dl_opts` controls the QPA bounding/condensation of every partition's
  /// EDF deadline set (rt/deadline_bound.hpp) and `fp_opts` the per-task
  /// FP scheduling-point condensation (rt/sched_points.hpp); the default
  /// budgets keep paper-scale systems exact and make hyperperiod-hostile /
  /// point-hostile generated systems tractable via the condensed safe
  /// over-approximations.
  BatchEngine(const core::ModeTaskSystem& sys, hier::Scheduler alg,
              const rt::DlBoundOptions& dl_opts = {},
              const rt::FpPointOptions& fp_opts = {});

  hier::Scheduler scheduler() const noexcept { return alg_; }

  /// The bounding options every partition context was built with
  /// (provenance: the budgets behind each answer).
  const rt::DlBoundOptions& dl_options() const noexcept { return dl_opts_; }
  const rt::FpPointOptions& fp_options() const noexcept { return fp_opts_; }

  /// True iff every EDF probe so far was exact: under FP this is trivially
  /// true (the EDF caches are never consulted), under EDF it asks each
  /// partition whether its bounded deadline set covers the full
  /// hyperperiod. Calling it materializes the EDF caches, so ask *after*
  /// probing (the answer is the provenance of those probes). When false,
  /// answers are safe over-approximations and an adaptive re-probe at a
  /// larger budget (rt::next_budget_rung) can tighten them.
  bool dl_exact() const;

  /// FP-side twin of dl_exact(): true iff every partition's scheduling
  /// points are the full Bini-Buttazzo sets (trivially true under EDF).
  /// Same caveat: calling it materializes the FP caches.
  bool fp_exact() const;

  /// dl_exact() && fp_exact(): whether the final answers of this engine
  /// are exact rather than safe over-approximations -- the exactness the
  /// accuracy ladder (svc::run_ladder) stops on.
  bool exact() const { return dl_exact() && fp_exact(); }

  // --- period-side kernels (Eq. 15) --------------------------------------

  /// Per-mode minimum usable quantum: max over the mode's channels of
  /// minQ(T_k^i, alg, P) (the inner max of Eq. 15). For FP the channels are
  /// analysed in deadline-monotonic order (== rate-monotonic for implicit
  /// deadlines, the paper's "RM").
  double mode_min_quantum(rt::Mode mode, double period,
                          bool use_exact_supply = false) const;

  /// Left-hand side of the paper's Eq. (15):
  ///   lhs(P) = P - sum_k max_i minQ(T_k^i, alg, P).
  /// The period P admits a feasible slot assignment iff lhs(P) >= O_tot.
  double feasibility_margin(double period, bool use_exact_supply = false) const;

  /// Samples lhs(P) over [p_min, p_max] with grid_step (the Figure 4
  /// series).
  std::vector<core::RegionSample> sample_region(
      const core::SearchOptions& opts = {}) const;

  /// Largest feasible period: sup { P : lhs(P) >= o_tot }, refined to
  /// opts.tolerance. A downward grid scan from p_max stops at the first
  /// feasible period, then a bisection refines the boundary. Throws
  /// InfeasibleError when no sampled period qualifies. This is design goal
  /// G1 (minimum overhead bandwidth O_tot/P).
  double max_feasible_period(double o_tot,
                             const core::SearchOptions& opts = {}) const;

  /// Maximum admissible total overhead and the period attaining it:
  /// argmax_P lhs(P) (points 3 and 4 of Figure 4).
  core::OverheadLimit max_admissible_overhead(
      const core::SearchOptions& opts = {}) const;

  /// Period maximizing the redistributable slack bandwidth
  /// (lhs(P) - o_tot)/P over the feasible region: design goal G2.
  core::SlackOptimum max_slack_period(double o_tot,
                                      const core::SearchOptions& opts = {}) const;

  // --- schedule-side kernels (Eq. 12-14, sensitivity) ---------------------

  /// == core::verify_schedule against the cached contexts.
  bool verify(const core::ModeSchedule& schedule,
              bool use_exact_supply = false) const;

  /// Sensitivity of a finished design: how much can the workload grow
  /// before the schedule breaks? The slack row (c) of Table 2 says how
  /// much *bandwidth* is redistributable; these margins say how much *each
  /// task* can grow. The schedule is not re-solved: the quanta are fixed
  /// hardware configuration.
  ///
  /// Largest factor lambda such that scaling the WCETs of the tasks named
  /// `task_name` (every task when empty) by lambda keeps every partition
  /// schedulable under `schedule`. Found by bisection on lambda in
  /// [1, lambda_max]; returns 1.0 when the task is already at the edge and
  /// `lambda_max` when even that scale fits. The probe scales the cached
  /// demand curves in place -- no ModeTaskSystem copy, no point
  /// re-derivation -- so one bisection step is a pass over cached points.
  double wcet_scale_margin(const core::ModeSchedule& schedule,
                           const std::string& task_name,
                           double lambda_max = 16.0,
                           double tolerance = 1e-4) const;

  /// Margins for every task of the system, in system iteration order, with
  /// the lambda=1 feasibility check hoisted out of the per-task loop.
  std::vector<core::TaskMargin> sensitivity_report(
      const core::ModeSchedule& schedule, double lambda_max = 16.0) const;

  /// Largest factor by which EVERY task's WCET can grow simultaneously
  /// while the schedule stays feasible (task_name = ""): a single-number
  /// robustness metric for the whole design.
  double global_scale_margin(const core::ModeSchedule& schedule,
                             double lambda_max = 16.0,
                             double tolerance = 1e-4) const;

 private:
  struct Partition {
    rt::Mode mode{};
    std::unique_ptr<rt::AnalysisContext> ctx;
  };

  /// Per-partition demand deltas of one scaling probe; see the .cpp.
  struct ScaledProbe;

  core::SearchOptions resolve(core::SearchOptions opts) const;
  double margin_impl(const core::ModeSchedule& schedule,
                     const std::string& task_name, double lambda_max,
                     double tolerance, bool base_feasible) const;

  hier::Scheduler alg_;
  rt::DlBoundOptions dl_opts_;
  rt::FpPointOptions fp_opts_;
  double auto_p_max_ = 0.0;
  bool mode_used_[3] = {false, false, false};
  std::vector<Partition> parts_;
  std::vector<core::TaskMargin> task_rows_;  ///< name/mode/wcet prototypes
};

}  // namespace flexrt::analysis

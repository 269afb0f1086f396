#pragma once

#include "core/integration.hpp"
#include "core/mode_system.hpp"
#include "core/schedule.hpp"

namespace flexrt::analysis {
class BatchEngine;
}  // namespace flexrt::analysis

namespace flexrt::core {

/// The two design goals worked out in the paper's §4.
enum class DesignGoal {
  /// G1: minimize the bandwidth wasted in mode switches, O_tot / P.
  /// Achieved by the largest feasible period; quanta end up at their minima
  /// with zero slack (the chosen P sits on the boundary of the region).
  MinOverheadBandwidth,
  /// G2: maximize the redistributable slack bandwidth (lhs(P) - O_tot)/P,
  /// so the quanta can be grown/shrunk at run time as tasks come and go.
  MaxSlackBandwidth,
};

const char* to_string(DesignGoal goal) noexcept;

/// A solved design: the schedule plus the analysis facts behind it.
struct Design {
  ModeSchedule schedule;
  hier::Scheduler scheduler = hier::Scheduler::EDF;
  DesignGoal goal = DesignGoal::MinOverheadBandwidth;
  /// minQ of each mode at the chosen period (the usable quanta equal these).
  double min_quantum_ft = 0.0;
  double min_quantum_fs = 0.0;
  double min_quantum_nf = 0.0;
};

/// Solves the design problem of §3.3/§4 against `engine` (whose scheduler
/// decides the analysis): picks the period according to the goal, then
/// sets every usable quantum to its minimum minQ(T_k, alg, P*) (Eq. 12-14
/// tight) and leaves the remaining time as slack. The returned schedule
/// always passes verify_schedule(). A sweep over overheads/goals reuses the
/// engine's per-partition caches instead of rebuilding them per call.
///
/// Throws InfeasibleError when no period in the search range admits the
/// requested total overhead.
Design solve_design(const analysis::BatchEngine& engine,
                    const Overheads& overheads, DesignGoal goal,
                    const SearchOptions& opts = {});

/// Grows the usable quanta of a solved design proportionally until the
/// slack is consumed (what a designer would do when run-time flexibility is
/// *not* wanted: hand every mode its maximal quantum). Keeps feasibility.
ModeSchedule distribute_slack(const Design& design);

}  // namespace flexrt::core

// Numeric and structural edge cases across modules: degenerate frames,
// saturating hyperperiods, boundary utilizations, tiny periods.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "hier/min_quantum.hpp"
#include "rt/demand.hpp"
#include "rt/edf_test.hpp"
#include "sim/simulator.hpp"

namespace flexrt {
namespace {

using hier::Scheduler;
using rt::make_task;
using rt::Mode;
using rt::TaskSet;

TEST(EdgeCases, HyperperiodSaturationFallsBackToExplicitHorizon) {
  // Coprime large periods overflow the lcm; deadline_set must refuse the
  // implicit horizon but accept an explicit one.
  TaskSet ts{make_task("a", 1, 1000003, Mode::NF),
             make_task("b", 1, 1000033, Mode::NF),
             make_task("c", 1, 999983, Mode::NF),
             make_task("d", 1, 999979, Mode::NF)};
  EXPECT_TRUE(std::isinf(ts.hyperperiod()));
  EXPECT_THROW(rt::deadline_set(ts), ModelError);
  EXPECT_EQ(rt::deadline_set(ts, 2.1e6).size(), 8u);
}

TEST(EdgeCases, FullUtilizationTaskNeedsWholePeriod) {
  // U = 1 task: the only feasible quantum is the entire period (a dedicated
  // processor), for every P not exceeding its deadline.
  const TaskSet ts{make_task("a", 4, 4, Mode::NF)};
  for (const double p : {0.5, 1.0, 2.0}) {
    EXPECT_NEAR(hier::min_quantum(ts, Scheduler::EDF, p), p, 1e-9) << p;
  }
}

TEST(EdgeCases, TinyPeriodApproachesFluidAllocation) {
  // As P -> 0 the slot scheme approaches a fluid processor: minQ/P -> U.
  const TaskSet ts{make_task("a", 1, 5, Mode::NF),
                   make_task("b", 1, 7, Mode::NF)};
  const double u = ts.utilization();
  EXPECT_NEAR(hier::min_quantum(ts, Scheduler::EDF, 1e-3) / 1e-3, u, 1e-3);
}

TEST(EdgeCases, MinQuantumDominatedByShortDeadlineTask) {
  // A deadline equal to the period P forces Q~ such that the supply covers
  // C within one frame: for D = P, q(D, C) with t = P gives sqrt(C*P).
  const TaskSet ts{make_task("a", 0.25, 2, Mode::NF)};
  const double p = 2.0;
  EXPECT_NEAR(hier::min_quantum(ts, Scheduler::EDF, p),
              std::sqrt(0.25 * p), 1e-9);
}

TEST(EdgeCases, SolverWithZeroOverheadHitsRegionBoundary) {
  const core::ModeTaskSystem sys = core::paper_example();
  const core::Design d =
      core::solve_design(analysis::BatchEngine(sys, Scheduler::EDF),
                         {0.0, 0.0, 0.0},
                         core::DesignGoal::MinOverheadBandwidth);
  EXPECT_NEAR(d.schedule.period, 3.177, 2e-3);
  EXPECT_NEAR(d.schedule.slack(), 0.0, 1e-3);
  EXPECT_DOUBLE_EQ(d.schedule.overhead_bandwidth(), 0.0);
}

TEST(EdgeCases, SimulatorHandlesFrameLargerThanHorizon) {
  // Horizon shorter than one frame: only the FT window [0,1) fires.
  rt::TaskSet ft{make_task("f", 0.5, 2.0, Mode::FT)};
  core::ModeTaskSystem sys({ft}, {}, {});
  core::ModeSchedule s;
  s.period = 100.0;
  s.ft = {1.0, 0.0};
  s.fs = {1.0, 0.0};
  s.nf = {1.0, 0.0};
  sim::SimOptions opt;
  opt.horizon = 10.0;
  const sim::SimResult r = sim::simulate(sys, s, opt);
  EXPECT_EQ(r.tasks[0].completions, 1u);  // first job runs in [0, 0.5)
  EXPECT_GT(r.tasks[0].deadline_misses, 0u);  // later jobs starve
}

TEST(EdgeCases, SimulatorExactBoundaryCompletion) {
  // A job finishing exactly at the window end must count as completed, and
  // one finishing exactly at its deadline must not be a miss.
  rt::TaskSet nf{make_task("x", 1.0, 4.0, 3.0, Mode::NF)};
  core::ModeTaskSystem sys({}, {}, {nf});
  core::ModeSchedule s;
  s.period = 4.0;
  s.ft = {0.0, 0.0};
  s.fs = {2.0, 0.0};  // NF window [2,3): job released at 0 finishes at
  s.nf = {1.0, 0.0};  // exactly t=3 = its absolute deadline.
  sim::SimOptions opt;
  opt.horizon = 40.0;
  const sim::SimResult r = sim::simulate(sys, s, opt);
  EXPECT_EQ(r.tasks[0].deadline_misses, 0u);
  EXPECT_EQ(r.tasks[0].max_response, to_ticks(3.0));
}

TEST(EdgeCases, EdfSchedulableAtExactlyFullUtilization) {
  const TaskSet ts{make_task("a", 1, 2, Mode::NF),
                   make_task("b", 1, 2, Mode::NF)};  // U = 1 exactly
  EXPECT_TRUE(rt::edf_schedulable(ts));
}

TEST(EdgeCases, FeasibilityMarginNegativeForOverloadedSystem) {
  // NF channel with U = 0.9 plus FT and FS loads cannot share a timeline.
  rt::TaskSet ft{make_task("f", 4.5, 10, Mode::FT)};
  rt::TaskSet fs{make_task("s", 4.5, 10, Mode::FS)};
  rt::TaskSet nf{make_task("n", 4.5, 10, Mode::NF)};
  core::ModeTaskSystem sys({ft}, {fs}, {nf});
  const analysis::BatchEngine engine(sys, Scheduler::EDF);
  for (const double p : {0.5, 1.0, 2.0, 5.0}) {
    EXPECT_LT(engine.feasibility_margin(p), 0.0) << p;
  }
  EXPECT_THROW(engine.max_feasible_period(0.0), InfeasibleError);
}

TEST(EdgeCases, OverheadOnlySlotsConsumeWithoutSupplying) {
  // A schedule whose FT slot is pure overhead must fail verification for
  // FT tasks but still simulate (the FT task just never runs).
  rt::TaskSet ft{make_task("f", 0.5, 4.0, Mode::FT)};
  core::ModeTaskSystem sys({ft}, {}, {});
  core::ModeSchedule s;
  s.period = 4.0;
  s.ft = {0.0, 1.0};  // overhead-only slot
  s.fs = {1.0, 0.0};
  s.nf = {1.0, 0.0};
  EXPECT_FALSE(core::verify_schedule(sys, s, Scheduler::EDF));
  sim::SimOptions opt;
  opt.horizon = 100.0;
  const sim::SimResult r = sim::simulate(sys, s, opt);
  EXPECT_EQ(r.tasks[0].completions, 0u);
  EXPECT_GT(r.tasks[0].deadline_misses, 0u);
}

}  // namespace
}  // namespace flexrt

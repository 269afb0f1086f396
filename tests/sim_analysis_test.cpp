// Integration tests crossing the analytical layer and the simulator:
// schedules the design solver declares feasible must run without deadline
// misses, and the simulated platform must deliver at least the analytical
// supply bound in every window (experiment E5's backbone).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "gen/taskset_gen.hpp"
#include "sim/simulator.hpp"

namespace flexrt {
namespace {

using hier::Scheduler;

// Margin added to the total overhead when solving: the tick grid (1e-6) and
// the zero-slack boundary make exact-boundary designs knife-edge; real
// designs always carry margin.
constexpr double kEps = 1e-3;

class SimAnalysis : public ::testing::Test {
 protected:
  core::ModeTaskSystem sys_ = core::paper_example();
  analysis::BatchEngine edf_{sys_, Scheduler::EDF};
  analysis::BatchEngine fp_{sys_, Scheduler::FP};
  core::Overheads ov_{0.02, 0.02, 0.01};
};

TEST_F(SimAnalysis, PaperDesignRunsWithoutMissesEdf) {
  core::Overheads padded = ov_;
  padded.nf += kEps;
  const auto d = core::solve_design(edf_, padded,
                                    core::DesignGoal::MinOverheadBandwidth);
  sim::SimOptions opt;
  opt.horizon = 2000.0;
  opt.scheduler = Scheduler::EDF;
  const sim::SimResult r = sim::simulate(sys_, d.schedule, opt);
  EXPECT_EQ(r.total_misses(), 0u);
  EXPECT_GT(r.tasks[0].completions, 0u);
}

TEST_F(SimAnalysis, PaperDesignRunsWithoutMissesRm) {
  core::Overheads padded = ov_;
  padded.nf += kEps;
  const auto d =
      core::solve_design(fp_, padded, core::DesignGoal::MaxSlackBandwidth);
  sim::SimOptions opt;
  opt.horizon = 2000.0;
  opt.scheduler = Scheduler::FP;
  const sim::SimResult r = sim::simulate(sys_, d.schedule, opt);
  EXPECT_EQ(r.total_misses(), 0u);
}

TEST_F(SimAnalysis, EveryTaskCompletesExpectedJobCount) {
  const auto d =
      core::solve_design(edf_, ov_, core::DesignGoal::MaxSlackBandwidth);
  sim::SimOptions opt;
  opt.horizon = 1200.0;  // hyperperiod of Table 1 = 120
  opt.scheduler = Scheduler::EDF;
  const sim::SimResult r = sim::simulate(sys_, d.schedule, opt);
  for (const sim::TaskStats& t : r.tasks) {
    EXPECT_GT(t.releases, 0u) << t.name;
    // All but possibly the last released job must have completed.
    EXPECT_GE(t.completions + 1, t.releases) << t.name;
  }
}

TEST_F(SimAnalysis, ShrunkenQuantaCauseMisses) {
  const auto d =
      core::solve_design(edf_, ov_, core::DesignGoal::MaxSlackBandwidth);
  core::ModeSchedule crippled = d.schedule;
  // Cut the FS quantum to 60%: tau9 (C=1, T=4) can no longer fit.
  crippled.fs.usable *= 0.6;
  sim::SimOptions opt;
  opt.horizon = 2000.0;
  opt.scheduler = Scheduler::EDF;
  const sim::SimResult r = sim::simulate(sys_, crippled, opt);
  EXPECT_GT(r.total_misses(), 0u);
  // ... and only FS tasks may be affected (temporal isolation).
  for (const sim::TaskStats& t : r.tasks) {
    if (t.mode != rt::Mode::FS) {
      EXPECT_EQ(t.deadline_misses, 0u) << t.name;
    }
  }
}

TEST_F(SimAnalysis, MeasuredSupplyDominatesLinearBound) {
  core::Overheads padded = ov_;
  padded.nf += kEps;
  const auto d = core::solve_design(edf_, padded,
                                    core::DesignGoal::MinOverheadBandwidth);
  sim::SimOptions opt;
  opt.horizon = 600.0;
  opt.record_supply = true;
  sim::Simulator s(sys_, d.schedule, opt);
  s.run();
  // The last frames at the horizon are truncated (the run simply stops),
  // which is a measurement artifact, not a supply violation: restrict the
  // window sweep to the region where the periodic pattern is complete.
  const Ticks horizon = to_ticks(opt.horizon - 2.0 * d.schedule.period);
  for (const rt::Mode mode : core::kAllModes) {
    const hier::LinearSupply bound = d.schedule.supply(mode);
    const hier::SlotSupply exact = d.schedule.exact_supply(mode);
    for (const double t : {0.5, 1.0, 2.0, 5.0, 10.0, 25.0}) {
      const double measured =
          to_units(s.supply(mode).min_window_supply(to_ticks(t), horizon));
      // The frame layout rounds each usable window down by up to one tick,
      // so a window spanning k frames can lose k+2 ticks vs the real-valued
      // bound.
      const double tol = (t / d.schedule.period + 2.0) * 1e-6;
      EXPECT_GE(measured + tol, bound.value(t))
          << rt::to_string(mode) << " window " << t;
      EXPECT_GE(measured + tol, exact.value(t))
          << rt::to_string(mode) << " window " << t;
    }
  }
}

// Randomized end-to-end property: whenever the solver finds a design for a
// generated system, the simulation of that design is miss-free.
class RandomDesignSim : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDesignSim, FeasibleDesignsAreMissFreeInSimulation) {
  Rng rng(GetParam());
  gen::GenParams gp;
  gp.num_tasks = 10;
  gp.total_utilization = rng.uniform(0.8, 1.6);
  const rt::TaskSet ts = gen::generate_task_set(gp, rng);
  const auto sys = gen::build_system(ts);
  if (!sys) GTEST_SKIP() << "packing failed";
  core::Design d;
  try {
    d = core::solve_design(analysis::BatchEngine(*sys, Scheduler::EDF),
                           {0.01, 0.01, 0.01 + kEps},
                           core::DesignGoal::MaxSlackBandwidth);
  } catch (const InfeasibleError&) {
    GTEST_SKIP() << "no feasible period";
  }
  sim::SimOptions opt;
  opt.horizon = 1000.0;
  opt.scheduler = Scheduler::EDF;
  const sim::SimResult r = sim::simulate(*sys, d.schedule, opt);
  EXPECT_EQ(r.total_misses(), 0u)
      << "U=" << ts.utilization() << " P=" << d.schedule.period;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDesignSim,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace flexrt

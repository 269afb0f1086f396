#include <gtest/gtest.h>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"

namespace flexrt::core {
namespace {

using hier::Scheduler;

class Sensitivity : public ::testing::Test {
 protected:
  // The max-slack design keeps quanta at their analytical minima, where
  // every margin is exactly 1 (boundary design); distributing the slack
  // into the quanta gives the headroom sensitivity analysis measures.
  ModeTaskSystem sys_ = paper_example();
  analysis::BatchEngine edf_{sys_, Scheduler::EDF};
  Design design_ = solve_design(edf_, {0.02, 0.02, 0.02},
                                DesignGoal::MaxSlackBandwidth);
  ModeSchedule schedule_ = distribute_slack(design_);
};

TEST_F(Sensitivity, MarginsAreAtLeastOneOnFeasibleDesign) {
  const auto report = edf_.sensitivity_report(schedule_, 8.0);
  ASSERT_EQ(report.size(), 13u);
  for (const TaskMargin& m : report) {
    EXPECT_GE(m.scale_margin, 1.0) << m.name;
  }
}

TEST_F(Sensitivity, ScalingWithinMarginStaysFeasible) {
  const double margin = edf_.wcet_scale_margin(schedule_, "tau9");
  ASSERT_GT(margin, 1.0);
  // Verify the definition directly: 95% of the margin is feasible, 110%
  // (capped by C <= D) is not.
  ModeTaskSystem grown = sys_;
  std::vector<rt::TaskSet> fs(sys_.partitions(rt::Mode::FS).begin(),
                              sys_.partitions(rt::Mode::FS).end());
  const rt::Task& tau9 = fs[1][0];
  const double safe_scale = 1.0 + (margin - 1.0) * 0.95;
  fs[1] = rt::TaskSet{rt::make_task(tau9.name, tau9.wcet * safe_scale,
                                    tau9.period, tau9.mode)};
  grown.set_partitions(rt::Mode::FS, fs);
  EXPECT_TRUE(verify_schedule(grown, schedule_, Scheduler::EDF));
}

TEST_F(Sensitivity, TightTaskHasSmallerMarginThanLooseOne) {
  // tau9 (C=1, T=D=4) runs against a service delay of nearly P; it is the
  // tightest task of the FS mode. tau12 (1, 20) in FT has far more room.
  const double m9 = edf_.wcet_scale_margin(schedule_, "tau9");
  const double m12 = edf_.wcet_scale_margin(schedule_, "tau12");
  EXPECT_LT(m9, m12);
}

TEST_F(Sensitivity, GlobalMarginDominatedByPerTaskMargins) {
  const double global = edf_.global_scale_margin(schedule_, 8.0);
  EXPECT_GE(global, 1.0);
  for (const TaskMargin& m : edf_.sensitivity_report(schedule_, 8.0)) {
    EXPECT_LE(global, m.scale_margin + 1e-3) << m.name;
  }
}

TEST_F(Sensitivity, InfeasibleScheduleYieldsMarginOne) {
  ModeSchedule starved = schedule_;
  starved.fs.usable *= 0.5;
  EXPECT_DOUBLE_EQ(edf_.wcet_scale_margin(starved, "tau9"), 1.0);
}

TEST_F(Sensitivity, CapReturnedWhenEverythingFits) {
  // A tiny task in a generous design can hit the cap.
  const double m = edf_.wcet_scale_margin(schedule_, "tau12", 1.05);
  EXPECT_DOUBLE_EQ(m, 1.05);
}

TEST_F(Sensitivity, UnknownTaskNameIsANoopScale) {
  // Scaling a non-existent task changes nothing: the margin saturates.
  const double m = edf_.wcet_scale_margin(schedule_, "nope", 4.0);
  EXPECT_DOUBLE_EQ(m, 4.0);
}

TEST_F(Sensitivity, BoundaryDesignHasNoMargin) {
  // At the un-distributed max-slack design the quanta equal the analytical
  // minima: the binding constraints are tight and every task that
  // contributes demand to them has margin exactly 1.
  const double m = edf_.wcet_scale_margin(design_.schedule, "tau9");
  EXPECT_DOUBLE_EQ(m, 1.0);
}

}  // namespace
}  // namespace flexrt::core

// Reproduction tests for every number the paper reports on the 13-task
// example: Figure 4's five marked points and all rows of Table 2. These are
// the ground truth of the whole library: the same inputs must give the same
// outputs to the printed precision (3 decimals).
#include <gtest/gtest.h>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"

namespace flexrt {
namespace {

using hier::Scheduler;

class PaperValues : public ::testing::Test {
 protected:
  core::ModeTaskSystem sys = core::paper_example();
  analysis::BatchEngine edf{sys, Scheduler::EDF};
  analysis::BatchEngine rm{sys, Scheduler::FP};
  core::PaperReference ref;
};

TEST_F(PaperValues, Table1TaskSetShape) {
  const rt::TaskSet all = core::paper_example_tasks();
  ASSERT_EQ(all.size(), 13u);
  EXPECT_EQ(all.by_mode(rt::Mode::NF).size(), 5u);
  EXPECT_EQ(all.by_mode(rt::Mode::FS).size(), 4u);
  EXPECT_EQ(all.by_mode(rt::Mode::FT).size(), 4u);
  EXPECT_EQ(sys.num_tasks(), 13u);
}

TEST_F(PaperValues, Table2RowA_RequiredBandwidth) {
  EXPECT_NEAR(sys.required_bandwidth(rt::Mode::FT), ref.req_util_ft, 5e-4);
  EXPECT_NEAR(sys.required_bandwidth(rt::Mode::FS), ref.req_util_fs, 5e-4);
  EXPECT_NEAR(sys.required_bandwidth(rt::Mode::NF), ref.req_util_nf, 5e-4);
}

TEST_F(PaperValues, Figure4Point1_MaxPeriodEdfNoOverhead) {
  const double p = edf.max_feasible_period(0.0);
  EXPECT_NEAR(p, ref.p_max_edf_no_overhead, 1e-3);
}

TEST_F(PaperValues, Figure4Point2_MaxPeriodRmNoOverhead) {
  const double p = rm.max_feasible_period(0.0);
  EXPECT_NEAR(p, ref.p_max_rm_no_overhead, 1e-3);
}

TEST_F(PaperValues, Figure4Point3_MaxOverheadEdf) {
  const auto lim = edf.max_admissible_overhead();
  EXPECT_NEAR(lim.max_overhead, ref.max_overhead_edf, 1e-3);
}

TEST_F(PaperValues, Figure4Point4_MaxOverheadRm) {
  const auto lim = rm.max_admissible_overhead();
  EXPECT_NEAR(lim.max_overhead, ref.max_overhead_rm, 1e-3);
}

TEST_F(PaperValues, Figure4Point5_MaxPeriodEdfWithOverhead) {
  const double p = edf.max_feasible_period(ref.o_tot);
  EXPECT_NEAR(p, ref.p_max_edf_o005, 1e-3);
}

TEST_F(PaperValues, Figure4_EdfRegionContainsRmRegion) {
  // "as expected, the EDF region is larger than the RM one".
  for (double p = 0.2; p <= 3.4; p += 0.1) {
    EXPECT_GE(edf.feasibility_margin(p), rm.feasibility_margin(p) - 1e-9)
        << "at P=" << p;
  }
}

TEST_F(PaperValues, Table2RowB_MinOverheadDesign) {
  const core::Overheads ov{ref.o_tot / 3, ref.o_tot / 3, ref.o_tot / 3};
  const core::Design d =
      core::solve_design(edf, ov, core::DesignGoal::MinOverheadBandwidth);
  EXPECT_NEAR(d.schedule.period, 2.966, 1e-3);
  EXPECT_NEAR(d.schedule.ft.usable, ref.b_q_ft, 1e-3);
  EXPECT_NEAR(d.schedule.fs.usable, ref.b_q_fs, 1e-3);
  EXPECT_NEAR(d.schedule.nf.usable, ref.b_q_nf, 1e-3);
  EXPECT_NEAR(d.schedule.slack(), 0.0, 1e-3);
  // Paper's cross-check: allocated NF bandwidth 0.275 >= required 0.250.
  EXPECT_NEAR(d.schedule.allocated_bandwidth(rt::Mode::NF), 0.275, 1e-3);
  EXPECT_GE(d.schedule.allocated_bandwidth(rt::Mode::NF),
            sys.required_bandwidth(rt::Mode::NF));
  EXPECT_NEAR(d.schedule.allocated_bandwidth(rt::Mode::FT), 0.276, 1e-3);
  EXPECT_NEAR(d.schedule.allocated_bandwidth(rt::Mode::FS), 0.432, 1e-3);
  EXPECT_TRUE(core::verify_schedule(sys, d.schedule, Scheduler::EDF));
}

TEST_F(PaperValues, Table2RowC_MaxSlackDesign) {
  const core::Overheads ov{ref.o_tot / 3, ref.o_tot / 3, ref.o_tot / 3};
  const core::Design d =
      core::solve_design(edf, ov, core::DesignGoal::MaxSlackBandwidth);
  EXPECT_NEAR(d.schedule.period, ref.c_period, 1e-3);
  EXPECT_NEAR(d.schedule.ft.usable, ref.c_q_ft, 1e-3);
  EXPECT_NEAR(d.schedule.fs.usable, ref.c_q_fs, 1e-3);
  EXPECT_NEAR(d.schedule.nf.usable, ref.c_q_nf, 1e-3);
  EXPECT_NEAR(d.schedule.slack(), ref.c_slack, 1e-3);
  EXPECT_NEAR(d.schedule.slack_bandwidth(), ref.c_slack_util, 1e-3);
  EXPECT_TRUE(core::verify_schedule(sys, d.schedule, Scheduler::EDF));
}

TEST_F(PaperValues, RowCBeatsRowBOnSlackBandwidth) {
  const core::Overheads ov{0.05 / 3, 0.05 / 3, 0.05 / 3};
  const auto b =
      core::solve_design(edf, ov, core::DesignGoal::MinOverheadBandwidth);
  const auto c =
      core::solve_design(edf, ov, core::DesignGoal::MaxSlackBandwidth);
  EXPECT_GT(c.schedule.slack_bandwidth(),
            b.schedule.slack_bandwidth() + 0.1);
  // ... and row B beats row C on overhead bandwidth (its design goal).
  EXPECT_LT(b.schedule.overhead_bandwidth(), c.schedule.overhead_bandwidth());
}

TEST_F(PaperValues, RmDesignAlsoSolvable) {
  // The paper notes "the same reasoning applies to the RM scheduling
  // algorithm as well": both goals must be solvable under RM with an
  // overhead inside the RM region (max 0.129).
  const core::Overheads ov{0.04 / 3, 0.04 / 3, 0.04 / 3};
  for (const auto goal : {core::DesignGoal::MinOverheadBandwidth,
                          core::DesignGoal::MaxSlackBandwidth}) {
    const auto d = core::solve_design(rm, ov, goal);
    EXPECT_TRUE(core::verify_schedule(sys, d.schedule, Scheduler::FP))
        << to_string(goal);
  }
}

}  // namespace
}  // namespace flexrt

#include "core/general_frame.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "sim/simulator.hpp"

namespace flexrt::core {
namespace {

using hier::Scheduler;
using rt::Mode;

TEST(GeneralFrame, FromScheduleRoundTrips) {
  ModeSchedule s;
  s.period = 10.0;
  s.ft = {2.0, 0.5};
  s.fs = {3.0, 0.5};
  s.nf = {2.0, 1.0};
  const GeneralFrame f = GeneralFrame::from_schedule(s);
  EXPECT_EQ(f.slots().size(), 3u);
  EXPECT_DOUBLE_EQ(f.total_usable(Mode::FS), 3.0);
  EXPECT_DOUBLE_EQ(f.total_overhead(), 2.0);
  EXPECT_DOUBLE_EQ(f.slack(), 1.0);
  EXPECT_EQ(f.visits(Mode::FT), 1u);
  EXPECT_DOUBLE_EQ(f.slot_offset(1), 2.5);
  EXPECT_DOUBLE_EQ(f.slot_offset(2), 6.0);
}

TEST(GeneralFrame, SupplyMatchesScheduleSupply) {
  ModeSchedule s;
  s.period = 8.0;
  s.ft = {2.0, 0.0};
  s.fs = {2.0, 0.0};
  s.nf = {2.0, 0.0};
  const GeneralFrame f = GeneralFrame::from_schedule(s);
  const hier::MultiSlotSupply multi = f.supply(Mode::FS);
  // FS occupies [2,4) of every frame: exactly SlotSupply(8,2)'s worst case.
  const hier::SlotSupply single = s.exact_supply(Mode::FS);
  for (double t = 0.0; t <= 30.0; t += 0.4) {
    EXPECT_NEAR(multi.value(t), single.value(t), 1e-9) << t;
  }
}

TEST(GeneralFrame, RejectsOverflowingSlots) {
  EXPECT_THROW(GeneralFrame(1.0, {{Mode::FT, 0.8, 0.0},
                                  {Mode::FS, 0.4, 0.0}}),
               ModelError);
  EXPECT_THROW(GeneralFrame(1.0, {}), ModelError);
  EXPECT_THROW(GeneralFrame(1.0, {{Mode::FT, -0.1, 0.0}}), ModelError);
}

TEST(Interleave, SplitsBudgetsAndRepeatsOverheads) {
  ModeSchedule s;
  s.period = 12.0;
  s.ft = {2.0, 0.2};
  s.fs = {2.0, 0.2};
  s.nf = {2.0, 0.2};
  const GeneralFrame f = interleave(s, 2);
  EXPECT_EQ(f.slots().size(), 6u);
  EXPECT_EQ(f.visits(Mode::FT), 2u);
  EXPECT_DOUBLE_EQ(f.total_usable(Mode::FT), 2.0);   // budget preserved
  EXPECT_DOUBLE_EQ(f.total_overhead(), 1.2);         // overheads doubled
  // Delay shrinks vs the single slot's 12 - 2 = 10. Slots pack from the
  // frame start with the 4.8 slack at the end, so the longest FT-free
  // stretch is the wrap-around gap: 12 - 4.6 = 7.4.
  EXPECT_NEAR(f.supply(Mode::FT).delay(), 7.4, 1e-9);
  EXPECT_LT(f.supply(Mode::FT).delay(), 10.0);
}

TEST(Interleave, VerifiesOnPaperSystemWhenSlackAllows) {
  const ModeTaskSystem sys = paper_example();
  // A comfortable design with plenty of slack survives doubling overheads.
  const Design d = solve_design(analysis::BatchEngine(sys, Scheduler::EDF),
                                {0.005, 0.005, 0.005},
                                DesignGoal::MaxSlackBandwidth);
  const GeneralFrame doubled = interleave(d.schedule, 2);
  EXPECT_TRUE(verify_frame(sys, doubled, Scheduler::EDF));
}

TEST(VerifyFrame, SingleSlotAgreesWithVerifySchedule) {
  const ModeTaskSystem sys = paper_example();
  const Design d = solve_design(analysis::BatchEngine(sys, Scheduler::EDF),
                                {0.02, 0.02, 0.02},
                                DesignGoal::MaxSlackBandwidth);
  const GeneralFrame f = GeneralFrame::from_schedule(d.schedule);
  // The multi-slot verifier uses the exact supply, which dominates the
  // linear bound the solver used: feasibility must carry over.
  EXPECT_TRUE(verify_frame(sys, f, Scheduler::EDF));
  // A starved FT slot must fail.
  GeneralFrame starved(d.schedule.period,
                       {{Mode::FT, 0.01, 0.0},
                        {Mode::FS, d.schedule.fs.usable, 0.0},
                        {Mode::NF, d.schedule.nf.usable, 0.0}});
  EXPECT_FALSE(verify_frame(sys, starved, Scheduler::EDF));
}

TEST(SolveInterleaved, FindsFeasibleFrameAtLargePeriod) {
  // At P = 6 the single-slot scheme is far outside the feasible region of
  // the Table-1 system (max feasible P is ~2.97 for O=0.05): tau9's
  // deadline of 4 cannot absorb a delay of P - Q~. Splitting every mode
  // into 3 visits shrinks the delays enough to recover feasibility.
  const ModeTaskSystem sys = paper_example();
  const double period = 6.0;
  EXPECT_LT(
      analysis::BatchEngine(sys, Scheduler::EDF).feasibility_margin(period),
      0.015);
  const GeneralFrame f =
      solve_interleaved(sys, Scheduler::EDF, {0.005, 0.005, 0.005}, period, 3);
  EXPECT_TRUE(verify_frame(sys, f, Scheduler::EDF));
  EXPECT_EQ(f.visits(Mode::FT), 3u);
  EXPECT_GE(f.slack(), 0.0);
}

TEST(SolveInterleaved, ThrowsWhenOverheadsFillThePeriod) {
  const ModeTaskSystem sys = paper_example();
  EXPECT_THROW(
      solve_interleaved(sys, Scheduler::EDF, {0.2, 0.2, 0.2}, 1.0, 2),
      InfeasibleError);
}

TEST(SolveInterleaved, SimulationOfSolvedFrameIsMissFree) {
  const ModeTaskSystem sys = paper_example();
  GeneralFrame f =
      solve_interleaved(sys, Scheduler::EDF, {0.01, 0.01, 0.01}, 4.0, 2);
  // Pad every budget by 1% (tick-grid margin), shrinking the slack.
  std::vector<GeneralSlot> padded(f.slots().begin(), f.slots().end());
  for (GeneralSlot& s : padded) s.usable *= 1.01;
  const GeneralFrame safe(f.period(), std::move(padded));
  ASSERT_TRUE(verify_frame(sys, safe, Scheduler::EDF));
  sim::SimOptions opt;
  opt.horizon = 2000.0;
  opt.scheduler = Scheduler::EDF;
  const sim::SimResult r = sim::simulate(sys, safe, opt);
  EXPECT_EQ(r.total_misses(), 0u);
}

}  // namespace
}  // namespace flexrt::core

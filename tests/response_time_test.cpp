#include "hier/response_time.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "rt/priority.hpp"
#include "rt/rta.hpp"
#include "sim/simulator.hpp"

namespace flexrt::hier {
namespace {

using rt::make_task;
using rt::Mode;
using rt::TaskSet;

TEST(SupplyInverse, InvertsLinearSupplyExactly) {
  const LinearSupply z(0.5, 2.0);
  // Z(t) = 0.5 (t - 2): demand 1 -> t = 4.
  EXPECT_NEAR(supply_inverse(z, 1.0), 4.0, 1e-6);
  EXPECT_NEAR(supply_inverse(z, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(supply_inverse(z, 3.0), 8.0, 1e-6);
}

TEST(SupplyInverse, InvertsSlotSupply) {
  const SlotSupply z(10.0, 3.0);
  // First supply arrives at 7; demand 3 is covered exactly at t = 10.
  EXPECT_NEAR(supply_inverse(z, 1.0), 8.0, 1e-6);
  EXPECT_NEAR(supply_inverse(z, 3.0), 10.0, 1e-6);
  // Demand 4 needs the second period's ramp: t = 17 + 1.
  EXPECT_NEAR(supply_inverse(z, 4.0), 18.0, 1e-6);
}

TEST(SupplyInverse, RoundTripsWithValue) {
  const SlotSupply z(4.0, 1.5);
  for (double d = 0.1; d <= 6.0; d += 0.3) {
    const double t = supply_inverse(z, d);
    EXPECT_GE(z.value(t) + 1e-6, d);
    EXPECT_LT(z.value(t - 1e-4), d + 1e-6);
  }
}

TEST(FpResponseTime, DedicatedSupplyMatchesClassicRta) {
  Rng rng(71);
  const LinearSupply dedicated(1.0, 0.0);
  for (int trial = 0; trial < 100; ++trial) {
    TaskSet ts;
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    for (int i = 0; i < n; ++i) {
      const double period = static_cast<double>(rng.uniform_int(5, 40));
      ts.add(make_task("t" + std::to_string(i),
                       rng.uniform(0.5, period * 0.4), period, Mode::NF));
    }
    const TaskSet rm = rt::sort_rate_monotonic(ts);
    for (std::size_t i = 0; i < rm.size(); ++i) {
      const auto classic = rt::response_time(rm, i);
      const auto hier = fp_response_time(rm, i, dedicated);
      ASSERT_EQ(classic.has_value(), hier.has_value())
          << "trial " << trial << " task " << i;
      if (classic) {
        EXPECT_NEAR(*classic, *hier, 1e-6);
      }
    }
  }
}

TEST(FpResponseTime, SingleTaskInSlot) {
  // One task (1, 8) in a slot (P=4, q=1): critical instant at a window
  // end; 1 unit of work completes at the end of the next window: R = 4.
  const TaskSet ts{make_task("a", 1, 8, Mode::NF)};
  const SlotSupply z(4.0, 1.0);
  const auto r = fp_response_time(ts, 0, z);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(*r, 4.0, 1e-6);
}

TEST(FpResponseTime, UnschedulableTaskReportsNullopt) {
  const TaskSet ts{make_task("a", 2, 4, Mode::NF)};  // U = 0.5
  const SlotSupply z(4.0, 1.0);                      // rate 0.25
  EXPECT_FALSE(fp_response_time(ts, 0, z).has_value());
}

TEST(FpResponseTime, BoundsSimulatedResponseOnPaperSystem) {
  // The analytical response bound must dominate every simulated response
  // time, task by task (FP, Table-1 system under a solved design).
  const core::ModeTaskSystem sys = core::paper_example();
  const core::Design d =
      core::solve_design(analysis::BatchEngine(sys, Scheduler::FP),
                         {0.02, 0.02, 0.021},
                         core::DesignGoal::MaxSlackBandwidth);
  sim::SimOptions opt;
  opt.horizon = 3000.0;
  opt.scheduler = Scheduler::FP;
  const sim::SimResult res = sim::simulate(sys, d.schedule, opt);

  for (const rt::Mode mode : core::kAllModes) {
    for (const rt::TaskSet& raw : sys.partitions(mode)) {
      if (raw.empty()) continue;
      const rt::TaskSet ts = rt::sort_deadline_monotonic(raw);
      // Exact slot supply gives the tighter (still safe) bound.
      const auto bounds = fp_response_times(ts, d.schedule.exact_supply(mode));
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ASSERT_TRUE(bounds[i].has_value()) << ts[i].name;
        for (const sim::TaskStats& stat : res.tasks) {
          if (stat.name == ts[i].name) {
            EXPECT_LE(to_units(stat.max_response), *bounds[i] + 1e-5)
                << ts[i].name;
          }
        }
      }
    }
  }
}

TEST(FpResponseTime, TightOnSimpleSimulatedScenario) {
  // Task (1, 8) alone on an NF channel with NF window [2,3) of frame 4:
  // analysis on the exact supply must match the simulated worst case (3.0)
  // within the worst-case phase assumption (supply analysis assumes the
  // worst alignment, so it may exceed the simulated 3.0, never undershoot).
  TaskSet ch0{make_task("only", 1.0, 8.0, Mode::NF)};
  core::ModeTaskSystem sys({}, {}, {ch0});
  core::ModeSchedule s;
  s.period = 4.0;
  s.ft = {1.0, 0.0};
  s.fs = {1.0, 0.0};
  s.nf = {1.0, 0.0};
  sim::SimOptions opt;
  opt.horizon = 400.0;
  opt.scheduler = Scheduler::FP;
  const sim::SimResult r = sim::simulate(sys, s, opt);
  const auto bound =
      fp_response_time(ch0, 0, s.exact_supply(rt::Mode::NF));
  ASSERT_TRUE(bound.has_value());
  EXPECT_GE(*bound + 1e-9, to_units(r.tasks[0].max_response));
  EXPECT_NEAR(*bound, 4.0, 1e-6);  // worst-case alignment bound
}

}  // namespace
}  // namespace flexrt::hier

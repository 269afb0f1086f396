// Fault-injection invariants (experiment E6): under single transient
// faults, FT tasks never emit a wrong result, FS tasks are silenced but
// never corrupted, and only NF tasks can produce silent data corruption.
#include <gtest/gtest.h>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "sim/simulator.hpp"

namespace flexrt {
namespace {

using hier::Scheduler;

class SimFault : public ::testing::Test {
 protected:
  core::ModeTaskSystem sys_ = core::paper_example();
  analysis::BatchEngine edf_{sys_, Scheduler::EDF};

  core::ModeSchedule design() {
    return core::solve_design(edf_, {0.02, 0.02, 0.02},
                              core::DesignGoal::MaxSlackBandwidth)
        .schedule;
  }

  sim::SimResult run_with_faults(double rate, sim::DetectionPolicy policy =
                                                  sim::DetectionPolicy::Immediate,
                                 std::uint64_t seed = 7) {
    sim::SimOptions opt;
    opt.horizon = 5000.0;
    opt.scheduler = Scheduler::EDF;
    opt.faults = {rate, 2.0};
    opt.detection = policy;
    opt.seed = seed;
    return sim::simulate(sys_, design(), opt);
  }
};

TEST_F(SimFault, FaultFreeRunHasNoFaultEffects) {
  const sim::SimResult r = run_with_faults(0.0);
  EXPECT_EQ(r.faults.injected, 0u);
  EXPECT_EQ(r.total_wrong_results(), 0u);
  EXPECT_EQ(r.total_silenced(), 0u);
}

TEST_F(SimFault, FtTasksNeverEmitWrongResults) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const sim::SimResult r =
        run_with_faults(0.05, sim::DetectionPolicy::Immediate, seed);
    ASSERT_GT(r.faults.injected, 50u);
    for (const sim::TaskStats& t : r.tasks) {
      if (t.mode == rt::Mode::FT) {
        EXPECT_EQ(t.corrupted_outputs, 0u) << t.name;
        EXPECT_EQ(t.silenced, 0u) << t.name;  // single faults: masked only
      }
    }
  }
}

TEST_F(SimFault, FtTasksKeepMeetingDeadlinesUnderFaults) {
  // Masking is transparent: FT jobs keep running and meet every deadline.
  const sim::SimResult r = run_with_faults(0.05);
  for (const sim::TaskStats& t : r.tasks) {
    if (t.mode == rt::Mode::FT) {
      EXPECT_EQ(t.deadline_misses, 0u) << t.name;
      EXPECT_GT(t.completions, 0u);
    }
  }
}

TEST_F(SimFault, FsTasksSilencedNeverCorrupted) {
  std::uint64_t silenced_total = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const sim::SimResult r =
        run_with_faults(0.05, sim::DetectionPolicy::Immediate, seed);
    for (const sim::TaskStats& t : r.tasks) {
      if (t.mode == rt::Mode::FS) {
        EXPECT_EQ(t.corrupted_outputs, 0u) << t.name;
        silenced_total += t.silenced;
      }
    }
  }
  EXPECT_GT(silenced_total, 0u) << "fault rate too low to exercise FS";
}

TEST_F(SimFault, NfTasksSufferSilentCorruption) {
  std::uint64_t corrupted = 0;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const sim::SimResult r =
        run_with_faults(0.05, sim::DetectionPolicy::Immediate, seed);
    for (const sim::TaskStats& t : r.tasks) {
      if (t.mode == rt::Mode::NF) {
        corrupted += t.corrupted_outputs;
        EXPECT_EQ(t.silenced, 0u) << t.name;  // NF has no detection at all
      }
    }
  }
  EXPECT_GT(corrupted, 0u);
}

TEST_F(SimFault, FaultClassificationIsExhaustive) {
  const sim::SimResult r = run_with_faults(0.08);
  EXPECT_EQ(r.faults.injected,
            r.faults.masked + r.faults.silenced + r.faults.corrupting +
                r.faults.harmless);
  EXPECT_GT(r.faults.masked, 0u);
  EXPECT_GT(r.faults.harmless, 0u);
}

TEST_F(SimFault, AtOutputDetectionAlsoNeverCorruptsFsOutput) {
  const sim::SimResult r =
      run_with_faults(0.05, sim::DetectionPolicy::AtOutput);
  for (const sim::TaskStats& t : r.tasks) {
    if (t.mode != rt::Mode::NF) {
      EXPECT_EQ(t.corrupted_outputs, 0u) << t.name;
    }
  }
}

TEST_F(SimFault, ImmediateDetectionSilencesAtMostAtOutputRate) {
  // Immediate detection aborts earlier, so it can only reduce the number of
  // corrupted FS *completions* relative to at-output detection; both must
  // silence something at this rate.
  const sim::SimResult imm =
      run_with_faults(0.05, sim::DetectionPolicy::Immediate);
  const sim::SimResult out =
      run_with_faults(0.05, sim::DetectionPolicy::AtOutput);
  EXPECT_GT(imm.total_silenced() + out.total_silenced(), 0u);
}

TEST_F(SimFault, HigherRateMoreEffects) {
  const sim::SimResult low = run_with_faults(0.01);
  const sim::SimResult high = run_with_faults(0.2);
  EXPECT_GT(high.faults.injected, low.faults.injected);
  EXPECT_GE(high.total_wrong_results() + high.total_silenced(),
            low.total_wrong_results() + low.total_silenced());
}

}  // namespace
}  // namespace flexrt

// Fault-tolerant fleet analysis: the fault::recovery helpers' contract, the
// FaultSweepRequest semantics (per-class verdicts, monotone degradation in
// the fault rate, baseline consistency against the direct baseline calls)
// and streamed==buffered equivalence for the new request type.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "baseline/primary_backup.hpp"
#include "baseline/static_config.hpp"
#include "common/error.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "fault/recovery.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/analysis_service.hpp"

namespace flexrt::svc {
namespace {

using hier::Scheduler;

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- fault::recovery helper properties -------------------------------------

TEST(FaultRecovery, GapIsStatisticalSeparationFlooredByTheHardMinimum) {
  EXPECT_EQ(fault::recovery_gap({0.0, 1.0}), kInf);
  EXPECT_EQ(fault::recovery_gap({-1.0, 1.0}), kInf);
  EXPECT_EQ(fault::recovery_gap({0.001, 1.0}), 1000.0);  // 1/rate dominates
  EXPECT_EQ(fault::recovery_gap({10.0, 2.0}), 2.0);      // floor dominates
}

TEST(FaultRecovery, RecoveryTaskIsLargestJobPerGapWithImplicitDeadline) {
  rt::TaskSet channel{{"a", 0.2, 4.0, 4.0, rt::Mode::FS},
                      {"b", 0.5, 8.0, 6.0, rt::Mode::FS}};
  const std::optional<rt::Task> rec = fault::recovery_task(channel, 50.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->wcet, 0.5);  // the largest WCET a fault can force again
  EXPECT_EQ(rec->period, 50.0);
  EXPECT_EQ(rec->deadline, 50.0);  // implicit: done before the next strike

  EXPECT_FALSE(fault::recovery_task(rt::TaskSet{}, 50.0).has_value());
  EXPECT_FALSE(fault::recovery_task(channel, kInf).has_value());
  EXPECT_THROW(fault::recovery_task(channel, -1.0), ModelError);
  // Faults closer than one full re-execution: no valid recovery task.
  EXPECT_THROW(fault::recovery_task(channel, 0.25), ModelError);
}

TEST(FaultRecovery, DedicatedChannelDegradesMonotonicallyWithTheGap) {
  rt::TaskSet channel{{"a", 1.0, 4.0, 4.0, rt::Mode::FS},
                      {"b", 1.0, 8.0, 8.0, rt::Mode::FS}};
  // U = 0.375; the recovery demand adds 1.0/gap of utilization and one
  // full re-execution of interference per gap.
  EXPECT_TRUE(fault::fs_schedulable_dedicated(channel, Scheduler::EDF, kInf));
  EXPECT_TRUE(fault::fs_schedulable_dedicated(channel, Scheduler::EDF, 100.0));
  // gap == max wcet: recovery alone saturates the processor.
  EXPECT_FALSE(fault::fs_schedulable_dedicated(channel, Scheduler::EDF, 1.0));
  EXPECT_FALSE(fault::fs_schedulable_dedicated(channel, Scheduler::EDF, 0.5));
  EXPECT_FALSE(fault::fs_schedulable_dedicated(channel, Scheduler::EDF, 0.0));
  // Verdicts are monotone in the gap: once schedulable, larger gaps stay so.
  bool prev = false;
  for (const double gap : {2.0, 4.0, 8.0, 16.0, 64.0, 256.0}) {
    const bool ok = fault::fs_schedulable_dedicated(channel, Scheduler::EDF,
                                                    gap);
    EXPECT_TRUE(ok || !prev) << "verdict regressed at gap " << gap;
    prev = ok;
  }
  // The empty channel has nothing to lose.
  EXPECT_TRUE(fault::fs_schedulable_dedicated(rt::TaskSet{}, Scheduler::EDF,
                                              0.0));
}

TEST(FaultRecovery, FpVariantResortsTheChannelDeadlineMonotonic) {
  // An unsorted channel must not trip the FP analysis' priority-order
  // requirement once the recovery task is appended.
  rt::TaskSet channel{{"slow", 0.5, 16.0, 16.0, rt::Mode::FS},
                      {"fast", 0.2, 2.0, 2.0, rt::Mode::FS}};
  EXPECT_TRUE(fault::fs_schedulable_dedicated(channel, Scheduler::FP, 100.0));
  EXPECT_FALSE(fault::fs_schedulable_dedicated(channel, Scheduler::FP, 0.5));
}

TEST(FaultRecovery, CorruptionExposureIsRateTimesCoreOccupancy) {
  EXPECT_EQ(fault::corruption_exposure(0.0, 0.8), 0.0);
  EXPECT_EQ(fault::corruption_exposure(-1.0, 0.8), 0.0);
  EXPECT_DOUBLE_EQ(fault::corruption_exposure(0.1, 0.8), 0.1 * 0.8 / 4.0);
  EXPECT_DOUBLE_EQ(fault::corruption_exposure(2.0, 0.0), 0.0);
}

// --- FaultSweepRequest on the paper example --------------------------------

class FaultSweepOnPaperExample : public ::testing::Test {
 protected:
  FaultSweepOnPaperExample() : sys_(core::paper_example()) {
    service_.add_system(sys_, "paper");
  }

  FaultSweepRequest request() const {
    FaultSweepRequest req;
    req.rates = {0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0};
    req.min_separation = 1.0;
    req.overheads = {0.02, 0.02, 0.02};
    req.goal = core::DesignGoal::MaxSlackBandwidth;
    return req;
  }

  core::ModeTaskSystem sys_;
  AnalysisService service_;
};

TEST_F(FaultSweepOnPaperExample, NominalDesignMatchesSolveAndCoversAllRates) {
  const FaultSweepRequest req = request();
  const FaultSweepResult r = service_.run_one(0, req);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.feasible) << r.infeasible;
  const SolveResult solved = service_.run_one(
      0, SolveRequest{req.alg, req.overheads, req.goal, req.search,
                      req.accuracy});
  EXPECT_EQ(r.schedule.period, solved.design.schedule.period);
  EXPECT_EQ(r.schedule.fs.usable, solved.design.schedule.fs.usable);
  ASSERT_EQ(r.points.size(), req.rates.size());
  for (std::size_t k = 0; k < req.rates.size(); ++k) {
    EXPECT_EQ(r.points[k].rate, req.rates[k]);
  }
}

TEST_F(FaultSweepOnPaperExample, NominalPhaseIsSolvesLadder) {
  // The nominal design phase runs solve's accuracy ladder: same schedule,
  // same provenance, for both schedulers and for fixed and adaptive
  // policies (the adaptive one seeded low enough to climb).
  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    for (const AccuracyPolicy& accuracy :
         {AccuracyPolicy::fixed(), AccuracyPolicy::adaptive(1e-6, 4)}) {
      FaultSweepRequest req = request();
      req.alg = alg;
      req.accuracy = accuracy;
      const FaultSweepResult r = service_.run_one(0, req);
      const SolveResult s = service_.run_one(
          0, SolveRequest{req.alg, req.overheads, req.goal, req.search,
                          req.accuracy});
      ASSERT_TRUE(r.ok()) << r.error;
      ASSERT_TRUE(s.ok()) << s.error;
      ASSERT_EQ(r.feasible, s.feasible);
      const core::ModeSchedule& want = s.design.schedule;
      EXPECT_EQ(r.schedule.period, want.period);
      for (const rt::Mode mode : core::kAllModes) {
        EXPECT_EQ(r.schedule.slot(mode).usable, want.slot(mode).usable);
        EXPECT_EQ(r.schedule.slot(mode).overhead, want.slot(mode).overhead);
      }
      EXPECT_EQ(r.prov.dl_exact, s.prov.dl_exact);
      EXPECT_EQ(r.prov.fp_exact, s.prov.fp_exact);
      EXPECT_EQ(r.prov.budget, s.prov.budget);
      EXPECT_EQ(r.prov.fp_budget, s.prov.fp_budget);
      EXPECT_EQ(r.prov.probes, s.prov.probes);
      EXPECT_EQ(r.prov.gap, s.prov.gap);
      EXPECT_EQ(r.prov.degraded, s.prov.degraded);
    }
  }
  // The adaptive ladder did climb, so the comparison covers several rungs.
  FaultSweepRequest req = request();
  req.accuracy = AccuracyPolicy::adaptive(1e-6, 4);
  EXPECT_GT(service_.run_one(0, req).prov.probes, 1u);
}

TEST_F(FaultSweepOnPaperExample, RateZeroIsTheFaultFreePlatform) {
  const FaultSweepResult r = service_.run_one(0, request());
  ASSERT_TRUE(r.ok());
  const FaultRatePoint& p = r.points.front();
  EXPECT_TRUE(std::isinf(p.recovery_gap));
  // No faults: every class keeps its designed guarantee and nothing corrupts.
  EXPECT_TRUE(p.ft_ok);
  EXPECT_TRUE(p.fs_ok);
  EXPECT_TRUE(p.nf_ok);
  EXPECT_EQ(p.nf_exposure, 0.0);
}

TEST_F(FaultSweepOnPaperExample, VerdictsDegradeMonotonicallyInTheRate) {
  const FaultSweepResult r = service_.run_one(0, request());
  ASSERT_TRUE(r.ok());
  // FT masks and NF ignores timing at every rate; FS may flip to
  // unschedulable as the recovery gap shrinks, and once lost it stays lost
  // (rates are swept in increasing order). Exposure grows with the rate.
  bool fs_lost = false;
  double prev_exposure = -1.0;
  double prev_gap = kInf;
  for (const FaultRatePoint& p : r.points) {
    EXPECT_TRUE(p.ft_ok) << "rate " << p.rate;
    EXPECT_TRUE(p.nf_ok) << "rate " << p.rate;
    EXPECT_LE(p.recovery_gap, prev_gap) << "rate " << p.rate;
    prev_gap = p.recovery_gap;
    EXPECT_GT(p.nf_exposure, prev_exposure) << "rate " << p.rate;
    prev_exposure = p.nf_exposure;
    if (fs_lost) {
      EXPECT_FALSE(p.fs_ok) << "rate " << p.rate;
    }
    if (!p.fs_ok) fs_lost = true;
  }
  // The paper example's FS channels survive one fault per 1000 units but
  // not ten faults per unit -- the sweep's two endpoints disagree, so the
  // curve is informative, not vacuous.
  EXPECT_TRUE(r.points.front().fs_ok);
  EXPECT_FALSE(r.points.back().fs_ok);
}

TEST_F(FaultSweepOnPaperExample, BaselineVerdictsMatchTheDirectBaselineCalls) {
  const FaultSweepRequest req = request();
  const FaultSweepResult r = service_.run_one(0, req);
  ASSERT_TRUE(r.ok());

  rt::TaskSet all;
  for (const rt::Mode mode : core::kAllModes) {
    for (const rt::Task& t : sys_.mode_tasks(mode)) all.add(t);
  }
  const bool pb = baseline::try_primary_backup(all, req.alg);
  const bool sft =
      baseline::try_static(all, baseline::StaticConfig::AllFT, req.alg)
          .schedulable;
  const bool snf =
      baseline::try_static(all, baseline::StaticConfig::AllNF, req.alg)
          .schedulable;
  const auto fs_bins =
      baseline::static_partition(all, baseline::StaticConfig::AllFS);

  for (const FaultRatePoint& p : r.points) {
    // PB and the FT/NF static platforms are fault-rate independent: active
    // backups mask, AllFT masks, AllNF never promised protection.
    EXPECT_EQ(p.pb_ok, pb) << "rate " << p.rate;
    EXPECT_EQ(p.static_ft_ok, sft) << "rate " << p.rate;
    EXPECT_EQ(p.static_nf_ok, snf) << "rate " << p.rate;
    // The static-FS verdict is the dedicated recovery test per packed bin.
    bool sfs = fs_bins.has_value();
    if (fs_bins) {
      for (const rt::TaskSet& bin : *fs_bins) {
        sfs = sfs && fault::fs_schedulable_dedicated(bin, req.alg,
                                                     p.recovery_gap);
      }
    }
    EXPECT_EQ(p.static_fs_ok, sfs) << "rate " << p.rate;
  }
  // The paper example hosts FT tasks, which the all-FS platform cannot
  // satisfy at any rate -- the flexible platform's core advantage.
  EXPECT_FALSE(fs_bins.has_value());
}

TEST_F(FaultSweepOnPaperExample, BaselinesCanBeSwitchedOff) {
  FaultSweepRequest req = request();
  req.with_baselines = false;
  const FaultSweepResult r = service_.run_one(0, req);
  ASSERT_TRUE(r.ok());
  for (const FaultRatePoint& p : r.points) {
    EXPECT_FALSE(p.pb_ok);
    EXPECT_FALSE(p.static_ft_ok);
    EXPECT_FALSE(p.static_fs_ok);
    EXPECT_FALSE(p.static_nf_ok);
  }
}

TEST_F(FaultSweepOnPaperExample, InfeasibleNominalDesignSweepsNothing) {
  FaultSweepRequest req = request();
  req.overheads = {10.0, 10.0, 10.0};  // overheads dwarf every period
  req.search.p_max = 3.0;
  const FaultSweepResult r = service_.run_one(0, req);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.infeasible.empty());
  EXPECT_TRUE(r.points.empty());
}

TEST(FaultSweepWithoutFs, EmptyFsModeNeedsNoSupply) {
  // Without FS tasks the design's Q_FS is 0, a rate no supply can have; the
  // FS class has nothing to lose, so every point is fs_ok, not an error.
  const core::ModeTaskSystem& paper = core::paper_example();
  const auto channels = [&](rt::Mode mode) {
    const auto p = paper.partitions(mode);
    return std::vector<rt::TaskSet>(p.begin(), p.end());
  };
  AnalysisService service;
  service.add_system(core::ModeTaskSystem(channels(rt::Mode::FT), {},
                                          channels(rt::Mode::NF)),
                     "no-fs");
  FaultSweepRequest req;
  req.rates = {0.0, 0.1, 1.0};
  for (const bool exact : {false, true}) {
    req.use_exact_supply = exact;
    const FaultSweepResult r = service.run_one(0, req);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.feasible) << r.infeasible;
    EXPECT_EQ(r.schedule.fs.usable, 0.0);
    ASSERT_EQ(r.points.size(), req.rates.size());
    for (const FaultRatePoint& p : r.points) EXPECT_TRUE(p.fs_ok);
  }
}

// --- fleet + streaming -----------------------------------------------------

TEST(FaultSweepFleet, StreamedResultsEqualBufferedResultsWithErrorRows) {
  // A generated fleet with an unpackable entry mid-stream: the buffered and
  // streamed paths must agree row for row, and the unpackable entry must
  // surface as an error row in both, never a lost ticket.
  core::StudyOptions study;
  study.trials = 7;
  study.base_seed = 0xFA17;
  AnalysisService service;
  service.add_fleet(study,
                    [](std::size_t t, Rng&) -> std::optional<core::ModeTaskSystem> {
                      if (t == 3) return std::nullopt;
                      return core::paper_example();
                    });

  FaultSweepRequest req;
  req.rates = {0.0, 0.01, 1.0};
  req.overheads = {0.02, 0.02, 0.02};
  req.goal = core::DesignGoal::MaxSlackBandwidth;

  const std::vector<FaultSweepResult> want = service.run(req);
  std::vector<FaultSweepResult> got;
  const StreamStats stats = service.run(
      req, [&](const FaultSweepResult& r) { got.push_back(r); });

  EXPECT_EQ(stats.emitted, want.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].system, i);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].error, want[i].error);
    EXPECT_EQ(got[i].feasible, want[i].feasible);
    ASSERT_EQ(got[i].points.size(), want[i].points.size());
    for (std::size_t k = 0; k < want[i].points.size(); ++k) {
      EXPECT_EQ(got[i].points[k].rate, want[i].points[k].rate);
      EXPECT_EQ(got[i].points[k].fs_ok, want[i].points[k].fs_ok);
      EXPECT_EQ(got[i].points[k].nf_exposure, want[i].points[k].nf_exposure);
      EXPECT_EQ(got[i].points[k].pb_ok, want[i].points[k].pb_ok);
    }
  }
  EXPECT_EQ(want[3].error, "packing failed");
  EXPECT_TRUE(want[3].points.empty());
  EXPECT_EQ(got[3].error, "packing failed");
}

}  // namespace
}  // namespace flexrt::svc

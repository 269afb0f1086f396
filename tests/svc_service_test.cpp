// The multi-system analysis service: request/response round-trips for every
// request type, bit-for-bit parity with the direct BatchEngine/solve_design
// paths under the fixed accuracy policy, adaptive-budget convergence with
// provenance, and fleet semantics (shard layout independence, pack-failure
// accounting).
#include "svc/analysis_service.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/error.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/integration.hpp"
#include "core/paper_example.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/jsonl.hpp"

namespace flexrt::svc {
namespace {

using hier::Scheduler;

class ServiceOnPaperExample : public ::testing::Test {
 protected:
  ServiceOnPaperExample() : sys_(core::paper_example()) {
    service_.add_system(sys_, "paper");
  }
  core::ModeTaskSystem sys_;
  AnalysisService service_;
};

// --- fixed-policy parity: service answers == engine answers, bitwise -----

TEST_F(ServiceOnPaperExample, SolveMatchesSolveDesignBitForBit) {
  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    for (const core::DesignGoal goal :
         {core::DesignGoal::MinOverheadBandwidth,
          core::DesignGoal::MaxSlackBandwidth}) {
      const core::Overheads ov{0.01, 0.02, 0.02};
      const SolveResult r = service_.run_one(0, SolveRequest{alg, ov, goal, {},
                                                             {}});
      ASSERT_TRUE(r.ok()) << r.error;
      ASSERT_TRUE(r.feasible);
      const core::Design d =
          core::solve_design(analysis::BatchEngine(sys_, alg), ov, goal);
      EXPECT_EQ(r.design.schedule.period, d.schedule.period);
      EXPECT_EQ(r.design.schedule.ft.usable, d.schedule.ft.usable);
      EXPECT_EQ(r.design.schedule.fs.usable, d.schedule.fs.usable);
      EXPECT_EQ(r.design.schedule.nf.usable, d.schedule.nf.usable);
      EXPECT_EQ(r.design.min_quantum_ft, d.min_quantum_ft);
    }
  }
}

TEST_F(ServiceOnPaperExample, MinQuantumMatchesEngineBitForBit) {
  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    const analysis::BatchEngine engine(sys_, alg);
    for (const double period : {0.5, 1.0, 2.0}) {
      const MinQuantumResult r =
          service_.run_one(0, MinQuantumRequest{alg, period, false, {}});
      ASSERT_TRUE(r.ok());
      for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
        EXPECT_EQ(r.mode_quantum[m],
                  engine.mode_min_quantum(core::kAllModes[m], period));
      }
      EXPECT_EQ(r.margin, engine.feasibility_margin(period));
    }
  }
}

TEST_F(ServiceOnPaperExample, RegionSweepMatchesEngineBitForBit) {
  core::SearchOptions opts;
  opts.p_min = 0.2;
  opts.p_max = 2.0;
  opts.grid_step = 0.1;
  const analysis::BatchEngine engine(sys_, Scheduler::EDF);
  const RegionSweepResult r =
      service_.run_one(0, RegionSweepRequest{Scheduler::EDF, opts, {}});
  ASSERT_TRUE(r.ok());
  const std::vector<core::RegionSample> want = engine.sample_region(opts);
  ASSERT_EQ(r.samples.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r.samples[i].period, want[i].period);
    EXPECT_EQ(r.samples[i].margin, want[i].margin);
  }
}

TEST_F(ServiceOnPaperExample, SensitivityMatchesEngineBitForBit) {
  const analysis::BatchEngine engine(sys_, Scheduler::EDF);
  const core::Design d = core::solve_design(
      engine, {0.01, 0.01, 0.01}, core::DesignGoal::MaxSlackBandwidth);
  SensitivityRequest req;
  req.alg = Scheduler::EDF;
  req.schedule = d.schedule;
  const SensitivityResult r = service_.run_one(0, req);
  ASSERT_TRUE(r.ok());
  const std::vector<core::TaskMargin> want =
      engine.sensitivity_report(d.schedule);
  ASSERT_EQ(r.margins.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r.margins[i].name, want[i].name);
    EXPECT_EQ(r.margins[i].scale_margin, want[i].scale_margin);
  }
  EXPECT_EQ(r.global_margin, engine.global_scale_margin(d.schedule));

  // Single-task form: one row, matching the all-tasks report.
  req.task = want.at(2).name;
  const SensitivityResult one = service_.run_one(0, req);
  ASSERT_EQ(one.margins.size(), 1u);
  EXPECT_EQ(one.margins[0].name, want[2].name);
  EXPECT_EQ(one.margins[0].scale_margin, want[2].scale_margin);
  EXPECT_EQ(one.margins[0].wcet, want[2].wcet);
}

TEST_F(ServiceOnPaperExample, VerifyRoundTrip) {
  const core::Design d =
      core::solve_design(analysis::BatchEngine(sys_, Scheduler::EDF),
                         {0.0, 0.0, 0.0}, core::DesignGoal::MaxSlackBandwidth);
  const VerifyResult good =
      service_.run_one(0, VerifyRequest{Scheduler::EDF, d.schedule, false, {}});
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.schedulable);
  EXPECT_TRUE(good.prov.dl_exact);

  core::ModeSchedule broken = d.schedule;
  broken.ft.usable *= 0.5;  // starve the FT channel
  const VerifyResult bad =
      service_.run_one(0, VerifyRequest{Scheduler::EDF, broken, false, {}});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.schedulable);
}

// --- provenance + adaptive accuracy ---------------------------------------

TEST_F(ServiceOnPaperExample, FixedPolicyReportsExactProvenance) {
  const MinQuantumResult r =
      service_.run_one(0, MinQuantumRequest{Scheduler::EDF, 1.0, false, {}});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.prov.dl_exact);  // paper example's dlSet fits the budget
  EXPECT_EQ(r.prov.budget, rt::kDefaultDlPointBudget);
  EXPECT_EQ(r.prov.probes, 1u);
  ASSERT_TRUE(r.prov.gap.has_value());
  EXPECT_EQ(*r.prov.gap, 0.0);
  EXPECT_GE(r.prov.wall_ms, 0.0);
}

TEST_F(ServiceOnPaperExample, AdaptiveLadderReachesTheExactAnswer) {
  // Seed the ladder with a budget far too small for even this tiny system:
  // the ladder must climb until the deadline sets are exact and land on
  // the fixed-policy answer with gap 0.
  const MinQuantumRequest fixed{Scheduler::EDF, 1.0, false, {}};
  MinQuantumRequest adaptive = fixed;
  adaptive.accuracy = AccuracyPolicy::adaptive(1e-6, /*initial_points=*/4);
  const MinQuantumResult want = service_.run_one(0, fixed);
  const MinQuantumResult got = service_.run_one(0, adaptive);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.prov.dl_exact);
  ASSERT_TRUE(got.prov.gap.has_value());
  EXPECT_EQ(*got.prov.gap, 0.0);
  EXPECT_GT(got.prov.probes, 1u);
  EXPECT_GT(got.prov.budget, 4u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_NEAR(got.mode_quantum[m], want.mode_quantum[m], 1e-6);
  }
}

class ServiceOnStressSet : public ::testing::Test {
 protected:
  ServiceOnStressSet() {
    gen::StressParams sp;
    sp.num_tasks = 200;
    sp.total_utilization = 0.5;
    Rng rng(0xABCDEF);
    stress_ = gen::generate_stress_set(sp, rng);
    // A single NF partition carrying the whole hyperperiod-hostile set.
    service_.add_system(core::ModeTaskSystem({}, {}, {stress_}), "stress");
  }
  rt::TaskSet stress_;
  AnalysisService service_;
};

TEST_F(ServiceOnStressSet, AdaptiveMinQuantumConvergesAndReportsBudget) {
  const double period = 0.4;
  MinQuantumRequest small{Scheduler::EDF, period, false,
                          AccuracyPolicy::fixed(1u << 8)};
  const MinQuantumResult at_small = service_.run_one(0, small);
  ASSERT_TRUE(at_small.ok());
  EXPECT_FALSE(at_small.prov.dl_exact);  // hyperperiod-hostile: condensed
  EXPECT_FALSE(at_small.prov.gap.has_value());  // fixed + condensed: unknown

  const double tol = 1e-3;
  MinQuantumRequest adaptive = small;
  adaptive.accuracy = AccuracyPolicy::adaptive(tol, 1u << 8, 1u << 18);
  const MinQuantumResult r = service_.run_one(0, adaptive);
  ASSERT_TRUE(r.ok());
  // Converged: the answer moved <= tol in the last round (or turned exact),
  // strictly before the budget cap -- the stop was the tolerance, not
  // ladder exhaustion.
  ASSERT_TRUE(r.prov.gap.has_value());
  EXPECT_LE(*r.prov.gap, tol);
  EXPECT_GT(r.prov.probes, 1u);
  EXPECT_GT(r.prov.budget, std::size_t{1} << 8);
  EXPECT_LT(r.prov.budget, std::size_t{1} << 18);
  // Monotone non-worsening: growing the budget only refines the safe
  // over-approximation, so the converged quantum is never above the
  // small-budget one.
  const double q_small = at_small.mode_quantum[2];
  const double q_adapt = r.mode_quantum[2];
  EXPECT_LE(q_adapt, q_small + 1e-9);
  EXPECT_GT(q_adapt, 0.0);
}

class ServiceOnFpStressSet : public ::testing::Test {
 protected:
  ServiceOnFpStressSet() {
    gen::StressParams sp;
    sp.num_tasks = 200;
    sp.total_utilization = 0.5;
    Rng rng(0xFB0);
    stress_ = gen::generate_stress_set_fp(sp, rng);
    service_.add_system(core::ModeTaskSystem({}, {}, {stress_}), "fp-stress");
  }
  rt::TaskSet stress_;
  AnalysisService service_;
};

TEST_F(ServiceOnFpStressSet, FixedPolicyMatchesDirectEngineBitForBit) {
  // The one accuracy knob drives the FP point budget: a fixed-budget FP
  // request must reproduce a BatchEngine built with the same FpPointOptions
  // bit for bit, and report the FP provenance.
  const double period = 0.8;
  const std::size_t budget = 1u << 6;
  rt::FpPointOptions fp_opts;
  fp_opts.max_points = budget;
  rt::DlBoundOptions dl_opts;
  dl_opts.max_points = budget;
  const analysis::BatchEngine engine(service_.system(0), Scheduler::FP,
                                     dl_opts, fp_opts);
  const MinQuantumResult r = service_.run_one(
      0, MinQuantumRequest{Scheduler::FP, period, false,
                           AccuracyPolicy::fixed(budget)});
  ASSERT_TRUE(r.ok());
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    EXPECT_EQ(r.mode_quantum[m],
              engine.mode_min_quantum(core::kAllModes[m], period));
  }
  EXPECT_TRUE(r.prov.dl_exact);   // EDF side never consulted under FP
  EXPECT_FALSE(r.prov.fp_exact);  // point-hostile: condensed
  EXPECT_EQ(r.prov.budget, budget);
  EXPECT_EQ(r.prov.fp_budget, budget);
  EXPECT_FALSE(r.prov.gap.has_value());  // fixed + condensed: unknown

  // Verify rides the same engine: quantum at the condensed minQ passes and
  // carries the same provenance fields.
  core::ModeSchedule schedule;
  schedule.period = period;
  schedule.nf = {std::min(period, r.mode_quantum[2] * 1.001), 0.0};
  const VerifyResult v = service_.run_one(
      0, VerifyRequest{Scheduler::FP, schedule, false,
                       AccuracyPolicy::fixed(budget)});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.schedulable, engine.verify(schedule));
  EXPECT_TRUE(v.schedulable);
  EXPECT_EQ(v.prov.fp_budget, budget);
}

TEST_F(ServiceOnFpStressSet, AdaptiveFpLadderConvergesAndReportsBudget) {
  const double period = 0.8;
  const MinQuantumResult at_small = service_.run_one(
      0, MinQuantumRequest{Scheduler::FP, period, false,
                           AccuracyPolicy::fixed(1u << 5)});
  ASSERT_TRUE(at_small.ok());
  EXPECT_FALSE(at_small.prov.fp_exact);

  const double tol = 1e-3;
  const MinQuantumResult r = service_.run_one(
      0, MinQuantumRequest{Scheduler::FP, period, false,
          AccuracyPolicy::adaptive(tol, 1u << 5, 1u << 14)});
  ASSERT_TRUE(r.ok());
  // Converged within the cap: the stop was the tolerance or exactness.
  ASSERT_TRUE(r.prov.gap.has_value());
  EXPECT_LE(*r.prov.gap, tol);
  EXPECT_GT(r.prov.probes, 1u);
  EXPECT_GT(r.prov.budget, std::size_t{1} << 5);
  // Monotone non-worsening along the rungs.
  EXPECT_LE(r.mode_quantum[2], at_small.mode_quantum[2] + 1e-9);
  EXPECT_GT(r.mode_quantum[2], 0.0);
}

TEST_F(ServiceOnStressSet, EdfRequestsReportTrivialFpProvenance) {
  const MinQuantumResult r = service_.run_one(
      0, MinQuantumRequest{Scheduler::EDF, 0.4, false,
                           AccuracyPolicy::fixed(1u << 8)});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.prov.fp_exact);  // FP side never consulted under EDF
  EXPECT_EQ(r.prov.fp_budget, 0u);
}

TEST_F(ServiceOnStressSet, BudgetLadderIsMonotoneNonWorsening) {
  const double period = 0.4;
  double prev = std::numeric_limits<double>::infinity();
  for (const std::size_t budget : {1u << 8, 1u << 10, 1u << 12, 1u << 14}) {
    const MinQuantumResult r = service_.run_one(
        0, MinQuantumRequest{Scheduler::EDF, period, false,
                             AccuracyPolicy::fixed(budget)});
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r.mode_quantum[2], prev + 1e-9) << "budget " << budget;
    prev = r.mode_quantum[2];
  }
}

TEST_F(ServiceOnStressSet, CappedLadderReportsUnknownGapAndCapParity) {
  // An adaptive ladder that exhausts its budget cap while the answer is
  // still moving must report gap = nullopt (unknown), not the last
  // inter-rung move: that move bounds nothing about the distance between
  // the capped answer and the exact one. The answer itself must equal the
  // fixed-policy probe at the cap budget bit for bit (the final rung IS
  // that probe).
  const double period = 0.4;
  const std::size_t cap = 1u << 10;
  // tol < 0: no finite move can converge the ladder, so it deterministically
  // climbs to the cap while the condensed answer is still refining.
  MinQuantumRequest req{Scheduler::EDF, period, false,
                        AccuracyPolicy::adaptive(/*tol=*/-1.0, 1u << 6, cap)};
  const MinQuantumResult capped = service_.run_one(0, req);
  ASSERT_TRUE(capped.ok());
  EXPECT_FALSE(capped.prov.dl_exact);  // still condensed at the cap
  EXPECT_GT(capped.prov.probes, 1u);   // the ladder did climb
  EXPECT_EQ(capped.prov.budget, cap);  // ... all the way to the cap
  EXPECT_FALSE(capped.prov.gap.has_value()) << "unconverged capped ladder "
                                               "must not report a gap";

  const MinQuantumResult fixed = service_.run_one(
      0, MinQuantumRequest{Scheduler::EDF, period, false,
                           AccuracyPolicy::fixed(cap)});
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    EXPECT_EQ(capped.mode_quantum[m], fixed.mode_quantum[m]);
  }
  EXPECT_EQ(capped.margin, fixed.margin);
}

TEST_F(ServiceOnStressSet, AdaptiveVerifyEscalatesACondensedNo) {
  // A schedule near the edge: the condensed test may reject it while a
  // finer budget accepts. Whatever the verdict, adaptive verify must stop
  // with either schedulable, exact, or the cap -- and a condensed "yes"
  // must never be re-probed into a "no".
  const double period = 0.4;
  const MinQuantumResult q = service_.run_one(
      0, MinQuantumRequest{Scheduler::EDF, period, false,
                           AccuracyPolicy::fixed(1u << 14)});
  core::ModeSchedule schedule;
  schedule.period = period;
  schedule.nf = {q.mode_quantum[2] * 1.001, 0.0};
  VerifyRequest req{Scheduler::EDF, schedule, false,
                    AccuracyPolicy::adaptive(1e-4, 1u << 6, 1u << 16)};
  const VerifyResult r = service_.run_one(0, req);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.schedulable);  // quantum sits above a finer-budget minQ
  EXPECT_GE(r.prov.budget, std::size_t{1} << 6);
}

// --- verify provenance: the escalation ladder's stop table ----------------

TEST_F(ServiceOnPaperExample, VerifyProvenanceFollowsTheLadderStopTable) {
  // On the paper example the deadline sets are condensed at budgets 4 and
  // 8 and exact from 16 on. The designed schedule is a condensed "no" at
  // 4 and 8 and an exact "yes" at 16; the same schedule with every quantum
  // 10% larger is already a condensed "yes" at budget 4. A condensed "yes"
  // is definitive (gap 0, no escalation) under every policy; a condensed
  // "no" stops where the policy says: fixed at once (gap unknown),
  // adaptive at the first exact rung (gap 0), capped adaptive at the cap
  // (gap unknown), an elapsed deadline after the first rung (degraded).
  const core::ModeSchedule designed =
      service_.run_one(0, SolveRequest{Scheduler::EDF, {0.01, 0.01, 0.01},
                       core::DesignGoal::MaxSlackBandwidth, {}, {}})
          .design.schedule;
  core::ModeSchedule roomy = designed;
  for (core::Slot* slot : {&roomy.ft, &roomy.fs, &roomy.nf}) {
    slot->usable *= 1.1;
  }
  struct Row {
    const char* policy;
    AccuracyPolicy accuracy;
    bool schedulable;
    std::size_t probes;
    std::size_t budget;
    std::optional<double> gap;
    bool degraded;
  };
  const AccuracyPolicy fixed = AccuracyPolicy::fixed(4);
  const AccuracyPolicy adaptive = AccuracyPolicy::adaptive(1e-6, 4);
  const AccuracyPolicy capped = AccuracyPolicy::adaptive(1e-6, 4, 8);
  const AccuracyPolicy late = adaptive.with_deadline(1e-6);
  const std::vector<std::pair<core::ModeSchedule, std::vector<Row>>> table = {
      {roomy,
       {{"fixed", fixed, true, 1, 4, 0.0, false},
        {"adaptive", adaptive, true, 1, 4, 0.0, false},
        {"adaptive-capped", capped, true, 1, 4, 0.0, false},
        {"adaptive+deadline", late, true, 1, 4, 0.0, false}}},
      {designed,
       {{"fixed", fixed, false, 1, 4, std::nullopt, false},
        {"adaptive", adaptive, true, 3, 16, 0.0, false},
        {"adaptive-capped", capped, false, 2, 8, std::nullopt, false},
        {"adaptive+deadline", late, false, 1, 4, std::nullopt, true}}}};
  for (const auto& [schedule, rows] : table) {
    for (const Row& want : rows) {
      const VerifyResult r =
          service_.run_one(0, VerifyRequest{Scheduler::EDF, schedule, false,
                                            want.accuracy});
      SCOPED_TRACE(std::string(want.policy) +
                   (&schedule == &table[0].first ? " / roomy" : " / designed"));
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.schedulable, want.schedulable);
      EXPECT_EQ(r.prov.probes, want.probes);
      EXPECT_EQ(r.prov.budget, want.budget);
      EXPECT_EQ(r.prov.gap, want.gap);
      EXPECT_EQ(r.prov.degraded, want.degraded);
    }
  }
}

// --- fleets ---------------------------------------------------------------

TEST(ServiceFleet, GeneratedFleetIsShardLayoutIndependent) {
  const auto factory = [](std::size_t, Rng& rng) {
    return gen::study_system(rng);
  };
  core::StudyOptions whole;
  whole.trials = 7;
  whole.base_seed = 0x51;

  AnalysisService reference;
  reference.add_fleet(whole, factory);
  core::SearchOptions opts;
  opts.grid_step = 5e-3;
  opts.p_max = 10.0;
  const SolveRequest req{Scheduler::EDF,
                         {0.05, 0.0, 0.0},
                         core::DesignGoal::MinOverheadBandwidth,
                         opts,
                         {}};
  const std::vector<SolveResult> want = reference.run(req);
  ASSERT_EQ(want.size(), 7u);

  std::vector<double> assembled(whole.trials, -2.0);
  for (std::size_t k = 0; k < 2; ++k) {
    AnalysisService part;
    core::StudyOptions shard = whole;
    shard.shard = {k, 2};
    part.add_fleet(shard, factory);
    for (const SolveResult& r : part.run(req)) {
      ASSERT_NE(r.trial, kNoTrial);
      assembled[r.trial] =
          r.ok() && r.feasible ? r.design.schedule.period : -1.0;
    }
  }
  for (std::size_t t = 0; t < whole.trials; ++t) {
    const double ref =
        want[t].ok() && want[t].feasible ? want[t].design.schedule.period
                                         : -1.0;
    EXPECT_EQ(assembled[t], ref) << "trial " << t;
  }
}

TEST(ServiceFleet, PackFailureBecomesAnswerlessEntry) {
  core::StudyOptions study;
  study.trials = 3;
  AnalysisService service;
  service.add_fleet(study,
                    [](std::size_t t, Rng&) -> std::optional<core::ModeTaskSystem> {
                      if (t == 1) return std::nullopt;  // "unpackable" trial
                      return core::paper_example();
                    });
  ASSERT_EQ(service.size(), 3u);
  EXPECT_TRUE(service.has_system(0));
  EXPECT_FALSE(service.has_system(1));
  const std::vector<SolveResult> rs =
      service.run(SolveRequest{Scheduler::EDF, {},
                               core::DesignGoal::MinOverheadBandwidth,
                     {}, {}});
  EXPECT_TRUE(rs[0].ok());
  EXPECT_FALSE(rs[1].ok());
  EXPECT_EQ(rs[1].error, "packing failed");
  EXPECT_EQ(rs[1].trial, 1u);
  EXPECT_TRUE(rs[2].ok());
  EXPECT_THROW(service.system(1), ModelError);
}

TEST_F(ServiceOnPaperExample, EngineCacheReturnsTheSameEngine) {
  const analysis::BatchEngine* a =
      service_.engine_ptr(0, Scheduler::EDF).get();
  const analysis::BatchEngine* b =
      service_.engine_ptr(0, Scheduler::EDF).get();
  const analysis::BatchEngine* c =
      service_.engine_ptr(0, Scheduler::EDF, 1u << 8).get();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a->dl_options().max_points, rt::kDefaultDlPointBudget);
  EXPECT_EQ(c->dl_options().max_points, std::size_t{1} << 8);
}

// --- jsonl ----------------------------------------------------------------

TEST(JsonRow, WritesAndScansFlatRows) {
  JsonRow row;
  row.field("kind", "study_trial")
      .field("trial", std::size_t{42})
      .field("feasible", true)
      .field("period", 2.9660000000000002)
      .null_field("gap")
      .field("note", "a \"quoted\"\nvalue");
  const std::string s = row.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_EQ(s.back(), '}');
  EXPECT_EQ(json_string_field(s, "kind").value_or(""), "study_trial");
  EXPECT_EQ(json_number_field(s, "trial").value_or(-1), 42.0);
  EXPECT_EQ(json_bool_field(s, "feasible").value_or(false), true);
  EXPECT_EQ(json_number_field(s, "period").value_or(0.0),
            2.9660000000000002);
  EXPECT_FALSE(json_number_field(s, "gap").has_value());  // null
  EXPECT_FALSE(json_number_field(s, "absent").has_value());
  EXPECT_EQ(json_string_field(s, "note").value_or(""), "a \"quoted\"\nvalue");
}

TEST(JsonRow, RoundTripsDoublesByteExactly) {
  for (const double v : {2.966, 1.0 / 3.0, 1e-9, 123456.789, 0.1 + 0.2}) {
    JsonRow row;
    row.field("x", v);
    const double back = json_number_field(row.str(), "x").value();
    EXPECT_EQ(back, v);
    JsonRow again;
    again.field("x", back);
    EXPECT_EQ(again.str(), row.str());
  }
}

TEST(JsonRow, KeyInsideStringValueDoesNotConfuseTheScanner) {
  JsonRow row;
  row.field("name", "\"trial\":99,").field("trial", std::size_t{7});
  EXPECT_EQ(json_number_field(row.str(), "trial").value_or(-1), 7.0);
}

TEST(JsonRow, RoundTripsProvenanceFields) {
  // The provenance block every flexrt_design row carries, including the
  // FP condensation fields introduced with the FP point budget.
  Provenance prov;
  prov.dl_exact = true;
  prov.fp_exact = false;
  prov.budget = 1u << 6;
  prov.fp_budget = 1u << 6;
  prov.probes = 3;
  prov.gap = 0.125;
  JsonRow row;
  row.field("dl_exact", prov.dl_exact)
      .field("fp_exact", prov.fp_exact)
      .field("budget", prov.budget)
      .field("fp_budget", prov.fp_budget)
      .field("probes", prov.probes)
      .field("gap", *prov.gap);
  const std::string s = row.str();
  EXPECT_EQ(json_bool_field(s, "dl_exact").value_or(false), true);
  EXPECT_EQ(json_bool_field(s, "fp_exact").value_or(true), false);
  EXPECT_EQ(json_number_field(s, "budget").value_or(-1), 64.0);
  EXPECT_EQ(json_number_field(s, "fp_budget").value_or(-1), 64.0);
  EXPECT_EQ(json_number_field(s, "probes").value_or(-1), 3.0);
  EXPECT_EQ(json_number_field(s, "gap").value_or(-1), 0.125);
}

TEST(JsonRow, NonFiniteDoublesBecomeNull) {
  JsonRow row;
  row.field("inf", std::numeric_limits<double>::infinity());
  EXPECT_FALSE(json_number_field(row.str(), "inf").has_value());
  EXPECT_NE(row.str().find("\"inf\":null"), std::string::npos);
}

// --- string escape round-trips --------------------------------------------

std::string roundtrip(const std::string& s) {
  JsonRow row;
  row.field("x", s);
  return json_string_field(row.str(), "x").value_or("<DECODE FAILED>");
}

TEST(JsonRow, RoundTripsEverySingleByteString) {
  // json_escape's full output alphabet one byte at a time: the \uXXXX
  // control-character escapes (the PR-5 decoder fix), the two-character
  // escapes, and raw bytes >= 0x20 including the non-ASCII range.
  for (int c = 0; c < 256; ++c) {
    const std::string s(1, static_cast<char>(c));
    EXPECT_EQ(roundtrip(s), s) << "byte " << c;
  }
}

TEST(JsonRow, RoundTripsControlCharactersInsideRealNames) {
  // The writer escapes control characters as \u00XX; before the decoder
  // fix these came back as the literal text "u0007".
  const std::string bell_name = "sys\x07name";
  JsonRow row;
  row.field("name", bell_name);
  EXPECT_NE(row.str().find("\\u0007"), std::string::npos);
  EXPECT_EQ(json_string_field(row.str(), "name").value_or(""), bell_name);
}

TEST(JsonRow, RoundTripsRandomByteStringsProperty) {
  // Property: json_string_field inverts json_escape for arbitrary byte
  // strings -- embedded NULs, control runs, backslash/quote storms, and
  // high bytes (UTF-8 passes through unescaped).
  Rng rng(0x5EED5);
  for (int iter = 0; iter < 400; ++iter) {
    std::string s;
    const std::int64_t len = rng.uniform_int(0, 40);
    for (std::int64_t k = 0; k < len; ++k) {
      switch (rng.uniform_int(0, 3)) {
        case 0:  // hostile punctuation
          s += std::string("\"\\/{}:,")[static_cast<std::size_t>(
              rng.uniform_int(0, 6))];
          break;
        case 1:  // control characters incl. NUL
          s += static_cast<char>(rng.uniform_int(0, 0x1F));
          break;
        default:  // any byte
          s += static_cast<char>(rng.uniform_int(0, 255));
      }
    }
    EXPECT_EQ(roundtrip(s), s) << "iter " << iter;
  }
}

/// Builds the row {"x":"<payload>"} with the payload JSON text verbatim.
std::string raw_row(const std::string& payload) {
  return "{\"x\":\"" + payload + "\"}";
}

TEST(JsonRow, DecodesForeignUnicodeEscapes) {
  // Rows written by other tools may escape more than control characters;
  // the scanner decodes any BMP escape (either hex case) and surrogate
  // pairs to UTF-8.
  EXPECT_EQ(json_string_field(raw_row("\\u0041\\u004A"), "x").value_or(""),
            "AJ");
  EXPECT_EQ(json_string_field(raw_row("\\u00e9"), "x").value_or(""),
            "\xC3\xA9");  // e-acute, 2-byte UTF-8
  EXPECT_EQ(json_string_field(raw_row("\\u20AC"), "x").value_or(""),
            "\xE2\x82\xAC");  // euro sign, 3-byte UTF-8, uppercase hex
  EXPECT_EQ(json_string_field(raw_row("\\ud83d\\ude00"), "x").value_or(""),
            "\xF0\x9F\x98\x80");  // U+1F600 via surrogate pair
  EXPECT_EQ(json_string_field(raw_row("\\b\\f"), "x").value_or(""), "\b\f");
}

TEST(JsonRow, MalformedUnicodeEscapesYieldNullopt) {
  // Truncated hex, non-hex digits, and lone/misordered surrogates must
  // fail the whole field rather than silently corrupt the value.
  for (const std::string payload : {
           "\\u00",              // truncated hex
           "\\u00zz",            // non-hex digits
           "\\ud83d",            // lone high surrogate
           "\\ud83dxy",          // high surrogate + garbage
           "\\ud83d\\u0041",     // high surrogate + non-low escape
           "\\ude00",            // low surrogate first
       }) {
    EXPECT_FALSE(json_string_field(raw_row(payload), "x").has_value())
        << payload;
  }
}

}  // namespace
}  // namespace flexrt::svc

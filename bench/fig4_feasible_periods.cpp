// E2 -- Figure 4 of the paper: the feasible-period region.
//
// Prints the curve lhs(P) = P - sum_k max_i minQ(T_k^i, alg, P) for both EDF
// and RM on the Table-1 task set, plus the five marked points:
//   (1) largest feasible P under EDF with zero overhead      (paper: 3.176)
//   (2) largest feasible P under RM with zero overhead       (paper: 2.381)
//   (3) largest admissible total overhead under EDF          (paper: 0.201)
//   (4) largest admissible total overhead under RM           (paper: 0.129)
//   (5) largest feasible P under EDF with O_tot = 0.05       (paper: 2.966)
//
// With --gen-trials N it appends a generated-system region study on the
// analysis service (svc/analysis_service.hpp): a fleet of N random systems
// (AnalysisService::add_fleet keeps the per-trial seeds layout-independent)
// probed by one G1 SolveRequest per scheduler. --shard k/N splits the trial
// range across processes; per-shard sum/count rows merge by addition.
//
// Usage: fig4_feasible_periods [--csv] [--step <dP>] [--gen-trials N]
//                              [--seed S] [--shard k/N]
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/integration.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/analysis_service.hpp"

using namespace flexrt;

int main(int argc, char** argv) {
  bool csv = false;
  double step = 0.05;
  core::StudyOptions study;
  study.trials = 0;  // generated part is opt-in (--gen-trials)
  study.base_seed = 0xF16;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) csv = true;
      if (std::strcmp(argv[i], "--step") == 0 && i + 1 < argc) {
        step = bench::parse_num("--step", argv[++i]);
        continue;
      }
      core::parse_study_flag(study, argc, argv, i, "--gen-trials");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (study.shard.index != 0 && study.trials == 0) {
    std::cout << "nothing to do: non-lead shard without --gen-trials\n";
    return 0;
  }

  const core::ModeTaskSystem sys = core::paper_example();
  const core::PaperReference ref;

  if (study.shard.index == 0) {
  std::cout << "Figure 4: region of feasible periods (13-task example)\n\n";
  core::SearchOptions opts;
  opts.p_min = 0.05;
  opts.p_max = 3.5;
  opts.grid_step = step;
  const auto edf = core::sample_region(sys, hier::Scheduler::EDF, opts);
  const auto rm = core::sample_region(sys, hier::Scheduler::FP, opts);

  Table curve({"P", "lhs_EDF", "lhs_RM", "feasible@O=0.05(EDF)"});
  for (std::size_t i = 0; i < edf.size(); ++i) {
    curve.row()
        .cell(edf[i].period, 3)
        .cell(edf[i].margin, 4)
        .cell(rm[i].margin, 4)
        .cell(edf[i].margin >= ref.o_tot ? "yes" : "no");
  }
  csv ? curve.print_csv(std::cout) : curve.print(std::cout);

  Table points({"point", "quantity", "measured", "paper"});
  const double p1 = core::max_feasible_period(sys, hier::Scheduler::EDF, 0.0);
  const double p2 = core::max_feasible_period(sys, hier::Scheduler::FP, 0.0);
  const auto o3 = core::max_admissible_overhead(sys, hier::Scheduler::EDF);
  const auto o4 = core::max_admissible_overhead(sys, hier::Scheduler::FP);
  const double p5 =
      core::max_feasible_period(sys, hier::Scheduler::EDF, ref.o_tot);
  points.row().cell("1").cell("P_max EDF, O=0").cell(p1, 3).cell(
      ref.p_max_edf_no_overhead, 3);
  points.row().cell("2").cell("P_max RM, O=0").cell(p2, 3).cell(
      ref.p_max_rm_no_overhead, 3);
  points.row().cell("3").cell("max O_tot EDF").cell(o3.max_overhead, 3).cell(
      ref.max_overhead_edf, 3);
  points.row().cell("4").cell("max O_tot RM").cell(o4.max_overhead, 3).cell(
      ref.max_overhead_rm, 3);
  points.row().cell("5").cell("P_max EDF, O=0.05").cell(p5, 3).cell(
      ref.p_max_edf_o005, 3);
  std::cout << "\nMarked points:\n";
  csv ? points.print_csv(std::cout) : points.print(std::cout);
  }  // lead shard

  if (study.trials > 0) {
    svc::AnalysisService service;
    service.add_fleet(study, [](std::size_t, Rng& rng) {
      return gen::study_system(rng);
    });
    core::SearchOptions opts;
    opts.grid_step = 5e-3;
    opts.p_max = 10.0;
    const core::Overheads ov{0.05, 0.0, 0.0};
    const auto [begin, end] = core::shard_range(study.trials, study.shard);
    std::cout << "\nE2b: generated systems, P_max distribution (trials "
              << begin << ".." << end << " of " << study.trials << ", shard "
              << study.shard.index + 1 << "/" << study.shard.count
              << ", O_tot = 0.05)\n\n";
    Table gen_t({"scheduler", "trials", "feasible", "sum_P_max",
                 "mean_P_max"});
    for (const bool edf : {true, false}) {
      const std::vector<svc::SolveResult> results = service.run(
          svc::SolveRequest{edf ? hier::Scheduler::EDF : hier::Scheduler::FP,
                            ov, core::DesignGoal::MinOverheadBandwidth, opts,
                            {}});
      std::size_t feasible = 0;
      double sum_p = 0.0;
      for (const svc::SolveResult& r : results) {
        if (!r.ok() || !r.feasible) continue;
        feasible++;
        sum_p += r.design.schedule.period;
      }
      gen_t.row()
          .cell(edf ? "EDF" : "RM")
          .cell(results.size())
          .cell(feasible)
          .cell(sum_p, 3)
          .cell(feasible ? sum_p / static_cast<double>(feasible) : 0.0, 3);
    }
    csv ? gen_t.print_csv(std::cout) : gen_t.print(std::cout);
  }
  return 0;
}

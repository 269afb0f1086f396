// E9 -- sensitivity of the design space to the mode-switch overhead.
//
// Sweeps O_tot and reports, for EDF and RM on the Table-1 system: the
// largest feasible period (goal G1), the wasted bandwidth O_tot/P at that
// design, and the best redistributable slack bandwidth (goal G2). Past the
// maximum admissible overhead (0.201 EDF / 0.129 RM) the design problem
// becomes infeasible. The whole sweep runs against one BatchEngine per
// scheduler (solve_design's engine overload) -- the per-partition caches
// are built once, not once per O_tot point.
//
// With --gen-trials N the bench adds a generated-system acceptance study on
// the analysis service (svc/analysis_service.hpp): a fleet of N random
// systems (per-trial seeds layout-independent via add_fleet), solved by one
// fleet-wide G1 SolveRequest per (scheduler, O_tot) point of the menu. The
// service's engine cache keys on (system, scheduler, budget), so all nine
// overhead levels of a scheduler reuse each system's per-partition caches
// -- the same reuse the per-trial BatchEngine loop used to hand-roll.
// Shard rows (counts) merge by addition across --shard k/N processes.
//
// Usage: overhead_sensitivity [--csv] [--gen-trials N] [--seed S]
//                             [--shard k/N]
#include <array>
#include <cstring>
#include <iostream>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/analysis_service.hpp"

using namespace flexrt;

namespace {

constexpr std::array<double, 9> kOverheadMenu = {
    0.0, 0.01, 0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25};

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  core::StudyOptions study;
  study.trials = 0;  // generated part is opt-in (--gen-trials)
  study.base_seed = 0xE9;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) csv = true;
      core::parse_study_flag(study, argc, argv, i, "--gen-trials");
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const core::ModeTaskSystem sys = core::paper_example();

  if (study.shard.index == 0) {
    std::cout << "E9: design space vs total mode-switch overhead "
              << "(Table-1 system)\n\n";
    Table t({"O_tot", "scheduler", "P_max(G1)", "overhead_bw(G1)",
             "slack_bw(G2)", "P(G2)"});
    for (const hier::Scheduler alg : {hier::Scheduler::EDF,
                                      hier::Scheduler::FP}) {
      // One engine per scheduler serves every overhead level.
      const analysis::BatchEngine engine(sys, alg);
      for (const double o : kOverheadMenu) {
        const core::Overheads ov{o / 3, o / 3, o / 3};
        try {
          const auto g1 = core::solve_design(
              engine, ov, core::DesignGoal::MinOverheadBandwidth);
          const auto g2 = core::solve_design(
              engine, ov, core::DesignGoal::MaxSlackBandwidth);
          t.row()
              .cell(o, 3)
              .cell(to_string(alg))
              .cell(g1.schedule.period, 3)
              .cell(g1.schedule.overhead_bandwidth(), 4)
              .cell(g2.schedule.slack_bandwidth(), 4)
              .cell(g2.schedule.period, 3);
        } catch (const InfeasibleError&) {
          t.row()
              .cell(o, 3)
              .cell(to_string(alg))
              .cell("infeasible")
              .cell("-")
              .cell("-")
              .cell("-");
        }
      }
    }
    csv ? t.print_csv(std::cout) : t.print(std::cout);
    std::cout << "\nshape checks: P_max shrinks and overhead bandwidth grows "
                 "with O_tot; RM turns infeasible past 0.129, EDF past "
                 "0.201.\n";
  }

  if (study.trials > 0) {
    svc::AnalysisService service;
    service.add_fleet(study, [](std::size_t, Rng& rng) {
      return gen::study_system(rng);
    });
    core::SearchOptions opts;
    opts.grid_step = 5e-3;
    opts.p_max = 10.0;
    const auto [begin, end] = core::shard_range(study.trials, study.shard);
    std::cout << "\nE9b: generated systems, acceptance vs O_tot (trials "
              << begin << ".." << end << " of " << study.trials << ", shard "
              << study.shard.index + 1 << "/" << study.shard.count << ")\n\n";
    // feasible[alg][k]: systems whose G1 design survives menu level k.
    std::array<std::array<std::size_t, kOverheadMenu.size()>, 2> feasible{};
    std::size_t packed = 0;
    for (std::size_t i = 0; i < service.size(); ++i) {
      packed += service.has_system(i) ? 1 : 0;
    }
    for (const hier::Scheduler alg : {hier::Scheduler::EDF,
                                      hier::Scheduler::FP}) {
      const std::size_t a = alg == hier::Scheduler::EDF ? 0 : 1;
      for (std::size_t k = 0; k < kOverheadMenu.size(); ++k) {
        const double o = kOverheadMenu[k];
        const std::vector<svc::SolveResult> results =
            service.run(svc::SolveRequest{
                alg, {o / 3, o / 3, o / 3},
                core::DesignGoal::MinOverheadBandwidth, opts, {}});
        for (const svc::SolveResult& r : results) {
          feasible[a][k] += r.ok() && r.feasible ? 1 : 0;
        }
      }
    }
    Table t({"O_tot", "trials", "packed", "feasible_EDF", "feasible_RM"});
    for (std::size_t k = 0; k < kOverheadMenu.size(); ++k) {
      t.row()
          .cell(kOverheadMenu[k], 3)
          .cell(service.size())
          .cell(packed)
          .cell(feasible[0][k])
          .cell(feasible[1][k]);
    }
    csv ? t.print_csv(std::cout) : t.print(std::cout);
  }
  return 0;
}

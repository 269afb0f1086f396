// E10 -- how the channel partition affects the design space.
//
// The paper assumes a manual partition (its Table-1 assignment) and cites
// automatic partitioning as the open piece of the methodology. This bench
// compares the manual Table-1 partition against the four classic bin-packing
// heuristics, by the resulting maximal feasible period and slack bandwidth,
// and repeats the comparison on random systems.
//
// The random-system part runs on the analysis service
// (svc/analysis_service.hpp): one fleet holding every (trial, heuristic)
// packing -- generated with layout-independent per-trial seeds via
// AnalysisService::add_fleet -- probed by two fleet-wide SolveRequests (G1
// and G2). Entries are analysed across the parallel_for worker pool
// (FLEXRT_THREADS) and, with --shard k/N, the trial range splits over N
// cooperating processes; the per-shard aggregate rows (sums + counts)
// merge by addition.
//
// Usage: partitioning_study [--csv] [--trials N] [--seed S] [--shard k/N]
#include <array>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/integration.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/analysis_service.hpp"

using namespace flexrt;

namespace {

constexpr std::array<part::Heuristic, 4> kHeuristics = {
    part::Heuristic::FirstFit, part::Heuristic::BestFit,
    part::Heuristic::WorstFit, part::Heuristic::NextFit};

struct Outcome {
  bool feasible = false;
  double p_max = 0.0;
  double slack_bw = 0.0;
};

Outcome evaluate(const core::ModeTaskSystem& sys, double o_tot) {
  core::SearchOptions opts;
  opts.grid_step = 2e-3;
  opts.p_max = 10.0;
  Outcome out;
  try {
    out.p_max = core::max_feasible_period(sys, hier::Scheduler::EDF, o_tot,
                                          opts);
    out.slack_bw =
        core::max_slack_period(sys, hier::Scheduler::EDF, o_tot, opts)
            .slack_bandwidth;
    out.feasible = true;
  } catch (const InfeasibleError&) {
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  core::StudyOptions study;
  study.trials = 100;
  study.base_seed = 0x9A57;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) csv = true;
      core::parse_study_flag(study, argc, argv, i);
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const double o_tot = 0.05;
  const bool lead_shard = study.shard.index == 0;

  if (lead_shard) {
    std::cout << "E10a: Table-1 system, manual partition vs heuristics "
              << "(EDF, O_tot = " << o_tot << ")\n"
              << "(capacity = per-channel utilization cap during packing; "
                 "first/best/next-fit need a tight cap to spread load)\n\n";
    Table t1({"partition", "capacity", "P_max", "slack_bw"});
    const Outcome manual = evaluate(core::paper_example(), o_tot);
    t1.row().cell("manual (paper)").cell("-").cell(manual.p_max, 3).cell(
        manual.slack_bw, 3);
    for (const part::Heuristic h : kHeuristics) {
      for (const double cap : {1.0, 0.5, 0.3}) {
        const auto sys = gen::build_system(core::paper_example_tasks(),
                                           {h, true, cap});
        if (!sys) {
          t1.row().cell(to_string(h)).cell(cap, 1).cell("pack-fail").cell("-");
          continue;
        }
        const Outcome o = evaluate(*sys, o_tot);
        t1.row().cell(to_string(h)).cell(cap, 1).cell(o.p_max, 3).cell(
            o.slack_bw, 3);
      }
    }
    csv ? t1.print_csv(std::cout) : t1.print(std::cout);
  }

  // E10b: one service fleet holding every (heuristic, trial) packing of the
  // same per-trial task set -- identical workloads across heuristics, by
  // the determinism of trial_rng -- probed by two fleet-wide requests.
  svc::AnalysisService service;
  std::array<std::size_t, kHeuristics.size()> first{};
  for (std::size_t h = 0; h < kHeuristics.size(); ++h) {
    first[h] = service.add_fleet(
        study,
        [h](std::size_t, Rng& rng) {
          return gen::build_system(gen::study_task_set(rng),
                                   {kHeuristics[h], true, 1.0});
        },
        std::string(to_string(kHeuristics[h])) + "_t");
  }
  core::SearchOptions opts;
  opts.grid_step = 2e-3;
  opts.p_max = 10.0;
  const core::Overheads ov{o_tot, 0.0, 0.0};
  const std::vector<svc::SolveResult> g1 = service.run(svc::SolveRequest{
      hier::Scheduler::EDF, ov, core::DesignGoal::MinOverheadBandwidth, opts,
      {}});
  const std::vector<svc::SolveResult> g2 = service.run(svc::SolveRequest{
      hier::Scheduler::EDF, ov, core::DesignGoal::MaxSlackBandwidth, opts,
      {}});

  const std::size_t per_heuristic = service.size() / kHeuristics.size();
  const auto [begin, end] = core::shard_range(study.trials, study.shard);
  std::cout << "\nE10b: random systems, acceptance + mean P_max per "
               "heuristic (trials " << begin << ".." << end << " of "
            << study.trials << ", shard " << study.shard.index + 1 << "/"
            << study.shard.count << ", seed 0x" << std::hex << study.base_seed
            << std::dec << ")\n\n";
  Table t2({"heuristic", "trials", "accepted", "sum_P_max", "sum_slack_bw",
            "mean_P_max"});
  for (std::size_t h = 0; h < kHeuristics.size(); ++h) {
    int accepted = 0;
    double sum_p = 0.0, sum_s = 0.0;
    for (std::size_t k = first[h]; k < first[h] + per_heuristic; ++k) {
      if (!g1[k].ok() || !g1[k].feasible || !g2[k].feasible) continue;
      accepted++;
      sum_p += g1[k].design.schedule.period;
      sum_s += g2[k].design.schedule.slack_bandwidth();
    }
    t2.row()
        .cell(to_string(kHeuristics[h]))
        .cell(static_cast<double>(per_heuristic), 0)
        .cell(static_cast<double>(accepted), 0)
        .cell(sum_p, 3)
        .cell(sum_s, 3)
        .cell(accepted ? sum_p / accepted : 0.0, 3);
  }
  csv ? t2.print_csv(std::cout) : t2.print(std::cout);
  if (lead_shard) {
    std::cout << "\nshape check: worst-fit (load balancing) matches or beats "
                 "the other heuristics on acceptance; the paper's manual "
                 "partition is near the heuristic optimum. Shard rows merge "
                 "by summing trials/accepted/sums.\n";
  }
  return 0;
}

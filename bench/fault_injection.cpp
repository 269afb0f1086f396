// E6 -- fault-injection study (extension experiment).
//
// Sweeps the transient-fault rate over the Table-1 system twice and prints
// the two views side by side, one row per rate:
//
//  - analysis: svc::FaultSweepRequest on a one-entry fleet -- the per-class
//    verdicts under the fault model's recovery demand (FT masked, FS
//    schedulable including one re-execution per recovery gap, NF timing
//    unaffected) plus the analytic corruption exposure.
//  - simulation: what actually reaches the bus over `--horizon` units of
//    injected faults. FT masks every single fault (zero wrong results, zero
//    silencing), FS detects and silences (zero wrong results), NF silently
//    corrupts.
//
// The cross-check: FT_wrong and FS_wrong stay exactly 0 at every rate the
// analysis declares ft_ok/fs_ok, and the simulated NF corruption count
// tracks horizon * nf_exposure.
//
// Usage: fault_injection [--csv] [--horizon T]
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "core/paper_example.hpp"
#include "sim/simulator.hpp"
#include "svc/analysis_service.hpp"

using namespace flexrt;

int main(int argc, char** argv) {
  bool csv = false;
  double horizon = 20000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    if (std::strcmp(argv[i], "--horizon") == 0 && i + 1 < argc) {
      horizon = bench::parse_num("--horizon", argv[++i]);
    }
  }

  const std::vector<double> rates = {0.001, 0.005, 0.01, 0.05, 0.1, 0.2};

  // Analytic side: the fault sweep the service runs for fleets, on a fleet
  // of one (the paper's Table-1 system). The simulator's FaultModel floors
  // separation at 2.0, so the sweep assumes the same model.
  svc::AnalysisService service;
  service.add_system(core::paper_example(), "table1");
  svc::FaultSweepRequest req;
  req.rates = rates;
  req.min_separation = 2.0;
  req.overheads = {0.02, 0.02, 0.02};
  req.goal = core::DesignGoal::MaxSlackBandwidth;
  req.with_baselines = false;
  const svc::FaultSweepResult sweep = service.run_one(0, req);
  if (!sweep.ok()) {
    std::cerr << "fault sweep failed: " << sweep.error << "\n";
    return 1;
  }
  if (!sweep.feasible) {
    std::cerr << "Table-1 design infeasible: " << sweep.infeasible << "\n";
    return 1;
  }

  std::cout << "E6: analytic fault sweep vs simulated outcomes (horizon "
            << horizon << ", Table-1 system, immediate detection)\n\n";
  Table t({"rate", "ft_ok", "fs_ok", "nf_exposure", "injected", "masked",
           "silenced", "corrupting", "harmless", "FT_wrong", "FS_wrong",
           "NF_wrong", "FS_silenced_jobs"});
  for (std::size_t k = 0; k < rates.size(); ++k) {
    const svc::FaultRatePoint& p = sweep.points[k];
    sim::SimOptions opt;
    opt.horizon = horizon;
    opt.scheduler = hier::Scheduler::EDF;
    opt.faults = {p.rate, req.min_separation};
    opt.seed = 424242;
    const sim::SimResult r =
        sim::simulate(service.system(0), sweep.schedule, opt);
    std::uint64_t wrong[3] = {0, 0, 0};
    std::uint64_t fs_silenced = 0;
    for (const sim::TaskStats& ts : r.tasks) {
      wrong[static_cast<std::size_t>(ts.mode)] += ts.corrupted_outputs;
      if (ts.mode == rt::Mode::FS) fs_silenced += ts.silenced;
    }
    t.row()
        .cell(p.rate, 3)
        .cell(p.ft_ok ? "yes" : "NO")
        .cell(p.fs_ok ? "yes" : "NO")
        .cell(p.nf_exposure, 6)
        .cell(r.faults.injected)
        .cell(r.faults.masked)
        .cell(r.faults.silenced)
        .cell(r.faults.corrupting)
        .cell(r.faults.harmless)
        .cell(wrong[0])
        .cell(wrong[1])
        .cell(wrong[2])
        .cell(fs_silenced);
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
  std::cout << "\nshape check: FT_wrong and FS_wrong stay exactly 0 at every "
               "rate; NF_wrong grows with the rate, tracking horizon * "
               "nf_exposure.\n";
  return 0;
}

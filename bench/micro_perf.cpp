// E11 -- micro-benchmarks of the analysis kernels and the simulator
// (google-benchmark). These quantify the cost of the pieces a designer
// iterates on: minQ evaluations, the lhs(P) curve, the full design solve,
// and simulated time per wall second.
//
// Every hot kernel now comes in a before/after pair: the *Legacy variants
// run the frozen pre-refactor kernels (bench/legacy_kernels.hpp) that
// re-derive scheduling points / deadline sets per call, invert supplies by
// bisection and deep-copy the system per sensitivity probe; the plain
// variants run the batched analysis engine (AnalysisContext caches +
// closed-form inverses). Keep both: the ratio is the number
// tools/bench_report tracks across PRs.
#include <benchmark/benchmark.h>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/min_quantum.hpp"
#include "legacy_kernels.hpp"
#include "stress_workloads.hpp"
#include "rt/analysis_context.hpp"
#include "rt/deadline_bound.hpp"
#include "rt/demand.hpp"
#include "rt/priority.hpp"
#include "rt/sched_points.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace flexrt;

const core::ModeTaskSystem& paper_sys() {
  static const core::ModeTaskSystem sys = core::paper_example();
  return sys;
}

core::ModeSchedule paper_schedule() {
  static const core::Design d = core::solve_design(
      analysis::BatchEngine(paper_sys(), hier::Scheduler::EDF),
      {0.02, 0.02, 0.02}, core::DesignGoal::MaxSlackBandwidth);
  return d.schedule;
}

rt::TaskSet sized_set(std::size_t n) {
  Rng rng(1234 + n);
  gen::GenParams gp;
  gp.num_tasks = n;
  gp.total_utilization = 0.6;
  gp.ft_fraction = 0.0;
  gp.fs_fraction = 0.0;
  return gen::generate_task_set(gp, rng);
}

void BM_SchedulingPoints(benchmark::State& state) {
  const rt::TaskSet ts =
      rt::sort_rate_monotonic(sized_set(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::scheduling_points(ts, ts.size() - 1));
  }
}
BENCHMARK(BM_SchedulingPoints)->Arg(4)->Arg(8)->Arg(12);

// --- EDF demand curve: O(n * points) per-point kernel vs one event sweep --

void BM_EdfDemandCurveLegacy(benchmark::State& state) {
  const rt::TaskSet ts = sized_set(static_cast<std::size_t>(state.range(0)));
  // deadline_set stays inside the loop: this is the seed benchmark verbatim
  // (callers re-derived the point set per curve), so the before/after ratio
  // keeps its meaning across PRs.
  for (auto _ : state) {
    double acc = 0.0;
    for (const double t : rt::deadline_set(ts)) acc += rt::edf_demand(ts, t);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EdfDemandCurveLegacy)->Arg(4)->Arg(8)->Arg(12);

void BM_EdfDemandCurve(benchmark::State& state) {
  const rt::TaskSet ts = sized_set(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> points = rt::deadline_set(ts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::edf_demand_curve(ts, points));
  }
}
BENCHMARK(BM_EdfDemandCurve)->Arg(4)->Arg(8)->Arg(12);

// --- stress scale: QPA-condensed dlSet at n = 10^3-10^4 -------------------
// The hostile sets have effectively co-prime periods: the full dlSet runs to
// an astronomic hyperperiod, so only the condensed path is tractable there.
// The tractable twin (menu periods, hyperperiod 120) carries the legacy
// comparison: per-point O(n * points) kernel vs the cached context probe.
// Workloads are shared with tools/bench_report via bench/stress_workloads.hpp.

using benchws::stress_set;
using benchws::stress_set_fp;
using benchws::tractable_big_set;

void BM_BoundedDeadlineSetStress(benchmark::State& state) {
  const rt::TaskSet ts = stress_set(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::bounded_deadline_set(ts));
  }
}
BENCHMARK(BM_BoundedDeadlineSetStress)->Arg(1000)->Arg(4000);

void BM_MinQuantumStressCold(benchmark::State& state) {
  // Cold: context built per iteration -- the full cost of one analysis of a
  // fresh hyperperiod-hostile set (the acceptance criterion's "seconds").
  const rt::TaskSet ts = stress_set(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const rt::AnalysisContext ctx(ts);
    benchmark::DoNotOptimize(hier::min_quantum(ctx, hier::Scheduler::EDF,
                                               2.0));
  }
}
BENCHMARK(BM_MinQuantumStressCold)->Arg(1000)->Arg(4000);

void BM_MinQuantumStressProbe(benchmark::State& state) {
  // Warm: the design-sweep shape, one context probed at many periods.
  const rt::TaskSet ts = stress_set(static_cast<std::size_t>(state.range(0)));
  const rt::AnalysisContext ctx(ts);
  double period = 1.0;
  for (auto _ : state) {
    period = period >= 8.0 ? 1.0 : period + 0.37;
    benchmark::DoNotOptimize(hier::min_quantum(ctx, hier::Scheduler::EDF,
                                               period));
  }
}
BENCHMARK(BM_MinQuantumStressProbe)->Arg(1000)->Arg(4000);

void BM_MinQuantumStressFpCold(benchmark::State& state) {
  // FP twin of the cold EDF stress row: the full Bini-Buttazzo sets are
  // astronomically large here, so only the condensed point budget
  // (rt::bounded_scheduling_points) finishes. Context built per iteration.
  const rt::TaskSet ts =
      stress_set_fp(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const rt::AnalysisContext ctx(ts);
    benchmark::DoNotOptimize(hier::min_quantum(ctx, hier::Scheduler::FP,
                                               2.0));
  }
}
BENCHMARK(BM_MinQuantumStressFpCold)->Arg(1000)->Arg(4000);

void BM_MinQuantumStressFpProbe(benchmark::State& state) {
  // Warm: one condensed context probed at many periods (the design-sweep
  // shape the FP budget exists for).
  const rt::TaskSet ts =
      stress_set_fp(static_cast<std::size_t>(state.range(0)));
  const rt::AnalysisContext ctx(ts);
  double period = 1.0;
  for (auto _ : state) {
    period = period >= 8.0 ? 1.0 : period + 0.37;
    benchmark::DoNotOptimize(hier::min_quantum(ctx, hier::Scheduler::FP,
                                               period));
  }
}
BENCHMARK(BM_MinQuantumStressFpProbe)->Arg(1000)->Arg(4000);

void BM_MinQuantumBigLegacy(benchmark::State& state) {
  // Legacy path on the tractable twin (the hostile set would not finish).
  const rt::TaskSet ts =
      tractable_big_set(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy::min_quantum(ts, hier::Scheduler::EDF,
                                                 2.0));
  }
}
BENCHMARK(BM_MinQuantumBigLegacy)->Arg(1000);

void BM_MinQuantumBig(benchmark::State& state) {
  const rt::TaskSet ts =
      tractable_big_set(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const rt::AnalysisContext ctx(ts);
    benchmark::DoNotOptimize(hier::min_quantum(ctx, hier::Scheduler::EDF,
                                               2.0));
  }
}
BENCHMARK(BM_MinQuantumBig)->Arg(1000);

// --- supply inversion: closed form vs bisection fallback ------------------

void BM_SupplyInverseBisection(benchmark::State& state) {
  const hier::SlotSupply slot(2.0, 0.75);
  for (auto _ : state) {
    double acc = 0.0;
    for (int d = 1; d <= 16; ++d) {
      acc += slot.inverse_by_bisection(0.33 * d);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SupplyInverseBisection);

void BM_SupplyInverseClosedForm(benchmark::State& state) {
  const hier::SlotSupply slot(2.0, 0.75);
  for (auto _ : state) {
    double acc = 0.0;
    for (int d = 1; d <= 16; ++d) {
      acc += slot.inverse(0.33 * d);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SupplyInverseClosedForm);

// --- minQ: per-call re-derivation vs AnalysisContext probes ---------------
// Args: {n, 0=FP | 1=EDF}. The cached variant models the design workflow
// (one task set probed at many periods); the legacy variant is the seed
// kernel that pays the full derivation on every call.

void BM_MinQuantumLegacy(benchmark::State& state) {
  const rt::TaskSet ts =
      rt::sort_rate_monotonic(sized_set(static_cast<std::size_t>(state.range(0))));
  const hier::Scheduler alg =
      state.range(1) == 0 ? hier::Scheduler::FP : hier::Scheduler::EDF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy::min_quantum(ts, alg, 2.0));
  }
}
BENCHMARK(BM_MinQuantumLegacy)->Args({8, 0})->Args({8, 1})->Args({12, 0})->Args({12, 1});

void BM_MinQuantum(benchmark::State& state) {
  const rt::TaskSet ts =
      rt::sort_rate_monotonic(sized_set(static_cast<std::size_t>(state.range(0))));
  const hier::Scheduler alg =
      state.range(1) == 0 ? hier::Scheduler::FP : hier::Scheduler::EDF;
  const rt::AnalysisContext ctx(ts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hier::min_quantum(ctx, alg, 2.0));
  }
}
BENCHMARK(BM_MinQuantum)->Args({8, 0})->Args({8, 1})->Args({12, 0})->Args({12, 1});

// --- lhs(P): per-call engine rebuild vs persistent engine probes ----------

void BM_FeasibilityMarginLegacy(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        legacy::feasibility_margin(paper_sys(), hier::Scheduler::EDF, 2.0));
  }
}
BENCHMARK(BM_FeasibilityMarginLegacy);

void BM_FeasibilityMargin(benchmark::State& state) {
  const analysis::BatchEngine engine(paper_sys(), hier::Scheduler::EDF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.feasibility_margin(2.0));
  }
}
BENCHMARK(BM_FeasibilityMargin);

// --- sensitivity: deep-copy probes vs in-place scaled demand curves -------

void BM_SensitivityReportLegacy(benchmark::State& state) {
  const core::ModeSchedule schedule = paper_schedule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy::sensitivity_report(
        paper_sys(), schedule, hier::Scheduler::EDF));
  }
}
BENCHMARK(BM_SensitivityReportLegacy);

void BM_SensitivityReport(benchmark::State& state) {
  const core::ModeSchedule schedule = paper_schedule();
  const analysis::BatchEngine engine(paper_sys(), hier::Scheduler::EDF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.sensitivity_report(schedule));
  }
}
BENCHMARK(BM_SensitivityReport);

// --- end-to-end solves and simulation (unchanged shapes) ------------------

void BM_SolveDesignG1(benchmark::State& state) {
  const core::Overheads ov{0.02, 0.02, 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_design(
        analysis::BatchEngine(paper_sys(), hier::Scheduler::EDF), ov,
        core::DesignGoal::MinOverheadBandwidth));
  }
}
BENCHMARK(BM_SolveDesignG1);

void BM_Simulate(benchmark::State& state) {
  const core::ModeSchedule schedule = paper_schedule();
  const double horizon = static_cast<double>(state.range(0));
  for (auto _ : state) {
    sim::SimOptions opt;
    opt.horizon = horizon;
    benchmark::DoNotOptimize(sim::simulate(paper_sys(), schedule, opt));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(horizon));
}
BENCHMARK(BM_Simulate)->Arg(1000)->Arg(10000);

void BM_SimulateWithFaults(benchmark::State& state) {
  const core::ModeSchedule schedule = paper_schedule();
  for (auto _ : state) {
    sim::SimOptions opt;
    opt.horizon = 5000.0;
    opt.faults = {0.05, 2.0};
    benchmark::DoNotOptimize(sim::simulate(paper_sys(), schedule, opt));
  }
}
BENCHMARK(BM_SimulateWithFaults);

}  // namespace

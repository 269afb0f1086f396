// Scratch validation: recompute every number the paper reports for the
// 13-task example (Figure 4 points, Table 2 rows) and print them next to the
// paper's values. Kept as a tool (not a test) for quick manual inspection.
#include <cstdio>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"

using namespace flexrt;

int main() {
  const core::ModeTaskSystem sys = core::paper_example();
  const core::PaperReference ref;
  const analysis::BatchEngine edf(sys, hier::Scheduler::EDF);
  const analysis::BatchEngine rm(sys, hier::Scheduler::FP);

  std::printf("required bandwidth: FT=%.3f FS=%.3f NF=%.3f (paper %.3f %.3f %.3f)\n",
              sys.required_bandwidth(rt::Mode::FT),
              sys.required_bandwidth(rt::Mode::FS),
              sys.required_bandwidth(rt::Mode::NF), ref.req_util_ft,
              ref.req_util_fs, ref.req_util_nf);

  const double p1 = edf.max_feasible_period(0.0);
  const double p2 = rm.max_feasible_period(0.0);
  std::printf("point1 P_max(EDF,0) = %.4f (paper %.3f)\n", p1,
              ref.p_max_edf_no_overhead);
  std::printf("point2 P_max(RM,0)  = %.4f (paper %.3f)\n", p2,
              ref.p_max_rm_no_overhead);

  const auto o_edf = edf.max_admissible_overhead();
  const auto o_rm = rm.max_admissible_overhead();
  std::printf("point3 maxO(EDF) = %.4f at P=%.4f (paper %.3f)\n",
              o_edf.max_overhead, o_edf.period, ref.max_overhead_edf);
  std::printf("point4 maxO(RM)  = %.4f at P=%.4f (paper %.3f)\n",
              o_rm.max_overhead, o_rm.period, ref.max_overhead_rm);

  const double p5 = edf.max_feasible_period(0.05);
  std::printf("point5 P_max(EDF,0.05) = %.4f (paper %.3f)\n", p5,
              ref.p_max_edf_o005);

  core::Overheads ov{0.05 / 3, 0.05 / 3, 0.05 / 3};
  const auto b =
      core::solve_design(edf, ov, core::DesignGoal::MinOverheadBandwidth);
  std::printf("row b: P=%.4f Qft=%.4f Qfs=%.4f Qnf=%.4f slack=%.4f\n",
              b.schedule.period, b.schedule.ft.usable, b.schedule.fs.usable,
              b.schedule.nf.usable, b.schedule.slack() - 0.0);
  std::printf("       paper: P=2.966 0.820 1.281 0.815 slack 0\n");
  std::printf("       alloc util: %.3f %.3f %.3f\n",
              b.schedule.allocated_bandwidth(rt::Mode::FT),
              b.schedule.allocated_bandwidth(rt::Mode::FS),
              b.schedule.allocated_bandwidth(rt::Mode::NF));

  const auto c =
      core::solve_design(edf, ov, core::DesignGoal::MaxSlackBandwidth);
  std::printf("row c: P=%.4f Qft=%.4f Qfs=%.4f Qnf=%.4f slack=%.4f (%.3f)\n",
              c.schedule.period, c.schedule.ft.usable, c.schedule.fs.usable,
              c.schedule.nf.usable, c.schedule.slack(),
              c.schedule.slack_bandwidth());
  std::printf("       paper: P=0.855 0.230 0.252 0.220 slack 0.103 (0.121)\n");
  return 0;
}

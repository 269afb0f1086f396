// Engine control unit -- the scenario from the paper's introduction: "an
// application which controls a car engine and shows its activity on a
// screen. While we could accept the visualization to be degraded, the
// control algorithm must produce the correct result despite the presence of
// faults."
//
// We model a realistic ECU mix: fuel injection and ignition control in FT
// mode, knock detection and lambda regulation fail-silent, dashboard/
// diagnostics/logging best-effort. The example designs the frame both ways
// (G1 and G2), compares the outcomes, and stress-tests the G2 design under
// an aggressive fault rate, verifying the safety contract per mode.
#include <iostream>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "sim/simulator.hpp"

using namespace flexrt;

namespace {

core::ModeTaskSystem ecu() {
  using rt::make_task;
  using rt::Mode;
  // FT channel: the control laws (one lock-step channel of all 4 cores).
  rt::TaskSet ft;
  ft.add(make_task("fuel_injection", 0.4, 5.0, Mode::FT));
  ft.add(make_task("ignition", 0.3, 5.0, Mode::FT));
  ft.add(make_task("throttle", 0.5, 10.0, Mode::FT));
  // FS couples: sensor validation -- better silent than wrong.
  rt::TaskSet fs0, fs1;
  fs0.add(make_task("knock_detect", 0.6, 6.0, Mode::FS));
  fs0.add(make_task("lambda_reg", 0.8, 12.0, Mode::FS));
  fs1.add(make_task("misfire_watch", 0.5, 8.0, Mode::FS));
  // NF processors: the cabin-facing load.
  rt::TaskSet nf0, nf1, nf2, nf3;
  nf0.add(make_task("dashboard", 1.0, 16.0, Mode::NF));
  nf1.add(make_task("diagnostics", 2.0, 40.0, Mode::NF));
  nf1.add(make_task("obd_ii", 0.5, 20.0, Mode::NF));
  nf2.add(make_task("datalogger", 1.5, 25.0, Mode::NF));
  nf3.add(make_task("telemetry", 1.0, 30.0, Mode::NF));
  return core::ModeTaskSystem({ft}, {fs0, fs1}, {nf0, nf1, nf2, nf3});
}

}  // namespace

int main() {
  const core::ModeTaskSystem sys = ecu();
  const core::Overheads ov{0.03, 0.02, 0.02};

  std::cout << "ECU workload: FT util "
            << sys.required_bandwidth(rt::Mode::FT) << ", FS max-channel util "
            << sys.required_bandwidth(rt::Mode::FS) << ", NF max-channel util "
            << sys.required_bandwidth(rt::Mode::NF) << "\n\n";

  const analysis::BatchEngine engine(sys, hier::Scheduler::EDF);
  for (const auto goal : {core::DesignGoal::MinOverheadBandwidth,
                          core::DesignGoal::MaxSlackBandwidth}) {
    const core::Design d = core::solve_design(engine, ov, goal);
    std::cout << to_string(goal) << ":\n  " << d.schedule << "\n"
              << "  overhead bandwidth " << d.schedule.overhead_bandwidth()
              << ", slack bandwidth " << d.schedule.slack_bandwidth()
              << "\n";
  }

  // Stress the flexible design with one transient fault every ~20 time
  // units on average -- far beyond realistic soft-error rates.
  const core::Design d =
      core::solve_design(engine, ov, core::DesignGoal::MaxSlackBandwidth);
  sim::SimOptions opt;
  opt.horizon = 50000.0;
  opt.faults = {0.05, 2.0};
  opt.seed = 2026;
  const sim::SimResult r = sim::simulate(sys, d.schedule, opt);

  std::cout << "\nfault storm over " << opt.horizon << " time units: "
            << r.faults.injected << " faults\n";
  bool safety_holds = true;
  for (const sim::TaskStats& t : r.tasks) {
    if (t.mode != rt::Mode::NF && t.corrupted_outputs > 0) {
      safety_holds = false;
    }
    std::cout << "  " << t.name << " [" << rt::to_string(t.mode)
              << "]: " << t.completions << " ok, " << t.silenced
              << " silenced, " << t.corrupted_outputs << " corrupted, "
              << t.deadline_misses << " misses\n";
  }
  std::cout << (safety_holds
                    ? "\nsafety contract held: no FT/FS task ever emitted a "
                      "wrong result\n"
                    : "\nSAFETY VIOLATION\n");
  return safety_holds ? 0 : 1;
}

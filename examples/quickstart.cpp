// Quickstart: the full flexrt pipeline in ~60 lines.
//
//  1. Describe the application: sporadic tasks, each with the operating
//     mode it requires (FT / FS / NF).
//  2. Partition each mode's tasks onto the platform's channels.
//  3. Solve for the mode-switching frame (period + slot lengths).
//  4. Simulate the platform executing the result and check zero misses.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "gen/taskset_gen.hpp"
#include "sim/simulator.hpp"

using namespace flexrt;

int main() {
  // 1. The application. A control law that must survive faults, two
  //    monitoring functions that must at least fail silently, and three
  //    best-effort functions.
  rt::TaskSet app;
  app.add(rt::make_task("control", 1.0, 10.0, rt::Mode::FT));
  app.add(rt::make_task("watchdog", 0.5, 8.0, rt::Mode::FS));
  app.add(rt::make_task("monitor", 1.0, 20.0, rt::Mode::FS));
  app.add(rt::make_task("logger", 2.0, 40.0, rt::Mode::NF));
  app.add(rt::make_task("ui", 1.0, 12.0, rt::Mode::NF));
  app.add(rt::make_task("stats", 1.0, 30.0, rt::Mode::NF));

  // 2. Partition onto channels (worst-fit keeps the channels balanced).
  const auto sys = gen::build_system(app);
  if (!sys) {
    std::cerr << "application does not fit the platform\n";
    return 1;
  }

  // 3. Solve the design problem: here we want run-time flexibility, so we
  //    maximize the redistributable slack (the paper's goal G2).
  const core::Overheads overheads{0.02, 0.02, 0.02};  // switch-out costs
  const core::Design design =
      core::solve_design(analysis::BatchEngine(*sys, hier::Scheduler::EDF),
                         overheads, core::DesignGoal::MaxSlackBandwidth);
  std::cout << "solved: " << design.schedule << "\n";
  std::cout << "  FT gets " << design.schedule.allocated_bandwidth(rt::Mode::FT)
            << " of the timeline, FS "
            << design.schedule.allocated_bandwidth(rt::Mode::FS) << ", NF "
            << design.schedule.allocated_bandwidth(rt::Mode::NF)
            << "; slack " << design.schedule.slack_bandwidth() << "\n";

  // 4. Simulate 10,000 time units, with transient faults striking at rate
  //    0.01 per time unit.
  sim::SimOptions opt;
  opt.horizon = 10000.0;
  opt.faults = {0.01, 2.0};
  const sim::SimResult result = sim::simulate(*sys, design.schedule, opt);

  std::cout << "simulated " << opt.horizon << " time units: "
            << result.total_misses() << " deadline misses, "
            << result.faults.injected << " faults injected ("
            << result.faults.masked << " masked, " << result.faults.silenced
            << " silenced, " << result.faults.corrupting
            << " corrupting)\n";
  for (const sim::TaskStats& t : result.tasks) {
    std::cout << "  " << t.name << " [" << rt::to_string(t.mode) << "] "
              << t.completions << " jobs, worst response "
              << to_units(t.max_response) << ", misses " << t.deadline_misses
              << ", wrong results " << t.corrupted_outputs << "\n";
  }
  return result.total_misses() == 0 ? 0 : 1;
}

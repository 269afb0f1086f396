// E3 -- Table 2 of the paper: the two worked design solutions on the
// Table-1 task set with O_tot = 0.05 under EDF.
//   row (a): bandwidth each mode must at least receive (max channel util)
//   row (b): goal G1, minimize overhead bandwidth  -> P = 2.966
//   row (c): goal G2, maximize slack bandwidth     -> P = 0.855
//
// Usage: table2_design_solutions [--csv]
#include <cstring>
#include <iostream>

#include "common/table.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/paper_example.hpp"

using namespace flexrt;

int main(int argc, char** argv) {
  const bool csv = argc > 1 && std::strcmp(argv[1], "--csv") == 0;
  const core::ModeTaskSystem sys = core::paper_example();
  const core::PaperReference ref;
  const core::Overheads ov{ref.o_tot / 3, ref.o_tot / 3, ref.o_tot / 3};

  Table t({"row", "P", "O_tot", "Q~FT", "Q~FS", "Q~NF", "slack", "slack/P"});
  t.row()
      .cell("(a) required util")
      .cell("-")
      .cell("-")
      .cell(sys.required_bandwidth(rt::Mode::FT), 3)
      .cell(sys.required_bandwidth(rt::Mode::FS), 3)
      .cell(sys.required_bandwidth(rt::Mode::NF), 3)
      .cell("-")
      .cell("-");

  const analysis::BatchEngine engine(sys, hier::Scheduler::EDF);
  auto add_design = [&](const char* label, core::DesignGoal goal) {
    const core::Design d = core::solve_design(engine, ov, goal);
    t.row()
        .cell(label)
        .cell(d.schedule.period, 3)
        .cell(ref.o_tot, 3)
        .cell(d.schedule.ft.usable, 3)
        .cell(d.schedule.fs.usable, 3)
        .cell(d.schedule.nf.usable, 3)
        .cell(d.schedule.slack(), 3)
        .cell(d.schedule.slack_bandwidth(), 3);
    t.row()
        .cell("    alloc util")
        .cell("1.000")
        .cell(d.schedule.overhead_bandwidth(), 3)
        .cell(d.schedule.allocated_bandwidth(rt::Mode::FT), 3)
        .cell(d.schedule.allocated_bandwidth(rt::Mode::FS), 3)
        .cell(d.schedule.allocated_bandwidth(rt::Mode::NF), 3)
        .cell(d.schedule.slack_bandwidth(), 3)
        .cell("-");
  };
  add_design("(b) min overhead bw", core::DesignGoal::MinOverheadBandwidth);
  add_design("(c) max slack bw", core::DesignGoal::MaxSlackBandwidth);

  std::cout << "Table 2: design solutions (EDF, O_tot = 0.05)\n"
            << "paper row (b): P=2.966  Q~=0.820/1.281/0.815  slack 0.000\n"
            << "paper row (c): P=0.855  Q~=0.230/0.252/0.220  slack 0.103 "
               "(12.1% of bandwidth)\n\n";
  csv ? t.print_csv(std::cout) : t.print(std::cout);
  return 0;
}

// E12 -- ablation of the paper's §5 future-work feature: serving each mode
// with k slots per period instead of one.
//
// Part A sweeps the period and reports whether a feasible allocation exists
// for k = 1 (the paper's scheme, via Eq. 15) and k = 2..4 (interleaved
// frames): splitting pushes the feasible-period frontier far beyond the
// single-slot limit of ~2.97, because the per-mode service delay shrinks by
// ~k while the bandwidth stays put -- at the price of k switch overheads.
//
// Part B fixes the period and reports the total allocated bandwidth
// (budgets + overheads) as k grows: the per-mode budgets sit near the
// bandwidth floor already, so each extra visit costs ~O_tot/P more --
// splitting buys feasibility at large periods (part A), not a smaller
// allocation.
//
// Usage: multi_slot_ablation [--csv]
#include <cstring>
#include <iostream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "core/general_frame.hpp"
#include "core/analysis_engine.hpp"
#include "core/paper_example.hpp"

using namespace flexrt;

namespace {

struct Attempt {
  bool feasible = false;
  double allocated_bw = 0.0;  ///< (sum usable + sum overhead) / P
};

Attempt attempt(const core::ModeTaskSystem& sys, double period,
                std::size_t k, const core::Overheads& ov) {
  try {
    const core::GeneralFrame f =
        core::solve_interleaved(sys, hier::Scheduler::EDF, ov, period, k);
    double used = 0.0;
    for (const core::GeneralSlot& s : f.slots()) used += s.total();
    return {true, used / period};
  } catch (const InfeasibleError&) {
    return {false, 0.0};
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = argc > 1 && std::strcmp(argv[1], "--csv") == 0;
  const core::ModeTaskSystem sys = core::paper_example();
  const core::Overheads ov{0.05 / 3, 0.05 / 3, 0.05 / 3};
  const analysis::BatchEngine engine(sys, hier::Scheduler::EDF);

  std::cout << "E12a: feasibility vs period for k slots per mode "
            << "(Table-1 system, EDF, O_k = 0.0167 per switch)\n\n";
  Table a({"P", "k=1 (paper)", "k=2", "k=3", "k=4"});
  for (const double p : {1.0, 2.0, 2.9, 3.2, 4.0, 6.0, 8.0, 12.0}) {
    a.row().cell(p, 1);
    // k = 1 via the paper's own feasibility condition (Eq. 15).
    a.cell(engine.feasibility_margin(p) >= ov.total() ? "yes" : "no");
    for (const std::size_t k : {std::size_t{2}, std::size_t{3},
                                std::size_t{4}}) {
      a.cell(attempt(sys, p, k, ov).feasible ? "yes" : "no");
    }
  }
  csv ? a.print_csv(std::cout) : a.print(std::cout);

  std::cout << "\nE12b: allocated bandwidth (budgets + overheads) vs k at "
               "fixed periods\n\n";
  Table b({"P", "k", "feasible", "allocated_bw"});
  for (const double p : {2.0, 4.0}) {
    for (std::size_t k = 1; k <= 5; ++k) {
      const Attempt r = attempt(sys, p, k, ov);
      b.row().cell(p, 1).cell(static_cast<std::int64_t>(k));
      if (r.feasible) {
        b.cell("yes").cell(r.allocated_bw, 3);
      } else {
        b.cell("no").cell("-");
      }
    }
  }
  csv ? b.print_csv(std::cout) : b.print(std::cout);
  std::cout << "\nshape checks: k=1 infeasible past P~2.97 while k>=2 "
               "stays feasible far beyond it; allocated bandwidth grows "
               "linearly with k (the k-fold switch overhead), so the "
               "smallest feasible k wins once the period fits.\n";
  return 0;
}

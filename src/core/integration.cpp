#include "core/integration.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "svc/analysis_service.hpp"

namespace flexrt::core {

// The period-side kernels are one-shot fronts over the multi-system
// analysis service (svc::AnalysisService): each call wraps the system into
// a throwaway one-entry service and issues the corresponding typed request
// under the fixed default accuracy policy, which reproduces the direct
// BatchEngine probes bit for bit (parity-tested). Callers issuing many
// queries -- or querying many systems -- should hold an AnalysisService
// (or, per system, its cached BatchEngine) themselves.

namespace {

/// Results of answer-less entries carry the failure as a string; the free
/// functions re-raise it as the ModelError it started as.
template <typename Result>
const Result& checked(const Result& r) {
  if (!r.ok()) throw ModelError(r.error);
  return r;
}

}  // namespace

double auto_period_bound(const ModeTaskSystem& sys) {
  double max_deadline = 1.0;
  for (const rt::Mode mode : kAllModes) {
    for (const rt::TaskSet& ts : sys.partitions(mode)) {
      for (const rt::Task& t : ts) {
        max_deadline = std::max(max_deadline, t.deadline);
      }
    }
  }
  return 3.0 * max_deadline;
}

double mode_min_quantum(const ModeTaskSystem& sys, rt::Mode mode,
                        hier::Scheduler alg, double period,
                        bool use_exact_supply) {
  const svc::MinQuantumResult r = checked(svc::AnalysisService(sys).run_one(
      0, svc::MinQuantumRequest{alg, period, use_exact_supply, {}}));
  return r.mode_quantum[static_cast<std::size_t>(mode)];
}

double feasibility_margin(const ModeTaskSystem& sys, hier::Scheduler alg,
                          double period, bool use_exact_supply) {
  return checked(svc::AnalysisService(sys).run_one(
                     0, svc::MinQuantumRequest{alg, period, use_exact_supply,
                                               {}}))
      .margin;
}

std::vector<RegionSample> sample_region(const ModeTaskSystem& sys,
                                        hier::Scheduler alg,
                                        const SearchOptions& opts) {
  return checked(svc::AnalysisService(sys).run_one(
                     0, svc::RegionSweepRequest{alg, opts, {}}))
      .samples;
}

double max_feasible_period(const ModeTaskSystem& sys, hier::Scheduler alg,
                           double o_tot, const SearchOptions& opts) {
  return svc::AnalysisService(sys).engine(0, alg).max_feasible_period(o_tot,
                                                                      opts);
}

OverheadLimit max_admissible_overhead(const ModeTaskSystem& sys,
                                      hier::Scheduler alg,
                                      const SearchOptions& opts) {
  return svc::AnalysisService(sys).engine(0, alg).max_admissible_overhead(opts);
}

SlackOptimum max_slack_period(const ModeTaskSystem& sys, hier::Scheduler alg,
                              double o_tot, const SearchOptions& opts) {
  return svc::AnalysisService(sys).engine(0, alg).max_slack_period(o_tot, opts);
}

}  // namespace flexrt::core

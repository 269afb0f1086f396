#include "core/sensitivity.hpp"

#include "common/error.hpp"
#include "svc/analysis_service.hpp"

namespace flexrt::core {

// One-shot fronts over the analysis service (svc::AnalysisService): each
// call wraps the system into a one-entry service and issues a
// SensitivityRequest under the fixed default accuracy policy, which
// reproduces the direct BatchEngine margins bit for bit. A probe at scale
// lambda still tests  base_demand + (lambda - 1) * task_contribution
// against the supply over cached points (see BatchEngine::ScaledProbe);
// the service adds the fleet/accuracy front on top.

double wcet_scale_margin(const ModeTaskSystem& sys,
                         const ModeSchedule& schedule, hier::Scheduler alg,
                         const std::string& task_name, double lambda_max,
                         double tolerance) {
  FLEXRT_REQUIRE(!task_name.empty(), "task name must be non-empty");
  svc::SensitivityRequest req;
  req.alg = alg;
  req.schedule = schedule;
  req.task = task_name;
  req.lambda_max = lambda_max;
  req.tolerance = tolerance;
  const svc::SensitivityResult r = svc::AnalysisService(sys).run_one(0, req);
  if (!r.ok()) throw ModelError(r.error);
  return r.margins.at(0).scale_margin;
}

std::vector<TaskMargin> sensitivity_report(const ModeTaskSystem& sys,
                                           const ModeSchedule& schedule,
                                           hier::Scheduler alg,
                                           double lambda_max) {
  svc::SensitivityRequest req;
  req.alg = alg;
  req.schedule = schedule;
  req.include_global = false;
  req.lambda_max = lambda_max;
  svc::SensitivityResult r = svc::AnalysisService(sys).run_one(0, req);
  if (!r.ok()) throw ModelError(r.error);
  return std::move(r.margins);
}

double global_scale_margin(const ModeTaskSystem& sys,
                           const ModeSchedule& schedule, hier::Scheduler alg,
                           double lambda_max, double tolerance) {
  return svc::AnalysisService(sys).engine(0, alg).global_scale_margin(
      schedule, lambda_max, tolerance);
}

}  // namespace flexrt::core

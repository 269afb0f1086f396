// Streaming fleet execution: the sink sees exactly the buffered result
// sequence (entry order), the JSONL transport is byte-identical across
// buffered / streamed / merged-shard-stream paths, peak buffering respects
// the reorder window, and a shard file truncated by a mid-stream kill is
// rejected by the merge helpers deterministically.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "svc/analysis_service.hpp"
#include "svc/jsonl.hpp"
#include "svc/study_report.hpp"

namespace flexrt::svc {
namespace {

using hier::Scheduler;

/// A deterministic 9-entry fleet with one unpackable trial, the shape the
/// study subcommand streams: packed rows, a "packing failed" row, and
/// byte-stable provenance.
AnalysisService::SystemFactory test_factory() {
  return [](std::size_t t, Rng&) -> std::optional<core::ModeTaskSystem> {
    if (t == 4) return std::nullopt;  // unpackable trial mid-fleet
    return core::paper_example();
  };
}

core::StudyOptions whole_study() {
  core::StudyOptions study;
  study.trials = 9;
  study.base_seed = 0xBEEF;
  return study;
}

SolveRequest solve_request() {
  return {Scheduler::EDF,
          {0.01, 0.01, 0.01},
          core::DesignGoal::MinOverheadBandwidth,
          {},
          {}};
}

/// Renders one fleet's study report (rows + summary) through the streaming
/// path into a string -- what `flexrt_design study --jsonl --stream` pipes
/// to a file, minus the process around it.
std::string streamed_report(const AnalysisService& service,
                            const SolveRequest& req, bool with_summary,
                            StreamStats* stats_out = nullptr) {
  std::ostringstream os;
  JsonlWriter out(os);
  StudyAggregate agg;
  const StreamStats stats = service.run(req, [&](const SolveResult& r) {
    const std::string row =
        study_trial_row(r, req.alg, core::DesignGoal::MinOverheadBandwidth);
    out.write(row);
    agg.add(row);
  });
  if (with_summary) out.write(agg.summary_row());
  if (stats_out) *stats_out = stats;
  return os.str();
}

TEST(SvcStream, SinkSeesTheBufferedSequenceExactly) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();
  const std::vector<SolveResult> want = service.run(req);

  std::vector<SolveResult> got;
  const StreamStats stats =
      service.run(req, [&](const SolveResult& r) { got.push_back(r); });
  EXPECT_EQ(stats.emitted, want.size());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].system, i);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].trial, want[i].trial);
    EXPECT_EQ(got[i].error, want[i].error);
    EXPECT_EQ(got[i].feasible, want[i].feasible);
    if (want[i].feasible) {
      EXPECT_EQ(got[i].design.schedule.period, want[i].design.schedule.period);
      EXPECT_EQ(got[i].design.schedule.ft.usable,
                want[i].design.schedule.ft.usable);
    }
    EXPECT_EQ(got[i].prov.budget, want[i].prov.budget);
    EXPECT_EQ(got[i].prov.dl_exact, want[i].prov.dl_exact);
  }
}

TEST(SvcStream, EveryRequestTypeStreamsInEntryOrder) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const auto expect_ordered = [](const StreamStats& stats,
                                 const std::vector<std::size_t>& order,
                                 std::size_t n) {
    EXPECT_EQ(stats.emitted, n);
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
  };
  std::vector<std::size_t> order;

  order.clear();
  expect_ordered(service.run(
                     MinQuantumRequest{Scheduler::EDF, 1.0, false, {}},
                     [&](const MinQuantumResult& r) { order.push_back(r.system); }),
                 order, service.size());

  order.clear();
  core::SearchOptions opts;
  opts.p_min = 0.5;
  opts.p_max = 1.5;
  opts.grid_step = 0.5;
  expect_ordered(
      service.run(
          RegionSweepRequest{Scheduler::EDF, opts, {}},
          [&](const RegionSweepResult& r) { order.push_back(r.system); }),
      order, service.size());

  const core::Design d =
      core::solve_design(core::paper_example(), Scheduler::EDF, {0.0, 0.0, 0.0},
                         core::DesignGoal::MaxSlackBandwidth);

  order.clear();
  SensitivityRequest sreq;
  sreq.alg = Scheduler::EDF;
  sreq.schedule = d.schedule;
  sreq.include_global = false;
  expect_ordered(service.run(sreq,
                                     [&](const SensitivityResult& r) {
                                       order.push_back(r.system);
                                     }),
                 order, service.size());

  order.clear();
  expect_ordered(
      service.run(VerifyRequest{Scheduler::EDF, d.schedule, false, {}},
                     [&](const VerifyResult& r) { order.push_back(r.system); }),
      order, service.size());
}

TEST(SvcStream, StreamedBytesEqualBufferedBytes) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const SolveRequest req = solve_request();

  // Buffered report: the pre-streaming study path (rows from the result
  // vector, summary from the aggregate).
  std::ostringstream buffered;
  {
    JsonlWriter out(buffered);
    StudyAggregate agg;
    for (const SolveResult& r : service.run(req)) {
      const std::string row =
          study_trial_row(r, req.alg, core::DesignGoal::MinOverheadBandwidth);
      out.write(row);
      agg.add(row);
    }
    out.write(agg.summary_row());
  }

  const std::string streamed = streamed_report(service, req, true);
  EXPECT_EQ(streamed, buffered.str());
}

TEST(SvcStream, MergedShardStreamsEqualTheUnshardedStream) {
  const SolveRequest req = solve_request();
  AnalysisService whole;
  whole.add_fleet(whole_study(), test_factory());
  const std::string want = streamed_report(whole, req, true);

  // Stream each shard separately (rows only, like `study --shard k/N`),
  // then merge with the exact helpers cmd_merge runs.
  std::vector<std::string> rows;
  for (std::size_t k = 0; k < 3; ++k) {
    AnalysisService part;
    core::StudyOptions shard = whole_study();
    shard.shard = {k, 3};
    part.add_fleet(shard, test_factory());
    std::istringstream in(streamed_report(part, req, false));
    collect_study_rows(in, "shard" + std::to_string(k), rows);
  }
  sort_study_rows(rows);
  std::ostringstream merged;
  JsonlWriter out(merged);
  StudyAggregate agg;
  for (const std::string& row : rows) {
    out.write(row);
    agg.add(row);
  }
  out.write(agg.summary_row());
  EXPECT_EQ(merged.str(), want);
}

TEST(SvcStream, PeakBufferingIsBoundedByTheWindow) {
  AnalysisService service;
  core::StudyOptions study;
  study.trials = 64;
  service.add_fleet(study, [](std::size_t, Rng&) {
    return std::optional<core::ModeTaskSystem>(core::paper_example());
  });
  for (const std::size_t window : {1u, 3u, 16u}) {
    std::size_t emitted = 0;
    const StreamStats stats = service.run(
        MinQuantumRequest{Scheduler::EDF, 1.0, false, {}},
        [&](const MinQuantumResult&) { ++emitted; }, window);
    EXPECT_EQ(emitted, 64u);
    EXPECT_EQ(stats.window, window);
    EXPECT_LE(stats.max_buffered, window);
    EXPECT_GE(stats.max_buffered, 1u);
  }
}

// --- kill-mid-stream: truncated shard files -------------------------------

TEST(SvcStream, TruncatedShardFileIsRejectedDeterministically) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const std::string report =
      streamed_report(service, solve_request(), /*with_summary=*/false);

  // A complete report collects cleanly.
  {
    std::vector<std::string> rows;
    std::istringstream in(report);
    collect_study_rows(in, "whole", rows);
    EXPECT_EQ(rows.size(), 9u);
  }

  // Chop the file mid-last-row at several depths -- whatever instant the
  // writer was killed, the partial tail must be detected, not merged.
  // (Losing only the final '\n' leaves a complete row, which is fine;
  // chops of >= 2 cut into the row itself.)
  for (const std::size_t chop : {2u, 5u, 20u}) {
    ASSERT_GT(report.size(), chop + 1);
    std::istringstream in(report.substr(0, report.size() - chop));
    std::vector<std::string> rows;
    EXPECT_THROW(collect_study_rows(in, "partial", rows), ModelError)
        << "chop " << chop;
  }
}

TEST(SvcStream, DuplicateShardRowsAreRejected) {
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const std::string report =
      streamed_report(service, solve_request(), /*with_summary=*/false);
  std::vector<std::string> rows;
  std::istringstream a(report), b(report);
  collect_study_rows(a, "a", rows);
  collect_study_rows(b, "b", rows);
  EXPECT_THROW(sort_study_rows(rows), ModelError);
}

TEST(SvcStream, MissingTrialsAreRejected) {
  // A shard killed cleanly *between* two row flushes leaves only complete
  // lines -- no truncation to detect -- but the merged trial ids then have
  // a hole, which the sort/contiguity check must reject.
  AnalysisService service;
  service.add_fleet(whole_study(), test_factory());
  const std::string report =
      streamed_report(service, solve_request(), /*with_summary=*/false);
  std::vector<std::string> rows;
  std::istringstream in(report);
  collect_study_rows(in, "whole", rows);
  ASSERT_EQ(rows.size(), 9u);

  std::vector<std::string> holed = rows;
  holed.erase(holed.begin() + 3);  // lose trial 3 (a row-boundary kill)
  EXPECT_THROW(sort_study_rows(holed), ModelError);

  std::vector<std::string> intact = rows;
  sort_study_rows(intact);  // the complete set still merges
  EXPECT_EQ(intact.size(), 9u);
}

}  // namespace
}  // namespace flexrt::svc

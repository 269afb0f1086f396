// bench_report -- times the hot analysis kernels (new batched engine vs the
// frozen pre-refactor kernels from bench/legacy_kernels.hpp) and emits a
// JSON report. CI archives the file as BENCH_micro.json so the speedup
// trajectory stays visible across PRs without parsing google-benchmark
// output.
//
// Usage: bench_report [output.json]   (default: BENCH_micro.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/integration.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/min_quantum.hpp"
#include "legacy_kernels.hpp"
#include "rt/analysis_context.hpp"
#include "rt/deadline_bound.hpp"
#include "rt/demand.hpp"
#include "rt/priority.hpp"
#include "common/fs.hpp"
#include "net/proto.hpp"
#include "net/server.hpp"
#include "stress_workloads.hpp"
#include "svc/analysis_service.hpp"
#include "svc/journal.hpp"
#include "svc/jsonl.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"

#include <unistd.h>

#include <cstdlib>

namespace {

using namespace flexrt;
using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;  // defeats dead-code elimination

/// ns per call, measured over enough repetitions to fill ~100 ms.
double time_ns(const std::function<double()>& fn) {
  g_sink = fn();  // warm caches (and the lazy AnalysisContext state)
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) g_sink = fn();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= 0.1 || reps >= (1u << 24)) {
      return elapsed * 1e9 / static_cast<double>(reps);
    }
    reps *= elapsed < 1e-3 ? 64 : 2;
  }
}

struct Row {
  std::string name;
  double legacy_ns = 0.0;
  double engine_ns = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_micro.json";

  // Every row below except memo_hit measures compute, not lookups; the
  // process-wide answer memo would turn their repeat runs into cache hits
  // and time the wrong thing. The memo_hit block re-enables it.
  svc::global_memo().set_enabled(false);

  const core::ModeTaskSystem& sys = core::paper_example();
  const core::ModeSchedule schedule =
      core::solve_design(sys, hier::Scheduler::EDF, {0.02, 0.02, 0.02},
                         core::DesignGoal::MaxSlackBandwidth)
          .schedule;
  const analysis::BatchEngine engine(sys, hier::Scheduler::EDF);

  Rng rng(1246);  // matches micro_perf's sized_set(12)
  gen::GenParams gp;
  gp.num_tasks = 12;
  gp.total_utilization = 0.6;
  gp.ft_fraction = 0.0;
  gp.fs_fraction = 0.0;
  const rt::TaskSet ts12 =
      rt::sort_rate_monotonic(gen::generate_task_set(gp, rng));
  const rt::AnalysisContext ctx12(ts12);

  const hier::SlotSupply slot(2.0, 0.75);

  std::vector<Row> rows;
  rows.push_back({"min_quantum_edf_n12",
                  time_ns([&] {
                    return legacy::min_quantum(ts12, hier::Scheduler::EDF, 2.0);
                  }),
                  time_ns([&] {
                    return hier::min_quantum(ctx12, hier::Scheduler::EDF, 2.0);
                  })});
  rows.push_back({"min_quantum_fp_n12",
                  time_ns([&] {
                    return legacy::min_quantum(ts12, hier::Scheduler::FP, 2.0);
                  }),
                  time_ns([&] {
                    return hier::min_quantum(ctx12, hier::Scheduler::FP, 2.0);
                  })});
  rows.push_back({"feasibility_margin_paper",
                  time_ns([&] {
                    return legacy::feasibility_margin(
                        sys, hier::Scheduler::EDF, 2.0);
                  }),
                  time_ns([&] { return engine.feasibility_margin(2.0); })});
  rows.push_back({"supply_inverse_slot",
                  time_ns([&] {
                    double acc = 0.0;
                    for (int d = 1; d <= 16; ++d) {
                      acc += slot.inverse_by_bisection(0.33 * d);
                    }
                    return acc;
                  }),
                  time_ns([&] {
                    double acc = 0.0;
                    for (int d = 1; d <= 16; ++d) acc += slot.inverse(0.33 * d);
                    return acc;
                  })});
  rows.push_back(
      {"sensitivity_report_paper",
       time_ns([&] {
         return legacy::sensitivity_report(sys, schedule,
                                           hier::Scheduler::EDF)
             .back()
             .scale_margin;
       }),
       time_ns([&] {
         return engine.sensitivity_report(schedule).back().scale_margin;
       })});
  {
    core::SearchOptions opts;
    opts.grid_step = 1e-2;
    opts.p_max = 6.0;
    rows.push_back({"sample_region_paper",
                    time_ns([&] {
                      double acc = 0.0;
                      for (double p = opts.p_min; p <= opts.p_max;
                           p += opts.grid_step) {
                        acc += engine.feasibility_margin(p);
                      }
                      return acc;
                    }),
                    time_ns([&] {
                      return engine.sample_region(opts).back().margin;
                    })});
  }

  // --- large-n stress rows: the QPA-condensed dlSet at n = 1000 -----------
  {
    // Hyperperiod-hostile set: the full dlSet enumeration is intractable
    // (co-prime-ish periods), so "legacy" here is the per-point O(n*points)
    // demand kernel over the same condensed points -- the tightest baseline
    // that still finishes -- vs the cached event-sweep context probe.
    const rt::TaskSet stress = benchws::stress_set(1000);
    const rt::AnalysisContext sctx(stress);
    const std::vector<double>& spoints = sctx.deadline_points();
    rows.push_back({"stress_minq_edf_n1000",
                    time_ns([&] {
                      double worst = 0.0;
                      for (const double t : spoints) {
                        worst = std::max(
                            worst, hier::quantum_for_point(
                                       t, rt::edf_demand(stress, t), 2.0));
                      }
                      return worst;
                    }),
                    time_ns([&] {
                      return hier::min_quantum(sctx, hier::Scheduler::EDF,
                                               2.0);
                    })});

    // FP twin: the full Bini-Buttazzo point sets are astronomically large
    // on the hostile draw, so "legacy" is the per-point O(n) fp_workload
    // kernel over the same condensed points (the tightest baseline that
    // still finishes) vs the cached context probe.
    const rt::TaskSet stress_fp = benchws::stress_set_fp(1000);
    const rt::AnalysisContext fctx(stress_fp);
    rows.push_back(
        {"stress_minq_fp_n1000",
         time_ns([&] {
           double worst = 0.0;
           for (std::size_t i = 0; i < fctx.size(); ++i) {
             const std::vector<double>& pts = fctx.scheduling_points(i);
             const std::vector<double>& ends = fctx.scheduling_point_ends(i);
             double best = std::numeric_limits<double>::infinity();
             for (std::size_t k = 0; k < pts.size(); ++k) {
               best = std::min(
                   best, hier::quantum_for_point(
                             pts[k], rt::fp_workload(stress_fp, i, ends[k]),
                             2.0));
             }
             worst = std::max(worst, best);
           }
           return worst;
         }),
         time_ns([&] {
           return hier::min_quantum(fctx, hier::Scheduler::FP, 2.0);
         })});

    // Tractable twin (divisor-friendly period menu, hyperperiod 120): the
    // real pre-refactor path runs, so the ratio is a true before/after.
    const rt::TaskSet big = benchws::tractable_big_set(1000);
    const rt::AnalysisContext bctx(big);
    rows.push_back({"minq_edf_menu_n1000",
                    time_ns([&] {
                      return legacy::min_quantum(big, hier::Scheduler::EDF,
                                                 2.0);
                    }),
                    time_ns([&] {
                      return hier::min_quantum(bctx, hier::Scheduler::EDF,
                                               2.0);
                    })});
  }

  // --- fleet runner: a serial run_one loop vs run() on the pool ----------
  // Both paths run identical per-entry work (the same generated 12-task
  // systems and solve request), so near-linear scaling across
  // FLEXRT_THREADS shows up as speedup ~= "threads".
  {
    svc::AnalysisService service;
    core::StudyOptions study;
    study.trials = 4 * par::thread_count();
    service.add_fleet(study, [](std::size_t, Rng& trial_rng) {
      gen::GenParams trial_gp;
      trial_gp.num_tasks = 12;
      trial_gp.total_utilization = 1.1;
      return gen::build_system(gen::generate_task_set(trial_gp, trial_rng));
    });
    core::SearchOptions opts;
    opts.grid_step = 2e-2;
    opts.p_max = 8.0;
    const svc::SolveRequest req{hier::Scheduler::EDF,
                                {0.05, 0.0, 0.0},
                                core::DesignGoal::MinOverheadBandwidth,
                                opts,
                                {}};
    const auto period = [](const svc::SolveResult& r) {
      return r.feasible ? r.design.schedule.period : 0.0;
    };
    rows.push_back({"study_trials_e10", time_ns([&] {
                      double acc = 0.0;
                      for (std::size_t i = 0; i < service.size(); ++i) {
                        acc += period(service.run_one(i, req));
                      }
                      return acc;
                    }),
                    time_ns([&] {
                      double acc = 0.0;
                      for (const svc::SolveResult& r : service.run(req)) {
                        acc += period(r);
                      }
                      return acc;
                    })});
  }

  // --- streaming fleet execution: peak result buffering vs fleet size -----
  // run() reassembles results through a bounded reorder window, so peak
  // buffered rows is O(window), not O(fleet). Rows (not ns) are the
  // headline here: this is the memory bound that makes 10^5+-trial studies
  // feasible. serial_ms is the same fleet as a run_one loop on this thread.
  std::size_t fleet_entries = 0, fleet_window = 0, fleet_peak = 0;
  double fleet_serial_ms = 0.0, fleet_streamed_ms = 0.0;
  {
    svc::AnalysisService service;
    core::StudyOptions study;
    study.trials = 256;
    service.add_fleet(study,
                      [](std::size_t, Rng& fleet_rng) { return gen::study_system(fleet_rng); });
    fleet_entries = service.size();
    const svc::MinQuantumRequest req{hier::Scheduler::EDF, 1.0, false, {}};
    (void)service.run(req);  // warm the engine cache for both paths
    double sink_acc = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < service.size(); ++i) {
      sink_acc += service.run_one(i, req).margin;
    }
    const auto t1 = Clock::now();
    const svc::StreamStats stats = service.run(
        req, [&](const svc::MinQuantumResult& r) { sink_acc += r.margin; });
    const auto t2 = Clock::now();
    g_sink = sink_acc;
    fleet_window = stats.window;
    fleet_peak = stats.max_buffered;
    fleet_serial_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    fleet_streamed_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  }

  // --- journaled fleet execution: the durability tax over the raw stream --
  // Same fleet shape as stream_fleet, but every row goes through the
  // crash-safe journal (append + atomic rename; the fsync variant upgrades
  // each entry to a durable write). The delta against streamed_ms above is
  // what --output costs; the fsync column is what --fsync adds on top.
  std::size_t journal_entries = 0;
  double journal_ms = 0.0, journal_fsync_ms = 0.0;
  {
    svc::AnalysisService service;
    core::StudyOptions study;
    study.trials = 256;
    service.add_fleet(study,
                      [](std::size_t, Rng& fleet_rng) { return gen::study_system(fleet_rng); });
    journal_entries = service.size();
    const svc::MinQuantumRequest req{hier::Scheduler::EDF, 1.0, false, {}};
    (void)service.run(req);  // warm the engine cache
    const std::string path = out_path + ".journal_bench.jsonl";
    const auto timed_run = [&](bool fsync_per_entry) {
      svc::Journal journal(path);
      svc::JournalOptions opts;
      opts.fsync_per_entry = fsync_per_entry;
      const auto t0 = Clock::now();
      svc::run_journaled(
          journal, service.size(), opts,
          [](std::string_view) { return true; },  // one row per entry
          {}, [&](std::size_t i) { return service.run_one(i, req); },
          [&](const svc::MinQuantumResult& r) {
            svc::JsonRow row;
            row.field("kind", "min_quantum")
                .field("name", r.name)
                .field("margin", r.margin);
            return row.str() + "\n";
          });
      const auto t1 = Clock::now();
      fs::remove_file(path);
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };
    journal_ms = timed_run(false);
    journal_fsync_ms = timed_run(true);
  }

  // --- daemon round-trip: process-per-request vs a warm resident session --
  // Cold = exec the offline tool once per request (what a shell loop or a
  // notebook pays today: shell, process start, pool spin-up, parse -- every
  // time). Warm = the same solve over one persistent flexrtd session on a
  // unix socket. The workload is deliberately small so the row measures the
  // per-request fixed costs the daemon amortizes, not the solve itself
  // (kernel timings live in the rows above).
  double cold_ms = 0.0, warm_ms = 0.0;
  std::size_t cold_runs = 0, warm_runs = 0;
  {
    static constexpr const char* kTasks =
        "a 1 6 NF 0\nb 1 12 FS 0\nc 1 15 FT 0\n";
    const std::string task_path = out_path + ".daemon_bench.tasks";
    if (std::FILE* f = std::fopen(task_path.c_str(), "w")) {
      std::fputs(kTasks, f);
      std::fclose(f);
    }
    // The offline tool sits next to this binary; FLEXRT_DESIGN_BIN is the
    // override for out-of-tree runs.
    std::string tool = "./flexrt_design";
    if (const char* env = std::getenv("FLEXRT_DESIGN_BIN")) {
      tool = env;
    } else {
      const std::string self = argv[0];
      const std::size_t slash = self.rfind('/');
      if (slash != std::string::npos) {
        tool = self.substr(0, slash) + "/flexrt_design";
      }
    }
    const std::string cold_cmd =
        tool + " solve --jsonl --no-wall " + task_path + " > /dev/null";
    if (std::system(cold_cmd.c_str()) == 0) {  // smoke once, then time
      cold_runs = 5;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < cold_runs; ++i) {
        (void)std::system(cold_cmd.c_str());
      }
      cold_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count() /
                static_cast<double>(cold_runs);
    } else {
      std::fprintf(stderr, "bench_report: %s not runnable, cold_process_ms=0\n",
                   tool.c_str());
    }

    const std::string sock = out_path + ".daemon_bench.sock";
    net::ServerOptions sopts;
    sopts.socket_path = sock;
    net::Server server(sopts);
    server.start();
    const int fd = net::dial(sock);
    {
      net::FdStream io(fd);
      const auto request = [&](const std::string& cmd) {
        io << cmd << std::flush;
        bool truncated = false;
        while (const auto line = net::proto::read_line(
                   io, net::proto::kMaxLineBytes, &truncated)) {
          if (net::proto::parse_status_line(*line)) break;
        }
      };
      request("add bench\n" + std::string(kTasks) + ".\n");
      request("solve\n");  // warm the session's engine cache
      warm_runs = 50;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < warm_runs; ++i) request("solve\n");
      warm_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count() /
                static_cast<double>(warm_runs);
      request("quit\n");
    }
    ::close(fd);
    server.stop();
    fs::remove_file(task_path);
  }

  // --- content-addressed answer memo: cold fleet vs a warm repeat --------
  // Cold = first full 256-entry run (analyses execute and their answers are
  // stored under the canonical content hash). Warm = the identical request
  // repeated: every entry resolves by memo lookup instead of an adaptive
  // ladder. The wall-free JSONL renderings of both runs must be
  // byte-identical (cache_hit only ever renders next to wall_ms), which is
  // what bytes_identical certifies.
  std::size_t memo_entries = 0;
  double memo_cold_ms = 0.0, memo_warm_ms = 0.0;
  std::size_t memo_hits = 0;
  bool memo_bytes_identical = false;
  {
    svc::global_memo().set_enabled(true);
    svc::global_memo().clear();
    svc::AnalysisService service;
    core::StudyOptions study;
    study.trials = 256;
    service.add_fleet(study,
                      [](std::size_t, Rng& fleet_rng) { return gen::study_system(fleet_rng); });
    memo_entries = service.size();
    // An adaptive ladder is the realistic cold cost (several budget
    // rungs per entry); the warm lookup is the same either way.
    const svc::MinQuantumRequest req{hier::Scheduler::EDF, 1.0, false,
                                     svc::AccuracyPolicy::adaptive(1e-6)};
    const auto render = [&](const std::vector<svc::MinQuantumResult>& rs) {
      std::string text;
      for (const svc::MinQuantumResult& r : rs) {
        text += svc::min_quantum_row(r, req.alg, req.period, false).str();
        text += '\n';
      }
      return text;
    };
    const auto t0 = Clock::now();
    const auto cold = service.run(req);
    const auto t1 = Clock::now();
    const auto warm = service.run(req);
    const auto t2 = Clock::now();
    memo_cold_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    memo_warm_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    memo_hits = static_cast<std::size_t>(svc::global_memo().stats().hits);
    memo_bytes_identical = render(cold) == render(warm);
    svc::global_memo().set_enabled(false);
    svc::global_memo().clear();
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out, "{\n  \"schema\": \"flexrt-bench-micro/1\",\n");
  std::fprintf(out,
               "  \"stream_fleet\": {\"entries\": %zu, "
               "\"stream_window\": %zu, \"stream_peak_rows\": %zu, "
               "\"serial_ms\": %.2f, \"streamed_ms\": %.2f},\n",
               fleet_entries, fleet_window, fleet_peak, fleet_serial_ms,
               fleet_streamed_ms);
  std::fprintf(out,
               "  \"journal_fleet\": {\"entries\": %zu, \"journal_ms\": %.2f, "
               "\"journal_fsync_ms\": %.2f},\n",
               journal_entries, journal_ms, journal_fsync_ms);
  std::fprintf(out,
               "  \"daemon_roundtrip\": {\"cold_runs\": %zu, "
               "\"cold_process_ms\": %.2f, \"warm_runs\": %zu, "
               "\"warm_request_ms\": %.2f, \"speedup\": %.2f},\n",
               cold_runs, cold_ms, warm_runs, warm_ms,
               warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  std::fprintf(out,
               "  \"memo_hit\": {\"entries\": %zu, \"cold_ms\": %.2f, "
               "\"warm_ms\": %.2f, \"speedup\": %.2f, \"hits\": %zu, "
               "\"bytes_identical\": %s},\n",
               memo_entries, memo_cold_ms, memo_warm_ms,
               memo_warm_ms > 0.0 ? memo_cold_ms / memo_warm_ms : 0.0,
               memo_hits, memo_bytes_identical ? "true" : "false");
  std::fprintf(out, "  \"threads\": %zu,\n  \"kernels\": [\n",
               par::thread_count());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"legacy_ns\": %.1f, "
                 "\"engine_ns\": %.1f, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.legacy_ns, r.engine_ns,
                 r.legacy_ns / r.engine_ns, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  for (const Row& r : rows) {
    std::printf("%-28s legacy %10.0f ns   engine %10.0f ns   %6.2fx\n",
                r.name.c_str(), r.legacy_ns, r.engine_ns,
                r.legacy_ns / r.engine_ns);
  }
  std::printf(
      "stream_fleet                 %zu entries: streamed peak %zu rows "
      "(window %zu); serial %.1f ms vs streamed %.1f ms\n",
      fleet_entries, fleet_peak, fleet_window, fleet_serial_ms,
      fleet_streamed_ms);
  std::printf(
      "journal_fleet                %zu entries: journaled %.1f ms, "
      "fsync-per-entry %.1f ms\n",
      journal_entries, journal_ms, journal_fsync_ms);
  std::printf(
      "daemon_roundtrip             cold %8.1f ms/solve (exec, %zu runs)   "
      "warm %8.2f ms/solve (resident, %zu runs)   %6.1fx\n",
      cold_ms, cold_runs, warm_ms, warm_runs,
      warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  std::printf(
      "memo_hit                     %zu entries: cold %8.1f ms   warm "
      "%8.2f ms   %6.1fx   (%zu hits, wall-free rows %s)\n",
      memo_entries, memo_cold_ms, memo_warm_ms,
      memo_warm_ms > 0.0 ? memo_cold_ms / memo_warm_ms : 0.0, memo_hits,
      memo_bytes_identical ? "byte-identical" : "DIFFER");
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}

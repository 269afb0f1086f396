// flexrt_design -- command-line front of the multi-system analysis service.
//
// The tool is subcommand-shaped around svc::AnalysisService: every
// subcommand loads (or generates) a *fleet* of systems, issues one typed
// request across it, and reports answers together with their provenance
// (dl_exact, budget, probes, gap, wall_ms). With --jsonl the report is
// machine-readable JSON-lines (schema in tools/README.md), which is what
// makes sharded study outputs mergeable.
//
// Usage: `flexrt_design help` (usage_text below); tools/README.md has the
// flag reference and the JSONL schema.
//
// Every analysis subcommand also takes --deadline MS: a per-entry wall-time
// budget; an adaptive ladder that runs out of time degrades gracefully to
// the last completed rung's conservative answer (provenance degraded=true,
// gap=null) instead of erroring or running on. --no-wall drops the
// nondeterministic wall_ms provenance field from JSONL rows, making reports
// byte-reproducible (and byte-comparable to `remote` output, which is
// always wall-free).
//
// remote: run a subcommand on a flexrtd daemon (tools/flexrtd.cpp) instead
// of in-process -- task files are uploaded with the wire `add` command,
// generated studies are decomposed into `gen-fleet` + `solve --study`, and
// the daemon's JSONL rows stream to stdout byte-identical to the offline
// subcommand with --jsonl --no-wall (CI diffs them). <addr> is a unix
// socket path, host:port, or port.
//
// Every report streams: each entry's rows are written as soon as its
// analysis finishes, through the service's ordered reassembly buffer, so
// peak memory stays bounded by the reorder window instead of the fleet
// size. --stream only adds a flush after every JSONL row, so a killed run
// leaves at most one partial final line.
//
// The analysis subcommands parse their flags and render their JSONL rows
// with the command layer in net/proto, the same functions the flexrtd wire
// protocol runs; this file adds only the offline forms (human tables, CSV,
// wall_ms, journaled runs, merge) and the remote client.
//
// --output FILE (study, sweep, fault-sweep; implies --jsonl): crash-safe
// journaled run through svc::run_journaled. Rows append to FILE.partial
// (whole entries at a time, --fsync upgrades each to a durable write) and
// FILE appears only via the final atomic rename, so it is either absent or
// complete. --resume recovers the completed prefix of an interrupted
// journal and computes only the remaining entries -- the resumed FILE is
// byte-identical to an uninterrupted run. --retries N re-executes failing
// entries up to N extra times on a deterministic backoff schedule; entries
// still failing are quarantined as error rows (provenance carries the
// attempt count) and the run exits 3. `merge --output FILE` publishes the
// merged report through the same atomic temp-file + rename path.
//
// Legacy compatibility: `flexrt_design <taskfile> ...` (no subcommand) is
// routed to `solve`.
//
// Exit status: 0 on success, 1 on infeasible design / failed verify /
// simulated misses / error rows, 2 on usage or input errors, 3 when a
// journaled run holds quarantined entries, 4 when SIGINT/SIGTERM
// interrupted a journaled run (the fsynced .partial journal resumes with
// --resume).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/signals.hpp"
#include "common/table.hpp"
#include "core/design.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "hier/response_time.hpp"
#include "io/task_io.hpp"
#include "net/proto.hpp"
#include "net/server.hpp"
#include "rt/priority.hpp"
#include "sim/simulator.hpp"
#include "svc/analysis_service.hpp"
#include "svc/journal.hpp"
#include "svc/jsonl.hpp"
#include "svc/memo_cache.hpp"
#include "svc/study_report.hpp"

using namespace flexrt;

namespace {

namespace proto = net::proto;
using proto::CommonOpts;
using proto::parse_num;
using proto::parse_size;

void usage_text(std::ostream& os) {
  os << "usage: flexrt_design <subcommand> ...\n"
         "  solve  <taskfile>... [--alg edf|rm] [--goal min-overhead|max-slack]\n"
         "         [--overhead O_FT,O_FS,O_NF] [--adaptive TOL] [--budget N]\n"
         "         [--budget-cap N] [--jsonl] [--csv] [--sensitivity]\n"
         "         [--response-times] [--simulate HORIZON] [--fault-rate R]\n"
         "         [--trace N]\n"
         "  sweep  <taskfile>... [--alg edf|rm] [--p-min P] [--p-max P]\n"
         "         [--step dP] [--adaptive TOL] [--budget N] [--jsonl] [--csv]\n"
         "         [--stream]\n"
         "  minq   <taskfile>... --period P [--exact-supply] [--alg edf|rm]\n"
         "         [--adaptive TOL] [--budget N] [--jsonl] [--csv]\n"
         "  verify <taskfile>... --period P --quanta Q_FT,Q_FS,Q_NF\n"
         "         [--overhead O_FT,O_FS,O_NF] [--alg edf|rm] [--exact-supply]\n"
         "         [--adaptive TOL] [--budget N] [--jsonl]\n"
         "  study  [--trials N] [--seed S] [--shard k/N] [--alg edf|rm]\n"
         "         [--goal g] [--overhead a,b,c] [--adaptive TOL] [--budget N]\n"
         "         [--jsonl] [--csv] [--stream]\n"
         "  fault-sweep <taskfile>... | --trials N [--seed S] [--shard k/N]\n"
         "         [--rates R1,R2,...] [--min-sep S] [--no-baselines]\n"
         "         [--exact-supply] [--alg edf|rm] [--goal g]\n"
         "         [--overhead a,b,c] [--adaptive TOL] [--budget N] [--jsonl]\n"
         "         [--csv] [--stream]\n"
         "  merge  <report.jsonl>... [--output FILE]\n"
         "  remote <addr> solve|sweep|verify|minq|fault-sweep|study|status\n"
         "         [args...]   run on a flexrtd daemon (addr = socket path,\n"
         "         host:port, or port); rows stream back byte-identical to\n"
         "         the offline subcommand with --jsonl --no-wall\n"
         "  help | --help      print this text to stdout and exit 0\n"
         "common: --deadline MS  per-entry wall budget (adaptive ladders\n"
         "        degrade to the last finished rung when it expires)\n"
         "        --no-wall      omit wall_ms from JSONL rows (deterministic,\n"
         "        byte-comparable reports)\n"
         "        --no-memo      disable the process-wide answer memo (every\n"
         "        entry recomputes; repeats stop being lookups)\n"
         "        --memo-bytes N cap the answer memo at N bytes (default\n"
         "        256 MiB; least-recently-used entries evict)\n"
         "journal (study, sweep, fault-sweep; implies --jsonl):\n"
         "        --output FILE  crash-safe journaled run: rows append to\n"
         "                       FILE.partial, FILE appears by atomic rename\n"
         "        --resume       recover FILE.partial's completed prefix and\n"
         "                       compute only the remaining entries\n"
         "        --retries N    extra executions for failing entries on a\n"
         "                       deterministic backoff; exhausted entries are\n"
         "                       quarantined as error rows (exit 3)\n"
         "        --fsync        fsync the journal after every entry\n"
         "SIGINT/SIGTERM during a journaled run: the in-flight entry\n"
         "finishes and is journaled, the .partial is fsynced, exit 4;\n"
         "finish later with --resume\n";
}

int usage() {
  usage_text(std::cerr);
  return 2;
}

int cmd_help() {
  usage_text(std::cout);
  return 0;
}

/// A journaled run (--output) of `req` over the fleet: each entry's rows
/// are the shared emitter's, wall-free (resume byte identity needs
/// deterministic rows), appended to FILE.partial and published by atomic
/// rename. The exit code is the max over rendered and replayed rows: 3 for
/// a quarantined entry, 1 for an error or infeasible row when
/// `errors_are_failures` (study rows are exempt: an unpackable trial is
/// study data), or 4 when SIGINT/SIGTERM cut the run short (--resume
/// finishes it byte-identically).
template <typename Request, typename Emit>
int run_journal(const svc::AnalysisService& service, const Request& req,
                const CommonOpts& o, std::string_view terminal,
                bool errors_are_failures, const Emit& emit,
                const svc::Journal::RowCallback& replay = {},
                const std::function<std::string()>& epilogue = {}) {
  sys::install_stop_signals();
  svc::JournalOptions jopts = o.journal_options();
  jopts.stop = &sys::stop_requested();
  svc::Journal journal(o.output);
  int rc = 0;
  const svc::JournalStats stats = svc::run_journaled(
      journal, service.size(), jopts,
      [&](std::string_view row) {
        return svc::json_string_field(row, "kind").value_or("") == terminal;
      },
      [&](std::string_view row) {
        if (svc::json_bool_field(row, "quarantined").value_or(false)) {
          rc = std::max(rc, 3);
        } else if (errors_are_failures &&
                   (svc::json_string_field(row, "error") ||
                    !svc::json_bool_field(row, "feasible").value_or(true))) {
          rc = std::max(rc, 1);
        }
        if (replay) replay(row);
      },
      [&](std::size_t i) { return service.run_one(i, req); },
      [&](const auto& r) {
        std::ostringstream block;
        svc::JsonlWriter w(block);
        rc = std::max(rc, emit(w, r));
        return block.str();
      },
      epilogue);
  std::cerr << "journal: " << o.output << ": " << stats.entries
            << " entries (" << stats.replayed << " replayed, "
            << stats.executed << " executed, " << stats.retried
            << " retried, " << stats.quarantined << " quarantined)"
            << (stats.already_complete ? " -- already complete" : "") << "\n";
  if (!stats.interrupted) return rc;
  const int sig = sys::stop_signal();
  std::cerr << "journal: interrupted by "
            << (sig == SIGTERM  ? "SIGTERM"
                : sig == SIGINT ? "SIGINT"
                                : "stop request")
            << " -- completed entries are durable in " << o.output
            << ".partial; finish with --resume\n";
  return 4;
}

/// Loads every file as one fleet entry (parse + channel packing).
void load_fleet(svc::AnalysisService& service,
                const std::vector<std::string>& files) {
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) throw ModelError("cannot open " + file);
    service.add_system(io::parse_mode_task_system(in).system, file);
  }
}

/// A task-file subcommand without a journal path (solve, minq, verify): at
/// least one file and no journal flag.
bool plain_run(const std::vector<std::string>& files, CommonOpts& o) {
  return !files.empty() && !o.journaled() && o.finish_journal_flags();
}

std::string provenance_note(const svc::Provenance& p) {
  std::ostringstream os;
  // fp_budget > 0 marks an FP request, whose budget knob condenses the
  // per-task scheduling points rather than the dlSet.
  if (p.fp_budget > 0) {
    os << (p.fp_exact ? "exact schedP" : "condensed schedP");
  } else {
    os << (p.dl_exact ? "exact dlSet" : "condensed dlSet");
  }
  os << ", budget " << p.budget << ", " << p.probes
     << (p.probes == 1 ? " probe" : " probes");
  if (p.gap && !(p.dl_exact && p.fp_exact)) os << ", gap <= " << *p.gap;
  return os.str();
}

void print_table(const Table& t, const CommonOpts& o) {
  o.csv ? t.print_csv(std::cout) : t.print(std::cout);
}

/// An unjournaled report: every result, in entry order, as JSONL rows
/// through the shared emitter or in the subcommand's human form (`human`
/// prints one result and returns its exit code). Returns the max exit code.
template <typename Request, typename Human>
int report(const svc::AnalysisService& service,
           const proto::Command<Request>& cmd, const Human& human) {
  svc::JsonlWriter out(std::cout, /*flush_per_row=*/cmd.opts.stream);
  int rc = 0;
  proto::run_plain(service, cmd.req, [&](const auto& r) {
    rc = std::max(rc, cmd.opts.jsonl
                          ? proto::emit(out, r, cmd.req, !cmd.opts.no_wall)
                          : human(r));
  });
  return rc;
}

// --- solve ----------------------------------------------------------------

/// solve's offline-only flags: what the tool adds to a design beyond rows.
struct SolveExtras {
  double simulate_horizon = 0.0;
  double fault_rate = 0.0;
  std::size_t trace = 0;
  bool sensitivity = false;
  bool response_times = false;
};

int print_solve_human(const svc::AnalysisService& service,
                      const svc::SolveResult& r,
                      const proto::Command<svc::SolveRequest>& cmd,
                      const SolveExtras& x) {
  const svc::SolveRequest& req = cmd.req;
  const core::ModeTaskSystem& sys = service.system(r.system);
  std::cout << r.name << ": " << sys.num_tasks() << " tasks (FT "
            << sys.mode_tasks(rt::Mode::FT).size() << ", FS "
            << sys.mode_tasks(rt::Mode::FS).size() << ", NF "
            << sys.mode_tasks(rt::Mode::NF).size() << ")\n";
  if (!r.feasible) {
    std::cout << "infeasible: " << r.infeasible << "\n";
    return 1;
  }
  const core::Design& d = r.design;
  std::cout << "design (" << to_string(req.alg) << ", " << to_string(req.goal)
            << "): " << d.schedule << "\n"
            << "accuracy: " << provenance_note(r.prov) << "\n";

  Table t({"mode", "quantum", "overhead", "alloc_bw", "required_bw"});
  for (const rt::Mode mode : core::kAllModes) {
    t.row()
        .cell(rt::to_string(mode))
        .cell(d.schedule.slot(mode).usable, 4)
        .cell(d.schedule.slot(mode).overhead, 4)
        .cell(d.schedule.allocated_bandwidth(mode), 4)
        .cell(sys.required_bandwidth(mode), 4);
  }
  print_table(t, cmd.opts);

  if (x.sensitivity) {
    std::cout << "\nsensitivity (max WCET scale keeping the design "
                 "feasible, cap 16x):\n";
    svc::SensitivityRequest sreq;
    sreq.alg = req.alg;
    sreq.schedule = d.schedule;
    sreq.accuracy = req.accuracy;
    const svc::SensitivityResult s = service.run_one(r.system, sreq);
    Table st({"task", "mode", "wcet", "scale_margin"});
    for (const core::TaskMargin& m : s.margins) {
      st.row()
          .cell(m.name)
          .cell(rt::to_string(m.mode))
          .cell(m.wcet, 3)
          .cell(m.scale_margin, 3);
    }
    print_table(st, cmd.opts);
    std::cout << "global simultaneous scale margin: "
              << format_fixed(s.global_margin, 3) << "\n";
  }

  if (x.response_times) {
    if (req.alg != hier::Scheduler::FP) {
      std::cout << "\n(response-time bounds are available for FP only; "
                   "rerun with --alg rm)\n";
    } else {
      std::cout << "\nworst-case response-time bounds (exact slot supply):\n";
      Table rtb({"task", "mode", "deadline", "response_bound"});
      for (const rt::Mode mode : core::kAllModes) {
        for (const rt::TaskSet& raw : sys.partitions(mode)) {
          if (raw.empty()) continue;
          const rt::TaskSet ordered = rt::sort_deadline_monotonic(raw);
          const auto bounds =
              hier::fp_response_times(ordered, d.schedule.exact_supply(mode));
          for (std::size_t k = 0; k < ordered.size(); ++k) {
            rtb.row()
                .cell(ordered[k].name)
                .cell(rt::to_string(mode))
                .cell(ordered[k].deadline, 3);
            if (bounds[k]) {
              rtb.cell(*bounds[k], 3);
            } else {
              rtb.cell("miss");
            }
          }
        }
      }
      print_table(rtb, cmd.opts);
    }
  }

  if (x.simulate_horizon > 0.0) {
    sim::SimOptions opt;
    opt.horizon = x.simulate_horizon;
    opt.scheduler = req.alg;
    opt.faults = {x.fault_rate, 2.0};
    opt.trace_capacity = x.trace;
    sim::Simulator simulator(sys, d.schedule, opt);
    const sim::SimResult res = simulator.run();
    std::cout << "\nsimulated " << x.simulate_horizon << " units: "
              << res.total_misses() << " misses, " << res.faults.injected
              << " faults (" << res.faults.masked << " masked, "
              << res.faults.silenced << " silenced, " << res.faults.corrupting
              << " corrupting)\n";
    if (x.trace > 0) {
      std::cout << "--- trace ---\n";
      simulator.trace().print(std::cout);
    }
    if (res.total_misses() > 0) return 1;
  }
  return 0;
}

int cmd_solve(const std::vector<std::string>& rest) {
  SolveExtras x;
  std::vector<std::string> files;
  proto::Front front{.files = &files};
  front.hook = [&x](int argc, char** argv, int& i) {
    const std::string_view a = argv[i];
    if (a == "--sensitivity") {
      x.sensitivity = true;
    } else if (a == "--response-times") {
      x.response_times = true;
    } else if (a == "--simulate") {
      x.simulate_horizon =
          parse_num("--simulate", proto::flag_value(argc, argv, i));
    } else if (a == "--fault-rate") {
      x.fault_rate = parse_num("--fault-rate", proto::flag_value(argc, argv, i));
    } else if (a == "--trace") {
      x.trace = parse_size("--trace", proto::flag_value(argc, argv, i));
    } else {
      return false;
    }
    return true;
  };
  auto cmd = proto::parse_solve(rest, front);
  // solve has no journal path: one-shot fleets report to stdout.
  if (!plain_run(files, cmd.opts)) return usage();

  svc::AnalysisService service;
  load_fleet(service, files);
  return report(service, cmd, [&](const svc::SolveResult& r) {
    if (r.system) std::cout << "\n";
    return print_solve_human(service, r, cmd, x);
  });
}

// --- minq -----------------------------------------------------------------

int cmd_minq(const std::vector<std::string>& rest) {
  std::vector<std::string> files;
  auto cmd = proto::parse_minq(rest, {.files = &files});
  if (!plain_run(files, cmd.opts)) return usage();

  svc::AnalysisService service;
  load_fleet(service, files);
  return report(service, cmd, [&](const svc::MinQuantumResult& r) {
    std::cout << r.name << ": minimum quanta at P = " << cmd.req.period
              << ", " << to_string(cmd.req.alg) << " ("
              << provenance_note(r.prov) << ")\n";
    Table t({"q_ft", "q_fs", "q_nf", "margin"});
    t.row()
        .cell(r.mode_quantum[0], 4)
        .cell(r.mode_quantum[1], 4)
        .cell(r.mode_quantum[2], 4)
        .cell(r.margin, 4);
    print_table(t, cmd.opts);
    return 0;
  });
}

// --- sweep ----------------------------------------------------------------

int cmd_sweep(const std::vector<std::string>& rest) {
  std::vector<std::string> files;
  auto cmd = proto::parse_sweep(rest, {.files = &files});
  if (files.empty() || !cmd.opts.finish_journal_flags()) return usage();

  svc::AnalysisService service;
  load_fleet(service, files);
  const svc::RegionSweepRequest& req = cmd.req;
  if (cmd.opts.journaled()) {
    // Error and quarantined entries journal as a lone terminal error row:
    // the fleet carries on.
    return run_journal(
        service, req, cmd.opts, "sweep", /*errors_are_failures=*/true,
        [&](svc::JsonlWriter& w, const svc::RegionSweepResult& r) {
          return proto::emit(w, r, req, /*with_wall=*/false);
        });
  }

  return report(service, cmd, [&](const svc::RegionSweepResult& r) {
    std::cout << r.name << ": lhs(P) over [" << req.search.p_min << ", "
              << req.search.p_max << "], " << to_string(req.alg) << " ("
              << provenance_note(r.prov) << ")\n";
    Table t({"P", "margin"});
    for (const core::RegionSample& s : r.samples) {
      t.row().cell(s.period, 3).cell(s.margin, 4);
    }
    print_table(t, cmd.opts);
    return 0;
  });
}

// --- verify ---------------------------------------------------------------

int cmd_verify(const std::vector<std::string>& rest) {
  std::vector<std::string> files;
  auto cmd = proto::parse_verify(rest, {.files = &files});
  if (!plain_run(files, cmd.opts)) return usage();

  svc::AnalysisService service;
  load_fleet(service, files);
  return report(service, cmd, [](const svc::VerifyResult& r) {
    std::cout << r.name << ": "
              << (r.schedulable ? "schedulable" : "NOT schedulable") << " ("
              << provenance_note(r.prov) << ")\n";
    return r.schedulable ? 0 : 1;
  });
}

// --- fault-sweep ----------------------------------------------------------

int print_fault_sweep_human(const svc::FaultSweepResult& r,
                            const proto::Command<svc::FaultSweepRequest>& cmd) {
  const svc::FaultSweepRequest& req = cmd.req;
  if (!r.ok()) {
    std::cout << r.name << ": error: " << r.error << "\n";
    return 1;
  }
  if (!r.feasible) {
    std::cout << r.name << ": infeasible: " << r.infeasible << "\n";
    return 1;
  }
  std::cout << r.name << ": nominal design P = " << r.schedule.period << " ("
            << to_string(req.alg) << ", " << provenance_note(r.prov) << ")\n";
  std::vector<std::string> head = {"rate",  "recovery_gap", "ft_ok",
                                   "fs_ok", "nf_ok",        "nf_exposure"};
  if (req.with_baselines) {
    head.insert(head.end(),
                {"pb_ok", "static_ft_ok", "static_fs_ok", "static_nf_ok"});
  }
  Table t(head);
  const auto mark = [](bool ok) { return ok ? "yes" : "NO"; };
  for (const svc::FaultRatePoint& p : r.points) {
    t.row().cell(p.rate, 4);
    if (std::isinf(p.recovery_gap)) {
      t.cell("inf");
    } else {
      t.cell(p.recovery_gap, 3);
    }
    t.cell(mark(p.ft_ok))
        .cell(mark(p.fs_ok))
        .cell(mark(p.nf_ok))
        .cell(p.nf_exposure, 6);
    if (req.with_baselines) {
      t.cell(mark(p.pb_ok))
          .cell(mark(p.static_ft_ok))
          .cell(mark(p.static_fs_ok))
          .cell(mark(p.static_nf_ok));
    }
  }
  print_table(t, cmd.opts);
  return 0;
}

int cmd_fault_sweep(const std::vector<std::string>& rest) {
  std::vector<std::string> files;
  core::StudyOptions study;
  study.trials = 0;  // 0 = no generated fleet (task files expected)
  auto cmd = proto::parse_fault_sweep(rest, {.files = &files, .gen = &study});
  if (files.empty() == (study.trials == 0)) {
    return usage();  // exactly one fleet source: task files xor --trials
  }
  if (!cmd.opts.finish_journal_flags()) return usage();

  svc::AnalysisService service;
  if (study.trials > 0) {
    service.add_fleet(study, [](std::size_t, Rng& rng) {
      return gen::study_system(rng);
    });
    cmd.req.search = proto::generated_fleet_search();
  } else {
    load_fleet(service, files);
  }
  const svc::FaultSweepRequest& req = cmd.req;
  if (cmd.opts.journaled()) {
    return run_journal(
        service, req, cmd.opts, "fault_sweep", /*errors_are_failures=*/true,
        [&](svc::JsonlWriter& w, const svc::FaultSweepResult& r) {
          return proto::emit(w, r, req, /*with_wall=*/false);
        });
  }
  return report(service, cmd, [&](const svc::FaultSweepResult& r) {
    return print_fault_sweep_human(r, cmd);
  });
}

// --- study / merge --------------------------------------------------------

int cmd_study(const std::vector<std::string>& rest) {
  std::vector<std::string> files;
  core::StudyOptions study;  // trials=100, seed=0x5EED -- the study defaults
  auto cmd = proto::parse_study(rest, {.files = &files, .gen = &study});
  if (!files.empty() || !cmd.opts.finish_journal_flags()) return usage();

  svc::AnalysisService service;
  service.add_fleet(study, [](std::size_t, Rng& rng) {
    return gen::study_system(rng);
  });
  const svc::SolveRequest& req = cmd.req;
  // Shards emit rows only; the merged/unsharded report owns the summary.
  const bool summary = study.shard.count == 1;
  svc::StudyAggregate agg;

  if (cmd.opts.journaled()) {
    // An unsharded journal carries the summary row as its epilogue --
    // deliberately non-terminal, so a crash after it but before the rename
    // truncates it away on resume and the recomputed aggregate re-emits it.
    std::function<std::string()> epilogue;
    if (summary) epilogue = [&agg] { return agg.summary_row() + "\n"; };
    return run_journal(
        service, req, cmd.opts, "study_trial", /*errors_are_failures=*/false,
        [&](svc::JsonlWriter& w, const svc::SolveResult& r) {
          return proto::emit_study_trial(w, r, req, agg);
        },
        [&](std::string_view row) {
          // A committed file's summary row is not a trial.
          if (svc::json_string_field(row, "kind").value_or("") ==
              "study_trial") {
            agg.add(row);
          }
        },
        epilogue);
  }

  svc::JsonlWriter out(std::cout, /*flush_per_row=*/cmd.opts.stream);
  service.run(req, [&](const svc::SolveResult& r) {
    if (cmd.opts.jsonl) {
      proto::emit_study_trial(out, r, req, agg);
    } else {
      agg.add(svc::study_trial_row(r, req.alg, req.goal));  // table only
    }
  });
  if (cmd.opts.jsonl) {
    if (summary) out.write(agg.summary_row());
    return 0;
  }

  std::cout << "study: " << agg.trials() << " of " << study.trials
            << " trials (shard " << study.shard.index + 1 << "/"
            << study.shard.count << ", seed 0x" << std::hex << study.base_seed
            << std::dec << "), " << to_string(req.alg) << ", "
            << to_string(req.goal) << ", O_tot " << req.overheads.total()
            << "\n\n";
  Table t({"trials", "packed", "feasible", "sum_period", "mean_period",
           "sum_slack_bw"});
  const std::size_t feasible = agg.feasible();
  t.row()
      .cell(agg.trials())
      .cell(agg.packed())
      .cell(feasible)
      .cell(agg.sum_period(), 3)
      .cell(feasible ? agg.sum_period() / static_cast<double>(feasible) : 0.0,
            3)
      .cell(agg.sum_slack_bw(), 3);
  print_table(t, cmd.opts);
  return 0;
}

int cmd_merge(const std::vector<std::string>& argv_rest) {
  std::vector<std::string> files;
  std::string output;
  for (std::size_t i = 0; i < argv_rest.size(); ++i) {
    if (argv_rest[i] == "--output") {
      if (i + 1 >= argv_rest.size() || argv_rest[i + 1].empty()) {
        return usage();
      }
      output = argv_rest[++i];
    } else if (!argv_rest[i].empty() && argv_rest[i][0] != '-') {
      files.push_back(argv_rest[i]);
    } else {
      return usage();
    }
  }
  if (files.empty()) return usage();
  std::vector<std::string> rows;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) throw ModelError("cannot open " + file);
    // Throws on a truncated row -- a shard killed mid-stream must fail the
    // merge loudly (exit 2), not silently drop its tail trials.
    svc::collect_study_rows(in, file, rows);
  }
  svc::sort_study_rows(rows);  // throws on duplicate trials

  if (!output.empty()) {
    // Same atomic publish discipline as journaled runs: the merged report
    // is staged whole in <output>.partial and appears only via the final
    // rename, so a killed merge never leaves a half-written report that a
    // later merge (or plot script) would trust.
    std::string text;
    svc::StudyAggregate agg;
    for (const std::string& row : rows) {
      text += row;
      text += '\n';
      agg.add(row);
    }
    text += agg.summary_row();
    text += '\n';
    svc::Journal journal(output);
    journal.start_fresh();
    journal.append(text);
    journal.commit();
    return 0;
  }

  svc::JsonlWriter out(std::cout);
  svc::StudyAggregate agg;
  for (const std::string& row : rows) {
    out.write(row);
    agg.add(row);
  }
  out.write(agg.summary_row());
  return 0;
}

// --- remote ---------------------------------------------------------------

/// Sends one wire command (possibly with a multi-line `add` payload) and
/// pumps the reply: data rows go to stdout verbatim, the status line ends
/// the exchange and yields the command's offline exit code. Throws on an
/// `error` status or a dropped connection.
int wire_exchange(net::FdStream& io, const std::string& payload) {
  io << payload << std::flush;
  if (!io) throw ModelError("remote: connection lost while sending");
  for (;;) {
    const std::optional<std::string> line =
        net::proto::read_line(io, net::proto::kMaxLineBytes, nullptr);
    if (!line) throw ModelError("remote: server closed the connection");
    const std::optional<net::proto::WireStatus> st =
        net::proto::parse_status_line(*line);
    if (!st) {
      std::cout << *line << "\n";
      continue;
    }
    if (st->failed) throw ModelError("remote: server: " + st->message);
    return st->rc;
  }
}

/// One task file as a wire `add` block: the file path doubles as the wire
/// name, so remote rows carry the same "name" field as offline rows.
std::string add_payload(const std::string& file) {
  std::ifstream in(file);
  if (!in) throw ModelError("cannot open " + file);
  std::ostringstream body;
  body << in.rdbuf();
  std::string text = body.str();
  if (!text.empty() && text.back() != '\n') text += '\n';
  return "add " + file + "\n" + text + ".\n";
}

int cmd_remote(const std::vector<std::string>& rest) {
  if (rest.size() < 2) return usage();
  const std::string& addr = rest[0];
  const std::string& sub = rest[1];
  const std::vector<std::string> args(rest.begin() + 2, rest.end());

  // The subcommand's own parser splits the arguments three ways: study
  // flags (become the wire gen-fleet command), task files (uploaded via
  // `add`), and the command's flags with their values (forwarded to the
  // wire request). A front-end-only flag fails here, naming the flag.
  const bool study_cmd = (sub == "study");
  core::StudyOptions study;  // trials=100, seed=0x5EED -- the study defaults
  if (!study_cmd) study.trials = 0;  // 0 = no generated fleet requested
  std::vector<std::string> files, fwd;
  const proto::Front front{.files = &files, .gen = &study, .wire = &fwd};
  CommonOpts opts;
  if (sub == "solve") {
    opts = proto::parse_solve(args, front).opts;
  } else if (sub == "minq") {
    opts = proto::parse_minq(args, front).opts;
  } else if (sub == "sweep") {
    opts = proto::parse_sweep(args, front).opts;
  } else if (sub == "verify") {
    opts = proto::parse_verify(args, front).opts;
  } else if (sub == "fault-sweep") {
    opts = proto::parse_fault_sweep(args, front).opts;
  } else if (study_cmd) {
    opts = proto::parse_study(args, front).opts;
  } else if (sub == "status") {
    fwd = args;  // status [--memo]: the wire validates it
  } else {
    return usage();
  }
  proto::reject_offline_flags(opts);
  const bool gen_mode = study_cmd || study.trials > 0;
  if (gen_mode && !files.empty()) {
    throw ModelError("remote " + sub +
                     ": task files and --trials are mutually exclusive");
  }
  if (!gen_mode && files.empty() && sub != "status") {
    throw ModelError("remote " + sub + ": no task files given");
  }

  const int fd = net::dial(addr);
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  net::FdStream io(fd);

  if (gen_mode) {
    std::ostringstream gen;
    gen << "gen-fleet --trials " << study.trials << " --seed "
        << study.base_seed;
    if (study.shard.count > 1) {
      gen << " --shard " << study.shard.index + 1 << "/" << study.shard.count;
    }
    wire_exchange(io, gen.str() + "\n");
  } else {
    for (const std::string& f : files) wire_exchange(io, add_payload(f));
  }

  std::string cmd = study_cmd ? "solve --study" : sub;
  for (const std::string& a : fwd) {
    cmd += ' ';
    cmd += a;
  }
  const int rc = wire_exchange(io, cmd + "\n");
  wire_exchange(io, "quit\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    // Process-level memo knobs, accepted at any argv position: they
    // configure the process-wide content-addressed answer cache
    // (svc::MemoCache), not one request, so they are stripped before
    // subcommand dispatch instead of living in CommonOpts.
    std::vector<std::string> all;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--no-memo") {
        svc::global_memo().set_enabled(false);
        continue;
      }
      if (a == "--memo-bytes") {
        if (i + 1 >= argc) return usage();
        svc::global_memo().set_capacity_bytes(
            parse_size("--memo-bytes", argv[++i]));
        continue;
      }
      all.push_back(a);
    }
    if (all.empty()) return usage();
    const std::string cmd = all[0];
    std::vector<std::string> rest(all.begin() + 1, all.end());
    if (cmd == "solve") return cmd_solve(rest);
    if (cmd == "minq") return cmd_minq(rest);
    if (cmd == "sweep") return cmd_sweep(rest);
    if (cmd == "verify") return cmd_verify(rest);
    if (cmd == "study") return cmd_study(rest);
    if (cmd == "fault-sweep") return cmd_fault_sweep(rest);
    if (cmd == "merge") return cmd_merge(rest);
    if (cmd == "remote") return cmd_remote(rest);
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return cmd_help();
    // Legacy form: flexrt_design [flags...] <taskfile> [flags...] == solve
    // (the pre-subcommand CLI accepted the file at any position, so flags
    // before the file must keep working too).
    return cmd_solve(all);
  } catch (const InfeasibleError& e) {
    std::cerr << "infeasible: " << e.what() << "\n";
    return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "core/design.hpp"
#include "core/integration.hpp"
#include "core/study_runner.hpp"
#include "hier/sched_test.hpp"
#include "svc/analysis_service.hpp"
#include "svc/journal.hpp"
#include "svc/jsonl.hpp"
#include "svc/study_report.hpp"

namespace flexrt::net::proto {

/// The flexrtd wire protocol and the command layer under both front ends.
///
/// Every analysis command (solve, study, minq, sweep, verify, fault-sweep)
/// lives here exactly once, as two functions that the offline
/// flexrt_design subcommands and the wire Session both call:
///
///   parse_<cmd>(args, front)  one flag loop (parse_common_flag plus
///       core::parse_study_flag plus the command's own flags) and the one
///       copy of the command's defaults; returns the typed svc request and
///       the front-end flags it came with. What the caller lends through
///       Front decides what else is legal: positional task files, study
///       flags, front-end-only flags (offline solve's --simulate etc.), and
///       the token list that re-forms the command on the wire (`remote`).
///   emit(writer, result, request, with_wall)  renders one result's JSONL
///       rows through the svc/rows renderers and returns that result's
///       exit-code contribution (emit_study_trial for study trials).
///
/// A remote report is therefore byte-identical to the offline --jsonl
/// --no-wall report by construction (CI and tests/cli_bytes.py still diff
/// them). The offline tool keeps only what has no wire twin: human tables,
/// CSV, wall_ms, journaled runs, `merge` and the `remote` client itself.
///
/// Framing (all lines '\n'-terminated, CRLF tolerated):
///
///   client -> server: one command per line,
///       add <name>            followed by task-file lines, ended by "."
///       gen-fleet [--trials N] [--seed S] [--shard k/N]
///       solve  [--study] [common flags]
///       minq   --period P [--exact-supply] [common flags]
///       sweep  [--p-min P] [--p-max P] [--step dP] [common flags]
///       verify --period P --quanta a,b,c [--exact-supply] [common flags]
///       fault-sweep [--rates r1,r2,..] [--min-sep S] [--no-baselines]
///                   [--exact-supply] [common flags]
///       drop | status [--memo] | quit
///
///   server -> client: zero or more JSONL data rows (lines starting with
///       '{', byte-identical to the offline subcommand's --jsonl --no-wall
///       report), then exactly one status line:
///       ok rc=<N> [key=value ...]     command done, offline exit code N
///       error <message>               command failed (offline exit code 2);
///                                     the session stays usable
///
/// Wire rows are always JSONL and always wall-free: remote reports must be
/// deterministic so clients, tests and CI can byte-diff them against the
/// offline tool. --jsonl/--stream/--no-wall are therefore accepted as
/// no-ops; --csv and the journal flags are rejected (they are offline
/// concerns). Sessions are independent: each owns its fleet, while all of
/// them share the process-wide par::parallel_for pool. Results stream to
/// the client in entry order through the same AnalysisService::run /
/// par::ordered_stream path as every offline report, so per-client memory
/// stays bounded by the reorder window, not the fleet size.

/// Hard cap on one wire line. Longer lines are consumed to their newline
/// (framing survives) but reported truncated, and the command is rejected
/// -- a hostile client cannot balloon session memory.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 16;

/// Hard cap on the task lines of one `add` block.
inline constexpr std::size_t kMaxAddLines = std::size_t{1} << 20;

/// Strict numeric flag values: the whole token must parse, so typos like
/// "--budget 64k" or "--adaptive xyz" are input errors (offline exit 2 /
/// wire `error`), not silently truncated values.
double parse_num(const char* flag, const std::string& v);
std::size_t parse_size(const char* flag, const std::string& v);

/// Flags shared by every analysis command, as the command parsers below
/// leave them. The accuracy knobs are kept as raw fields so
/// --budget/--budget-cap/--adaptive compose in any flag order; accuracy()
/// assembles the policy after parsing.
struct CommonOpts {
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::DesignGoal goal = core::DesignGoal::MinOverheadBandwidth;
  core::Overheads overheads{0.0, 0.0, 0.0};
  double adaptive_tol = -1.0;  ///< >= 0: adaptive accuracy requested
  std::size_t budget = 0;      ///< fixed budget / ladder seed; 0 = default
  std::size_t budget_cap = 0;  ///< adaptive ladder cap; 0 = default
  double deadline_ms = 0.0;    ///< per-entry wall budget; > 0 activates
  bool jsonl = false;
  bool csv = false;
  bool stream = false;  ///< flush every JSONL row as it is written
  bool no_wall = false;  ///< omit wall_ms from JSONL rows (deterministic
                         ///< output -- what the wire always does)
  std::string output;   ///< journaled run target file ("" = stdout report)
  bool resume = false;  ///< recover an interrupted journal before running
  std::size_t retries = 0;  ///< extra executions per failing entry
  bool fsync = false;       ///< fsync the journal after every entry

  svc::AccuracyPolicy accuracy() const {
    svc::AccuracyPolicy p;
    if (adaptive_tol < 0.0) {
      p = svc::AccuracyPolicy::fixed(budget);
    } else {
      p = svc::AccuracyPolicy::adaptive(adaptive_tol);
      if (budget) p.initial_points = budget;
      if (budget_cap) p.max_points = budget_cap;
    }
    if (deadline_ms > 0.0) p = p.with_deadline(deadline_ms);
    return p;
  }

  bool journaled() const noexcept { return !output.empty(); }

  /// The journal knobs require --output; true when the combination parses.
  /// Journaled reports are JSONL by construction, so --output implies
  /// --jsonl (checked by the caller after parsing, hence non-const).
  bool finish_journal_flags() {
    if (!journaled()) return !resume && retries == 0 && !fsync;
    jsonl = true;
    return true;
  }

  svc::JournalOptions journal_options() const {
    svc::JournalOptions jopts;
    jopts.resume = resume;
    jopts.fsync_per_entry = fsync;
    jopts.retry.max_attempts = retries + 1;
    return jopts;
  }
};

// --- the shared command layer ---------------------------------------------

/// A front end's own flags: called with a token no shared parser knows;
/// consumes argv[i] (advancing i past any value) and returns true, or
/// returns false to let the token fail as an unknown flag.
using FlagHook = std::function<bool(int argc, char** argv, int& i)>;

/// What a front end lends the command parsers. The wire lends nothing (a
/// default Front): bare tokens, study flags and unknown flags are errors.
struct Front {
  /// Non-null: bare tokens are task files and are collected here.
  std::vector<std::string>* files = nullptr;
  /// Non-null: --trials/--seed/--shard are accepted into *gen.
  core::StudyOptions* gen = nullptr;
  /// Non-null: every command flag is copied here with its values, in
  /// order -- the tokens that re-form the command on the wire (`remote`).
  std::vector<std::string>* wire = nullptr;
  /// Front-end-only flags (offline solve's --simulate, --sensitivity, ...).
  FlagHook hook = nullptr;
};

/// One parsed analysis command: the typed request plus the flags it came
/// with (output form and journal knobs are the front end's business).
template <typename Request>
struct Command {
  Request req;
  CommonOpts opts;
};

/// The value after the flag at argv[i] (advancing i); throws ModelError
/// naming the flag when it is missing.
const char* flag_value(int argc, char** argv, int& i);

/// The command parsers. Each throws ModelError naming the offending token
/// on a malformed, unknown or incomplete flag, and on a missing required
/// one (minq/verify --period, verify --quanta).
Command<svc::SolveRequest> parse_solve(const std::vector<std::string>& args,
                                       const Front& front);
/// The study request (`flexrt_design study`, wire `solve --study`): the
/// paper's O_tot = 0.05 split evenly and the generated-fleet search grid.
Command<svc::SolveRequest> parse_study(const std::vector<std::string>& args,
                                       const Front& front);
Command<svc::MinQuantumRequest> parse_minq(const std::vector<std::string>& args,
                                           const Front& front);
Command<svc::RegionSweepRequest> parse_sweep(
    const std::vector<std::string>& args, const Front& front);
Command<svc::VerifyRequest> parse_verify(const std::vector<std::string>& args,
                                         const Front& front);
/// Search grid left at the task-file default; a caller running the sweep
/// over a generated fleet sets generated_fleet_search().
Command<svc::FaultSweepRequest> parse_fault_sweep(
    const std::vector<std::string>& args, const Front& front);

/// The period search of every generated-fleet request (study trials and
/// fault-sweeps over --trials fleets).
core::SearchOptions generated_fleet_search();

/// Throws ModelError when `o` carries --csv or a journal flag: reports that
/// leave the process are plain JSONL (the wire, `remote`).
void reject_offline_flags(const CommonOpts& o);

/// Returns `r`, or throws its error when it carries one.
template <typename Result>
const Result& require_ok(const Result& r) {
  if (!r.ok()) throw ModelError(r.error);
  return r;
}

/// Runs one plain (unjournaled) request over the fleet through
/// AnalysisService::run, handing each result to `sink` in entry order. A
/// fault-sweep's error entries reach the sink and render as error rows;
/// every other request fails whole on an error entry (the error is thrown:
/// exit 2 / wire `error`).
template <typename Request, typename Sink>
void run_plain(const svc::AnalysisService& s, const Request& req,
               const Sink& sink) {
  if constexpr (std::is_same_v<Request, svc::FaultSweepRequest>) {
    s.run(req, sink);
  } else {
    s.run(req, [&](const auto& r) { sink(require_ok(r)); });
  }
}

/// The emitters, one per command: one result's JSONL rows, rendered through
/// svc/rows into `w`. Each returns the result's exit-code contribution: 3
/// quarantined, 1 infeasible / unschedulable / error row, else 0. Sweep,
/// fault-sweep and study results that carry an error render their lone
/// error row (journaled runs keep going); the others must be ok().
int emit(svc::JsonlWriter& w, const svc::SolveResult& r,
         const svc::SolveRequest& req, bool with_wall);
int emit(svc::JsonlWriter& w, const svc::MinQuantumResult& r,
         const svc::MinQuantumRequest& req, bool with_wall);
int emit(svc::JsonlWriter& w, const svc::RegionSweepResult& r,
         const svc::RegionSweepRequest& req, bool with_wall);
int emit(svc::JsonlWriter& w, const svc::VerifyResult& r,
         const svc::VerifyRequest& req, bool with_wall);
/// Fault-sweep rows are always wall-free: `with_wall` is ignored.
int emit(svc::JsonlWriter& w, const svc::FaultSweepResult& r,
         const svc::FaultSweepRequest& req, bool with_wall);
/// A study trial's row (always wall-free), also folded into `agg`, the
/// study_summary row's accumulator.
int emit_study_trial(svc::JsonlWriter& w, const svc::SolveResult& r,
                     const svc::SolveRequest& req, svc::StudyAggregate& agg);

/// Splits a command line into whitespace-separated tokens.
std::vector<std::string> split_tokens(const std::string& line);

/// Reads one '\n'-terminated line (CR stripped), consuming but not storing
/// bytes past `max_bytes` and reporting the overflow via *truncated.
/// Returns nullopt on end-of-stream with nothing read. A final unterminated
/// line is returned as-is (stdin-style tolerance; the socket framing always
/// terminates lines).
std::optional<std::string> read_line(std::istream& in, std::size_t max_bytes,
                                     bool* truncated);

/// A parsed server status line: `ok rc=<N> ...` or `error <message>`.
/// Returns nullopt for anything else (i.e. a data row).
struct WireStatus {
  bool failed = false;  ///< true for `error` lines
  int rc = 0;           ///< offline exit code (2 for `error` lines)
  std::string message;  ///< the `error` line's text
};
std::optional<WireStatus> parse_status_line(const std::string& line);

/// One protocol session: owns a per-client fleet (svc::AnalysisService),
/// executes commands read from an istream, and writes data rows plus
/// status lines to an ostream. Transport-agnostic by construction -- the
/// unit tests drive it over stringstreams, the server over socket streams.
class Session {
 public:
  explicit Session(std::ostream& out, std::size_t max_line = kMaxLineBytes);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Reads and executes commands until `quit`, end-of-stream, or a dead
  /// output stream. Returns the maximum per-command rc seen (0 when every
  /// command succeeded) -- the session-level exit code `remote` reports.
  int run(std::istream& in);

  /// Executes one already-read command line (an `add` block's body lines
  /// are read from `in`). Returns the command's rc and sets `quit` on the
  /// quit command. Never throws: failures become `error` status lines.
  int handle_line(const std::string& line, std::istream& in, bool& quit);

  std::size_t fleet_size() const noexcept;

 private:
  int dispatch(const std::vector<std::string>& tokens, std::istream& in,
               bool& quit);
  int cmd_add(const std::vector<std::string>& args, std::istream& in);
  int cmd_gen_fleet(const std::vector<std::string>& args);
  int cmd_solve(const std::vector<std::string>& args);
  int cmd_study(const std::vector<std::string>& args);
  int cmd_fault_sweep(const std::vector<std::string>& args);
  /// Runs a parsed request command: its rows, then the status line.
  template <typename Request>
  int answer(const Command<Request>& cmd);
  int cmd_status(const std::vector<std::string>& args);

  void require_fleet() const;
  void ok_line(int rc, const std::string& extras = {});
  void error_line(const std::string& message);

  std::ostream& out_;
  std::size_t max_line_;
  std::unique_ptr<svc::AnalysisService> service_;
  bool generated_ = false;     ///< fleet came from gen-fleet (pure)
  core::StudyOptions study_{};  ///< the gen-fleet options (when generated_)
};

}  // namespace flexrt::net::proto

#include "net/proto.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "gen/taskset_gen.hpp"
#include "io/task_io.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"
#include "svc/study_report.hpp"

namespace flexrt::net::proto {

double parse_num(const char* flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos == v.size()) return out;
  } catch (const std::exception&) {
  }
  throw ModelError(std::string(flag) + ": bad number '" + v + "'");
}

std::size_t parse_size(const char* flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const unsigned long long out = std::stoull(v, &pos, 10);
    if (pos == v.size()) return static_cast<std::size_t>(out);
  } catch (const std::exception&) {
  }
  throw ModelError(std::string(flag) + ": bad count '" + v + "'");
}

const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) throw ModelError(std::string(argv[i]) + ": missing value");
  return argv[++i];
}

namespace {

/// Re-exposes tokenized arguments in the argc/argv shape the flag parsers
/// (parse_common_flag, core::parse_study_flag, hooks) consume.
struct ArgVec {
  explicit ArgVec(const std::vector<std::string>& args) : owned(args) {
    for (std::string& s : owned) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> owned;
  std::vector<char*> ptrs;
};

/// "a,b,c" -> three doubles; returns false on malformed input.
bool parse_triple(const std::string& spec, double& a, double& b, double& c) {
  std::istringstream in(spec);
  char c1 = 0, c2 = 0;
  return static_cast<bool>(in >> a >> c1 >> b >> c2 >> c) && c1 == ',' &&
         c2 == ',';
}

/// Comma-separated strict numbers ("0,0.01,0.1"); every token must parse
/// (parse_num), so a malformed list throws naming the flag.
std::vector<double> parse_num_list(const char* flag, const std::string& spec) {
  std::vector<double> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = spec.find(',', start);
    out.push_back(parse_num(flag, spec.substr(start, comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Consumes one shared flag at argv[i], advancing i past its value;
/// returns false when argv[i] is not a shared flag and throws ModelError
/// naming the flag on a missing or malformed value.
bool parse_common_flag(CommonOpts& o, int argc, char** argv, int& i) {
  const std::string_view a = argv[i];
  using Switch = std::pair<const char*, bool*>;
  for (const auto& [flag, on] :
       {Switch{"--jsonl", &o.jsonl}, Switch{"--csv", &o.csv},
        Switch{"--stream", &o.stream}, Switch{"--no-wall", &o.no_wall},
        Switch{"--resume", &o.resume}, Switch{"--fsync", &o.fsync}}) {
    if (a == flag) {
      *on = true;
      return true;
    }
  }
  using Count = std::pair<const char*, std::size_t*>;
  for (const auto& [flag, field] :
       {Count{"--budget", &o.budget}, Count{"--budget-cap", &o.budget_cap},
        Count{"--retries", &o.retries}}) {
    if (a == flag) {
      *field = parse_size(flag, flag_value(argc, argv, i));
      return true;
    }
  }
  using Num = std::pair<const char*, double*>;
  for (const auto& [flag, field] : {Num{"--adaptive", &o.adaptive_tol},
                                    Num{"--deadline", &o.deadline_ms}}) {
    if (a == flag) {
      *field = parse_num(flag, flag_value(argc, argv, i));
      return true;
    }
  }
  if (a != "--alg" && a != "--goal" && a != "--overhead" && a != "--output") {
    return false;
  }
  const std::string v = flag_value(argc, argv, i);
  bool ok = !v.empty();
  if (a == "--alg") {
    ok = v == "edf" || v == "rm";
    o.alg = v == "rm" ? hier::Scheduler::FP : hier::Scheduler::EDF;
  } else if (a == "--goal") {
    ok = v == "min-overhead" || v == "max-slack";
    o.goal = v == "max-slack" ? core::DesignGoal::MaxSlackBandwidth
                              : core::DesignGoal::MinOverheadBandwidth;
  } else if (a == "--overhead") {
    ok = parse_triple(v, o.overheads.ft, o.overheads.fs, o.overheads.nf);
  } else {
    o.output = v;
  }
  if (!ok) throw ModelError(std::string(a) + ": bad value '" + v + "'");
  return true;
}

/// The one flag loop under every command parser. Per token, in order: the
/// study flags (when the front lends `gen`), the shared flags, the
/// command's own flags (`own`), the front end's hook; then a bare token is
/// a task file (when the front lends `files`). Anything else throws.
template <typename Own>
CommonOpts parse_flags(const std::vector<std::string>& args,
                       const Front& front, CommonOpts o, const Own& own) {
  ArgVec av(args);
  const int argc = av.argc();
  char** argv = av.argv();
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const int first = i;
    if (front.gen && core::parse_study_flag(*front.gen, argc, argv, i)) {
      continue;
    }
    if (parse_common_flag(o, argc, argv, i) || own(argc, argv, i)) {
      if (front.wire) {
        front.wire->insert(front.wire->end(), args.begin() + first,
                           args.begin() + i + 1);
      }
      continue;
    }
    if (front.hook && front.hook(argc, argv, i)) continue;
    if (!a.empty() && a[0] != '-') {
      if (!front.files) {
        throw ModelError("unexpected argument '" + a +
                         "' (systems are added with `add`, not file paths)");
      }
      front.files->push_back(a);
      continue;
    }
    throw ModelError("unknown flag '" + a + "'");
  }
  return o;
}

const auto kNoOwnFlags = [](int, char**, int&) { return false; };

/// The paper's total overhead O_tot = 0.05 split evenly over the three
/// slots: the overhead default of studies and fault-sweeps.
CommonOpts paper_overheads() {
  CommonOpts o;
  o.overheads = {0.05 / 3, 0.05 / 3, 0.05 / 3};
  return o;
}

/// One-line sanitizer for `error` status lines: the message must not break
/// the line-oriented framing.
std::string one_line(std::string msg) {
  std::replace(msg.begin(), msg.end(), '\n', ' ');
  std::replace(msg.begin(), msg.end(), '\r', ' ');
  return msg;
}

}  // namespace

core::SearchOptions generated_fleet_search() {
  core::SearchOptions search;
  search.grid_step = 5e-3;
  search.p_max = 10.0;
  return search;
}

Command<svc::SolveRequest> parse_solve(const std::vector<std::string>& args,
                                       const Front& front) {
  Command<svc::SolveRequest> cmd;
  cmd.opts = parse_flags(args, front, {}, kNoOwnFlags);
  const CommonOpts& o = cmd.opts;
  cmd.req = {o.alg, o.overheads, o.goal, {}, o.accuracy()};
  return cmd;
}

Command<svc::SolveRequest> parse_study(const std::vector<std::string>& args,
                                       const Front& front) {
  Command<svc::SolveRequest> cmd;
  cmd.opts = parse_flags(args, front, paper_overheads(), kNoOwnFlags);
  const CommonOpts& o = cmd.opts;
  cmd.req = {o.alg, o.overheads, o.goal, generated_fleet_search(),
             o.accuracy()};
  return cmd;
}

Command<svc::MinQuantumRequest> parse_minq(const std::vector<std::string>& args,
                                           const Front& front) {
  Command<svc::MinQuantumRequest> cmd;
  svc::MinQuantumRequest& req = cmd.req;
  req.period = 0.0;  // required: no default period
  cmd.opts = parse_flags(args, front, {}, [&](int argc, char** argv, int& i) {
    const std::string_view a = argv[i];
    if (a == "--period") {
      req.period = parse_num("--period", flag_value(argc, argv, i));
    } else if (a == "--exact-supply") {
      req.use_exact_supply = true;
    } else {
      return false;
    }
    return true;
  });
  if (req.period <= 0.0) throw ModelError("minq needs --period P > 0");
  req.alg = cmd.opts.alg;
  req.accuracy = cmd.opts.accuracy();
  return cmd;
}

Command<svc::RegionSweepRequest> parse_sweep(
    const std::vector<std::string>& args, const Front& front) {
  Command<svc::RegionSweepRequest> cmd;
  core::SearchOptions& search = cmd.req.search;
  search.p_min = 0.05;
  search.p_max = 3.5;
  search.grid_step = 0.05;
  cmd.opts = parse_flags(args, front, {}, [&](int argc, char** argv, int& i) {
    for (const auto& [flag, field] : {std::pair{"--p-min", &search.p_min},
                                      std::pair{"--p-max", &search.p_max},
                                      std::pair{"--step", &search.grid_step}}) {
      if (std::strcmp(argv[i], flag) == 0) {
        *field = parse_num(flag, flag_value(argc, argv, i));
        return true;
      }
    }
    return false;
  });
  cmd.req.alg = cmd.opts.alg;
  cmd.req.accuracy = cmd.opts.accuracy();
  return cmd;
}

Command<svc::VerifyRequest> parse_verify(const std::vector<std::string>& args,
                                         const Front& front) {
  Command<svc::VerifyRequest> cmd;
  double period = 0.0;
  double q_ft = 0.0, q_fs = 0.0, q_nf = 0.0;
  bool have_quanta = false;
  cmd.opts = parse_flags(args, front, {}, [&](int argc, char** argv, int& i) {
    const std::string_view a = argv[i];
    if (a == "--period") {
      period = parse_num("--period", flag_value(argc, argv, i));
    } else if (a == "--quanta") {
      if (!parse_triple(flag_value(argc, argv, i), q_ft, q_fs, q_nf)) {
        throw ModelError("--quanta: expected Q_FT,Q_FS,Q_NF");
      }
      have_quanta = true;
    } else if (a == "--exact-supply") {
      cmd.req.use_exact_supply = true;
    } else {
      return false;
    }
    return true;
  });
  if (period <= 0.0 || !have_quanta) {
    throw ModelError("verify needs --period P > 0 and --quanta Q_FT,Q_FS,Q_NF");
  }
  const CommonOpts& o = cmd.opts;
  core::ModeSchedule& schedule = cmd.req.schedule;
  schedule.period = period;
  schedule.ft = {q_ft, o.overheads.ft};
  schedule.fs = {q_fs, o.overheads.fs};
  schedule.nf = {q_nf, o.overheads.nf};
  cmd.req.alg = o.alg;
  cmd.req.accuracy = o.accuracy();
  return cmd;
}

Command<svc::FaultSweepRequest> parse_fault_sweep(
    const std::vector<std::string>& args, const Front& front) {
  Command<svc::FaultSweepRequest> cmd;
  svc::FaultSweepRequest& req = cmd.req;
  req.rates = {0.0, 1e-3, 1e-2, 0.1, 1.0};
  cmd.opts = parse_flags(
      args, front, paper_overheads(), [&](int argc, char** argv, int& i) {
        const std::string_view a = argv[i];
        if (a == "--rates") {
          req.rates = parse_num_list("--rates", flag_value(argc, argv, i));
        } else if (a == "--min-sep") {
          req.min_separation =
              parse_num("--min-sep", flag_value(argc, argv, i));
        } else if (a == "--no-baselines") {
          req.with_baselines = false;
        } else if (a == "--exact-supply") {
          req.use_exact_supply = true;
        } else {
          return false;
        }
        return true;
      });
  req.alg = cmd.opts.alg;
  req.overheads = cmd.opts.overheads;
  req.goal = cmd.opts.goal;
  req.accuracy = cmd.opts.accuracy();
  return cmd;
}

void reject_offline_flags(const CommonOpts& o) {
  if (o.csv) {
    throw ModelError("--csv is not supported over the wire (rows are JSONL)");
  }
  if (o.journaled() || o.resume || o.retries != 0 || o.fsync) {
    throw ModelError(
        "journal flags (--output/--resume/--retries/--fsync) are offline-only");
  }
}

int emit(svc::JsonlWriter& w, const svc::SolveResult& r,
         const svc::SolveRequest& req, bool with_wall) {
  w.write(svc::solve_row(r, req.alg, req.goal, with_wall));
  return r.feasible ? 0 : 1;
}

int emit_study_trial(svc::JsonlWriter& w, const svc::SolveResult& r,
                     const svc::SolveRequest& req, svc::StudyAggregate& agg) {
  // An unpackable trial is study data, not a failure: no exit-1 bump.
  const std::string row = svc::study_trial_row(r, req.alg, req.goal);
  w.write(row);
  agg.add(row);
  return r.prov.quarantined ? 3 : 0;
}

int emit(svc::JsonlWriter& w, const svc::MinQuantumResult& r,
         const svc::MinQuantumRequest& req, bool with_wall) {
  w.write(svc::min_quantum_row(r, req.alg, req.period, with_wall));
  return 0;
}

int emit(svc::JsonlWriter& w, const svc::RegionSweepResult& r,
         const svc::RegionSweepRequest& req, bool with_wall) {
  if (r.ok()) {
    for (const core::RegionSample& s : r.samples) {
      w.write(svc::sweep_sample_row(r, req.alg, s));
    }
  }
  w.write(svc::sweep_summary_row(r, req.alg, with_wall));
  return r.prov.quarantined ? 3 : r.ok() ? 0 : 1;
}

int emit(svc::JsonlWriter& w, const svc::VerifyResult& r,
         const svc::VerifyRequest& req, bool with_wall) {
  w.write(svc::verify_row(r, req.alg, req.schedule.period, with_wall));
  return r.schedulable ? 0 : 1;
}

int emit(svc::JsonlWriter& w, const svc::FaultSweepResult& r,
         const svc::FaultSweepRequest& req, bool /*with_wall*/) {
  // Partially computed points of an error entry must not masquerade as
  // sweep output: error entries emit their one summary row only.
  if (r.ok()) {
    for (const svc::FaultRatePoint& p : r.points) {
      w.write(svc::fault_point_row(r, p, req.alg, req.with_baselines));
    }
  }
  w.write(svc::fault_sweep_summary_row(r, req.alg));
  return r.prov.quarantined ? 3 : r.ok() && r.feasible ? 0 : 1;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::optional<std::string> read_line(std::istream& in, std::size_t max_bytes,
                                     bool* truncated) {
  if (truncated) *truncated = false;
  std::streambuf* sb = in.rdbuf();
  if (!sb || !in.good()) return std::nullopt;
  std::string line;
  bool got = false;
  for (;;) {
    const int c = sb->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      break;
    }
    got = true;
    if (c == '\n') break;
    if (line.size() < max_bytes) {
      line.push_back(static_cast<char>(c));
    } else if (truncated) {
      // Keep consuming to the newline so framing survives the oversized
      // line, but stop storing: bounded memory against hostile input.
      *truncated = true;
    }
  }
  if (!got) return std::nullopt;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

std::optional<WireStatus> parse_status_line(const std::string& line) {
  WireStatus st;
  if (line.rfind("error", 0) == 0 &&
      (line.size() == 5 || line[5] == ' ')) {
    st.failed = true;
    st.rc = 2;
    st.message = line.size() > 6 ? line.substr(6) : "";
    return st;
  }
  if (line.rfind("ok rc=", 0) == 0) {
    const std::string rest = line.substr(6);
    const std::size_t end = rest.find(' ');
    try {
      std::size_t pos = 0;
      const std::string num = rest.substr(0, end);
      st.rc = std::stoi(num, &pos);
      if (pos == num.size() && !num.empty()) return st;
    } catch (const std::exception&) {
    }
  }
  return std::nullopt;
}

Session::Session(std::ostream& out, std::size_t max_line)
    : out_(out),
      max_line_(max_line),
      service_(std::make_unique<svc::AnalysisService>()) {}

Session::~Session() = default;

std::size_t Session::fleet_size() const noexcept { return service_->size(); }

void Session::ok_line(int rc, const std::string& extras) {
  out_ << "ok rc=" << rc;
  if (!extras.empty()) out_ << ' ' << extras;
  out_ << '\n' << std::flush;
}

void Session::error_line(const std::string& message) {
  out_ << "error " << one_line(message) << '\n' << std::flush;
}

void Session::require_fleet() const {
  if (service_->size() == 0) {
    throw ModelError("the fleet is empty -- `add` or `gen-fleet` first");
  }
}

int Session::run(std::istream& in) {
  int rc = 0;
  for (;;) {
    bool truncated = false;
    const std::optional<std::string> line = read_line(in, max_line_, &truncated);
    if (!line) break;
    if (truncated) {
      error_line("line exceeds " + std::to_string(max_line_) +
                 " bytes -- command rejected");
      rc = std::max(rc, 2);
      if (!out_) break;
      continue;
    }
    bool quit = false;
    rc = std::max(rc, handle_line(*line, in, quit));
    if (quit || !out_) break;
  }
  return rc;
}

int Session::handle_line(const std::string& line, std::istream& in,
                         bool& quit) {
  quit = false;
  const std::vector<std::string> tokens = split_tokens(line);
  if (tokens.empty()) return 0;  // blank lines are keep-alive no-ops
  try {
    return dispatch(tokens, in, quit);
  } catch (const Error& e) {
    error_line(e.what());
    return 2;
  } catch (const std::exception& e) {
    error_line(e.what());
    return 2;
  }
}

template <typename Request>
int Session::answer(const Command<Request>& cmd) {
  reject_offline_flags(cmd.opts);
  require_fleet();
  svc::JsonlWriter rows(out_);
  int rc = 0;
  run_plain(*service_, cmd.req, [&](const auto& r) {
    rc = std::max(rc, emit(rows, r, cmd.req, /*with_wall=*/false));
  });
  ok_line(rc);
  return rc;
}

int Session::dispatch(const std::vector<std::string>& tokens, std::istream& in,
                      bool& quit) {
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "quit") {
    quit = true;
    ok_line(0, "bye");
    return 0;
  }
  if (cmd == "add") return cmd_add(args, in);
  if (cmd == "gen-fleet") return cmd_gen_fleet(args);
  if (cmd == "solve") return cmd_solve(args);
  if (cmd == "minq") return answer(parse_minq(args, {}));
  if (cmd == "sweep") return answer(parse_sweep(args, {}));
  if (cmd == "verify") return answer(parse_verify(args, {}));
  if (cmd == "fault-sweep") return cmd_fault_sweep(args);
  if (cmd == "status") return cmd_status(args);
  if (cmd == "drop") {
    service_ = std::make_unique<svc::AnalysisService>();
    generated_ = false;
    study_ = core::StudyOptions{};
    ok_line(0, "fleet=0");
    return 0;
  }
  throw ModelError("unknown command '" + cmd + "'");
}

int Session::cmd_add(const std::vector<std::string>& args, std::istream& in) {
  if (args.size() != 1) {
    throw ModelError("usage: add <name>, then task lines, then a lone '.'");
  }
  const std::string& name = args[0];
  std::string text;
  std::size_t lines = 0;
  for (;;) {
    bool truncated = false;
    const std::optional<std::string> line = read_line(in, max_line_, &truncated);
    if (!line) {
      throw ModelError("add " + name +
                       ": stream ended before the terminating '.'");
    }
    if (truncated) {
      throw ModelError("add " + name + ": task line exceeds " +
                       std::to_string(max_line_) + " bytes");
    }
    if (*line == ".") break;
    if (++lines > kMaxAddLines) {
      throw ModelError("add " + name + ": more than " +
                       std::to_string(kMaxAddLines) + " task lines");
    }
    text += *line;
    text += '\n';
  }
  io::ParsedSystem parsed = io::parse_mode_task_system_string(text);
  service_->add_system(std::move(parsed.system), name);
  generated_ = false;  // the fleet is no longer a pure generated study
  ok_line(0, "fleet=" + std::to_string(service_->size()));
  return 0;
}

int Session::cmd_gen_fleet(const std::vector<std::string>& args) {
  if (service_->size() != 0) {
    throw ModelError(
        "gen-fleet needs an empty fleet (`drop` first): generated studies "
        "must not mix with added systems");
  }
  core::StudyOptions study;  // trials=100, seed=0x5EED -- the study defaults
  ArgVec av(args);
  const int argc = av.argc();
  char** raw = av.argv();
  for (int i = 0; i < argc; ++i) {
    if (core::parse_study_flag(study, argc, raw, i)) continue;
    throw ModelError(std::string("gen-fleet: unknown flag '") + raw[i] + "'");
  }
  service_->add_fleet(
      study, [](std::size_t, Rng& rng) { return gen::study_system(rng); });
  generated_ = true;
  study_ = study;
  ok_line(0, "fleet=" + std::to_string(service_->size()) +
                 " trials=" + std::to_string(study.trials));
  return 0;
}

int Session::cmd_solve(const std::vector<std::string>& args) {
  // `solve --study` is the wire spelling of the offline study subcommand.
  std::vector<std::string> rest;
  std::copy_if(args.begin(), args.end(), std::back_inserter(rest),
               [](const std::string& a) { return a != "--study"; });
  if (rest.size() != args.size()) return cmd_study(rest);
  return answer(parse_solve(args, {}));
}

int Session::cmd_study(const std::vector<std::string>& args) {
  const auto cmd = parse_study(args, {});
  reject_offline_flags(cmd.opts);
  require_fleet();
  if (!generated_) throw ModelError("solve --study needs a gen-fleet fleet");
  svc::JsonlWriter rows(out_);
  svc::StudyAggregate agg;
  service_->solve(cmd.req, [&](const svc::SolveResult& r) {
    emit_study_trial(rows, r, cmd.req, agg);
  });
  // Shards emit rows only; the merged/unsharded report owns the summary.
  if (study_.shard.count == 1) rows.write(agg.summary_row());
  ok_line(0);
  return 0;
}

int Session::cmd_fault_sweep(const std::vector<std::string>& args) {
  auto cmd = parse_fault_sweep(args, {});
  if (generated_) cmd.req.search = generated_fleet_search();
  return answer(cmd);
}

int Session::cmd_status(const std::vector<std::string>& args) {
  bool with_memo = false;
  for (const std::string& a : args) {
    if (a == "--memo") {
      with_memo = true;
    } else {
      throw ModelError("usage: status [--memo]");
    }
  }
  svc::JsonRow row;
  row.field("kind", "status")
      .field("fleet", service_->size())
      .field("generated", generated_);
  if (generated_) {
    row.field("trials", study_.trials)
        .field("shard_index", study_.shard.index)
        .field("shard_count", study_.shard.count);
  }
  row.field("threads", par::thread_count())
      .field("max_line", max_line_);
  if (with_memo) {
    // Process-wide memo effectiveness (spec in tools/README.md): sessions
    // own private fleets but share the content-addressed answer cache, so
    // these counters tell an operator how much daemon traffic
    // deduplicates. Opt-in: the counters are cumulative across every
    // session of the process, so a plain `status` stays byte-stable for
    // the deterministic-transcript contracts (and pre-cache clients).
    const svc::MemoStats memo = svc::global_memo().stats();
    row.field("memo_enabled", memo.enabled)
        .field("memo_hits", memo.hits)
        .field("memo_misses", memo.misses)
        .field("memo_evictions", memo.evictions)
        .field("memo_entries", memo.entries)
        .field("memo_bytes", memo.bytes);
  }
  svc::JsonlWriter rows(out_);
  rows.write(row);
  ok_line(0, "fleet=" + std::to_string(service_->size()));
  return 0;
}

}  // namespace flexrt::net::proto

// flexbench_trace -- the benchmark's in-process helper.
//
//   flexbench_trace stamp
//       Prints the compiler and optimization level this binary (and so the
//       library it links) was built with.
//   flexbench_trace check STREAM
//       Self-test of a generated request stream: every `add` block parses,
//       each twin hashes equal to its original under rt canonicalization,
//       and no two fresh systems hash equal. Exit 0 when all hold.
//   flexbench_trace replay STREAM SECONDS ROWS_OUT SPANS_OUT
//       Replays the stream's ops through the library calls flexrtd makes
//       for them (net::proto::Session's command handlers, minus the
//       socket), one op after another, until SECONDS pass or the stream
//       ends. Each call is wrapped in a span; after each op the inner
//       layers of its requests are timed again by probe calls outside the
//       op. Writes each op's rows to ROWS_OUT (for the byte comparison
//       against the daemon), every span to SPANS_OUT, and one JSON line of
//       per-layer figures to stdout. The pool width comes from
//       FLEXRT_THREADS.
//
// STREAM holds the wire bytes of each op after a header line
// "#op <index> <kind> <twin-of index or ->".
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "io/task_io.hpp"
#include "rt/canonical.hpp"
#include "svc/analysis_service.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"
#include "svc/study_report.hpp"

using namespace flexrt;

namespace {

// --- the stream ---------------------------------------------------------------

struct Command {
  std::vector<std::string> tokens;
  std::string body;  ///< task lines of an `add` block
};

struct Op {
  std::size_t index = 0;
  long twin_of = -1;  ///< the original a twin copies; -1 otherwise
  std::vector<Command> commands;
};

std::vector<std::string> split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string t; in >> t;) out.push_back(t);
  return out;
}

std::vector<Op> read_stream(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open " + path);
  std::vector<Op> ops;
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> t = split(line);
    if (t.empty()) continue;
    if (t[0] == "#op") {
      if (t.size() != 4) throw Error("bad op header: " + line);
      Op op;
      op.index = std::stoul(t[1]);
      op.twin_of = t[3] == "-" ? -1 : std::stol(t[3]);
      ops.push_back(std::move(op));
      continue;
    }
    if (ops.empty()) throw Error("command before the first op header");
    Command c{t, {}};
    if (t[0] == "add") {
      while (std::getline(in, line) && line != ".") c.body += line + '\n';
    }
    ops.back().commands.push_back(std::move(c));
  }
  return ops;
}

rt::CanonicalSystem canonicalize(const core::ModeTaskSystem& sys) {
  rt::CanonicalBuilder b;
  for (const rt::Mode mode : core::kAllModes) {
    b.add_group(static_cast<std::uint64_t>(mode), sys.partitions(mode));
  }
  return b.finish();
}

int cmd_check(const std::string& path) {
  const std::vector<Op> ops = read_stream(path);
  std::map<std::size_t, rt::Hash128> hash_of;
  std::vector<std::pair<rt::Hash128, std::size_t>> fresh;
  std::size_t systems = 0;
  for (const Op& op : ops) {
    for (const Command& c : op.commands) {
      if (c.tokens[0] != "add") continue;
      ++systems;
      rt::Hash128 h;
      try {
        h = canonicalize(io::parse_mode_task_system_string(c.body).system).hash;
      } catch (const std::exception& e) {
        std::cout << "op " << op.index << " does not parse: " << e.what() << "\n";
        return 1;
      }
      hash_of[op.index] = h;
      if (op.twin_of >= 0) {
        const auto it = hash_of.find(static_cast<std::size_t>(op.twin_of));
        if (it == hash_of.end() || !(it->second == h)) {
          std::cout << "twin op " << op.index << " does not hash equal to op "
                    << op.twin_of << "\n";
          return 1;
        }
        continue;
      }
      for (const auto& [other, j] : fresh) {
        if (other == h) {
          std::cout << "fresh ops " << j << " and " << op.index
                    << " hash equal\n";
          return 1;
        }
      }
      fresh.emplace_back(h, op.index);
    }
  }
  std::cout << "ok " << systems << " systems\n";
  return 0;
}

// --- spans --------------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call: name, start, end, the span that caused it, the op.
struct Span {
  const char* name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  long op = -1;
};

/// Spans kept in memory, written out (as per-op sums) when the replay ends.
/// Open and close happen on whichever thread runs the wrapped call; the
/// calls the replay wraps never overlap (fleet sinks are serialized by the
/// ordered stream, gen factories run on the caller), so one stack serves.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  void set_op(long op) { op_ = op; }
  /// Adds a span timed elsewhere (a probe run on a pool worker).
  void record(const char* name, std::int64_t start, std::int64_t end) {
    spans_.push_back({name, start, end, -1, op_});
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

 private:
  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), op_});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  long op_ = -1;
};

double ms(const Span& s) { return static_cast<double>(s.end - s.start) / 1e6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- the replay -----------------------------------------------------------------

/// One entry's answer to one request: enough to re-run its inner layers.
struct Answer {
  std::size_t request = 0;   ///< request number within the op
  std::size_t width = 1;     ///< entries of the request that ran at once
  hier::Scheduler alg = hier::Scheduler::EDF;
  bool solve = false;        ///< solve request (else minq)
  bool study = false;        ///< study-mode solve (fleet grid)
  bool cache_hit = false;
  bool feasible = false;
  double period = 0.0;       ///< solved or requested period
  std::size_t entry = 0;
  std::optional<svc::MemoPayload> payload;  ///< for the memo insert probe
};

/// Per-op figures in milliseconds, keyed by layer.
using Layers = std::map<std::string, double>;

class Replay {
 public:
  explicit Replay(std::ofstream& rows_out) : rows_out_(rows_out) {}

  /// Runs one op under its root span, then probes its inner layers.
  void run(const Op& op) {
    tracer_.set_op(static_cast<long>(op.index));
    answers_.clear();
    bodies_.clear();
    requests_ = 0;
    const std::size_t first = tracer_.size();
    {
      Tracer::Scope root(tracer_, "op");
      for (const Command& c : op.commands) execute(c);
    }
    rows_out_ << "#op " << op.index << "\n" << rows_;
    rows_.clear();
    Layers l = account(first);
    probe(l);
    l["svc.add_self"] = l["svc.add"] - l["probe.add"];
    l["svc.solve_self"] = l["svc.solve"] - l["probe.solve"];
    per_op_.push_back(std::move(l));
  }

  void report(std::ostream& os, double loop16_us) const;

  /// Every span, one per line: op, name, start and end (ns), parent span
  /// (-1 for an op root or a probe).
  void write_spans(std::ostream& os) const {
    for (const Span& s : tracer_.spans()) {
      os << s.op << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
         << s.parent << '\n';
    }
  }

 private:
  void execute(const Command& c);
  Layers account(std::size_t first);
  void probe(Layers& l);

  svc::SolveRequest solve_request(bool study) const {
    svc::SolveRequest req{hier::Scheduler::EDF, {0.0, 0.0, 0.0},
                          core::DesignGoal::MinOverheadBandwidth, {},
                          svc::AccuracyPolicy::fixed(0)};
    if (study) {  // net::proto::Session::cmd_solve --study
      req.overheads = {0.05 / 3, 0.05 / 3, 0.05 / 3};
      req.search.grid_step = 5e-3;
      req.search.p_max = 10.0;
    }
    return req;
  }

  Answer& answer(const svc::ResultBase& r, hier::Scheduler alg) {
    Answer a;
    a.request = requests_;
    a.width = std::min(service_->size(), par::thread_count());
    a.alg = alg;
    a.entry = r.system;
    a.cache_hit = r.prov.cache_hit;
    answers_.push_back(std::move(a));
    return answers_.back();
  }

  void emit(const std::string& row) {
    Tracer::Scope s(tracer_, "svc.rows.write");
    rows_ += row;
    rows_ += '\n';
  }

  std::ofstream& rows_out_;
  Tracer tracer_;
  std::unique_ptr<svc::AnalysisService> service_ =
      std::make_unique<svc::AnalysisService>();
  core::StudyOptions study_{};
  std::string rows_;
  std::vector<Answer> answers_;
  std::size_t requests_ = 0;
  std::vector<std::string> bodies_;  ///< the op's add blocks
  svc::MemoCache probe_memo_;        ///< memo probes stay out of global_memo()

  std::vector<Layers> per_op_;
  std::vector<double> render_us_, lookup_us_, insert_us_, gen_us_;
  std::size_t trials_ = 0, pack_fails_ = 0, max_buffered_ = 0;
  std::size_t bad_spans_ = 0;
  std::atomic<std::size_t> bad_probes_{0};  ///< memo probe hit != cache_hit
};

void Replay::execute(const Command& c) {
  const std::string& cmd = c.tokens[0];
  if (cmd == "add") {
    bodies_.push_back(c.body);
    io::ParsedSystem parsed = [&] {
      Tracer::Scope s(tracer_, "io.parse");
      return io::parse_mode_task_system_string(c.body);
    }();
    Tracer::Scope s(tracer_, "svc.add");
    service_->add_system(std::move(parsed.system), c.tokens.at(1));
    return;
  }
  if (cmd == "gen-fleet") {
    core::StudyOptions study;
    study.trials = std::stoul(c.tokens.at(2));
    study.base_seed = std::stoull(c.tokens.at(4));
    Tracer::Scope s(tracer_, "svc.add");
    service_->add_fleet(study, [&](std::size_t, Rng& rng) {
      Tracer::Scope g(tracer_, "gen.trial");
      std::optional<core::ModeTaskSystem> sys = gen::study_system(rng);
      ++trials_;
      if (!sys) ++pack_fails_;
      return sys;
    });
    study_ = study;
    return;
  }
  if (cmd == "solve") {
    const bool study = c.tokens.size() > 1 && c.tokens[1] == "--study";
    const svc::SolveRequest req = solve_request(study);
    svc::StudyAggregate agg;
    svc::StreamStats st;
    {
      Tracer::Scope s(tracer_, "svc.solve");
      st = service_->solve(req, [&](const svc::SolveResult& r) {
        if (!r.ok() && !study) throw ModelError(r.error);
        std::string row;
        {
          Tracer::Scope rs(tracer_, "svc.rows.render");
          row = study ? svc::study_trial_row(r, req.alg, req.goal)
                      : svc::solve_row(r, req.alg, req.goal, false).str();
        }
        if (study) agg.add(row);
        emit(row);
        Answer& a = answer(r, req.alg);
        a.solve = true;
        a.study = study;
        a.feasible = r.ok() && r.feasible;
        a.period = a.feasible ? r.design.schedule.period : 0.0;
        if (r.ok() && !r.prov.cache_hit) a.payload = r;
      });
      if (study) {
        std::string row;
        {
          Tracer::Scope rs(tracer_, "svc.rows.render");
          row = agg.summary_row();
        }
        emit(row);
      }
    }
    ++requests_;
    max_buffered_ = std::max(max_buffered_, st.max_buffered);
    return;
  }
  if (cmd == "minq") {
    svc::MinQuantumRequest req{hier::Scheduler::EDF, 0.0, false,
                               svc::AccuracyPolicy::fixed(0)};
    for (std::size_t i = 1; i < c.tokens.size(); ++i) {
      if (c.tokens[i] == "--period") req.period = std::stod(c.tokens.at(++i));
      if (c.tokens[i] == "--alg" && c.tokens.at(++i) == "rm") {
        req.alg = hier::Scheduler::FP;
      }
    }
    svc::StreamStats st;
    {
      Tracer::Scope s(tracer_, "svc.solve");
      st = service_->min_quantum(req, [&](const svc::MinQuantumResult& r) {
        if (!r.ok()) throw ModelError(r.error);
        std::string row;
        {
          Tracer::Scope rs(tracer_, "svc.rows.render");
          row = svc::min_quantum_row(r, req.alg, req.period, false).str();
        }
        emit(row);
        Answer& a = answer(r, req.alg);
        a.feasible = true;
        a.period = req.period;
        if (!r.prov.cache_hit) a.payload = r;
      });
    }
    ++requests_;
    max_buffered_ = std::max(max_buffered_, st.max_buffered);
    return;
  }
  if (cmd == "drop") {
    Tracer::Scope s(tracer_, "svc.drop");
    service_ = std::make_unique<svc::AnalysisService>();
    return;
  }
  throw Error("replay: unsupported command " + cmd);
}

/// Folds the op's spans into per-layer self times: a span's duration less
/// its direct children's, summed by name. The op root's self time is
/// `other`. The self times sum to the op total by construction; what makes
/// each of them a share of the op is the nesting, which is checked: every
/// span lies inside its parent and siblings do not overlap. A span that
/// breaks it counts in bad_spans.
Layers Replay::account(std::size_t first) {
  const std::vector<Span>& sp = tracer_.spans();
  const int root = static_cast<int>(first);
  Layers l;
  std::map<int, std::int64_t> last_end;  ///< per parent: its last child's end
  std::map<int, double> children_ms;     ///< per parent: its children's time
  for (std::size_t i = first + 1; i < sp.size(); ++i) {
    const Span& s = sp[i];
    if (s.parent < root) {  // outside the op's tree
      ++bad_spans_;
      continue;
    }
    const Span& p = sp[static_cast<std::size_t>(s.parent)];
    if (s.end < s.start || s.start < p.start || s.end > p.end) ++bad_spans_;
    const auto prev = last_end.try_emplace(s.parent, p.start).first;
    if (s.start < prev->second) ++bad_spans_;
    prev->second = s.end;
    children_ms[s.parent] += ms(s);
    const std::string name = s.name;
    l[name] += ms(s);
    if (name == "gen.trial") gen_us_.push_back(ms(s) * 1e3);
    if (name == "svc.rows.render") render_us_.push_back(ms(s) * 1e3);
  }
  for (const auto& [parent, t] : children_ms) {
    if (parent != root) l[sp[static_cast<std::size_t>(parent)].name] -= t;
  }
  l["op"] = ms(sp[first]);
  l["other"] = l["op"] - children_ms[root];
  return l;
}

/// Re-runs, outside the op, the layers its requests passed through inside
/// svc.add and svc.solve, on a cold service over the same systems: the
/// canonical hash, the memo lookup/insert (on a private MemoCache), the
/// cold engine build (construction plus the first probe, which
/// materializes the partition contexts), the period search and a warm minQ
/// probe. A request's entries are probed as they ran: a fleet's in
/// parallel on the pool, a single entry on this thread. The probed time
/// inside svc.add and svc.solve goes to probe.add and probe.solve.
void Replay::probe(Layers& l) {
  svc::AnalysisService cold;
  for (const std::string& body : bodies_) {
    cold.add_system(io::parse_mode_task_system_string(body).system);
  }
  if (bodies_.empty()) {
    cold.add_fleet(study_, [](std::size_t, Rng& rng) {
      return gen::study_system(rng);
    });
  }
  for (std::size_t i = 0; i < cold.size(); ++i) {
    if (!cold.has_system(i)) continue;
    const std::int64_t t0 = now_ns();
    canonicalize(cold.system(i));
    tracer_.record("rt.canonical", t0, now_ns());
    const double t = ms(tracer_.spans().back());
    l["rt.canonical"] += t;
    l["probe.add"] += t;
  }

  std::vector<std::vector<Span>> times(answers_.size());
  const auto probe_one = [&](const Answer& a, std::vector<Span>& t) {
    if (!cold.has_system(a.entry)) return;
    const auto clock = [&t](const char* name, auto&& fn) {
      const std::int64_t t0 = now_ns();
      fn();
      t.push_back({name, t0, now_ns(), -1, -1});
    };
    // The private memo's key: the system's canonical content and scale,
    // the request's place in the op and its scheduler. A permuted twin
    // repeats its original's key and a scaled twin does not, as in svc; a
    // lookup whose hit disagrees with the request's cache_hit is counted.
    const rt::CanonicalSystem& canon = cold.canonical(a.entry);
    rt::HashStream h;
    h.u64(canon.hash.hi).u64(canon.hash.lo).f64(canon.scale);
    h.u64(a.request).u64(static_cast<std::uint64_t>(a.alg));
    const rt::Hash128 key = h.digest();
    bool hit = false;
    clock("svc.memo.lookup", [&] { hit = probe_memo_.lookup(key).has_value(); });
    if (hit != a.cache_hit) ++bad_probes_;
    if (!hit && a.payload) {
      svc::MemoValue v;
      v.payload = *a.payload;
      v.scale = canon.scale;
      clock("svc.memo.insert", [&] { probe_memo_.insert(key, std::move(v)); });
    }
    if (a.cache_hit) return;  // a hit built no engine and probed nothing
    const double p = a.period > 0.0 ? a.period : 1.0;
    std::shared_ptr<const analysis::BatchEngine> eng;
    const auto minq = [&] {
      for (const rt::Mode m : core::kAllModes) (void)eng->mode_min_quantum(m, p);
    };
    clock("core.engine_build", [&] {
      eng = cold.engine_ptr(a.entry, a.alg);
      minq();
    });
    clock("hier.minq", minq);
    if (a.solve) {
      const svc::SolveRequest req = solve_request(a.study);
      clock("core.max_feasible_period", [&] {
        try {
          (void)eng->max_feasible_period(req.overheads.total(), req.search);
        } catch (const InfeasibleError&) {
        }
      });
    }
  };
  for (std::size_t r = 0, i = 0; i < answers_.size(); ++r) {
    std::size_t end = i;
    while (end < answers_.size() && answers_[end].request == r) ++end;
    par::parallel_for(end - i, [&](std::size_t j) {
      probe_one(answers_[i + j], times[i + j]);
    });
    i = end;
  }

  // A request's inner layers cover 1/width of their summed time on the
  // op's critical path (width 1 for a single entry). The build's first
  // probe stands in for the request's own first probe (a minq request's
  // only one), so the warm re-probe (hier.minq) is not inner time.
  for (std::size_t i = 0; i < answers_.size(); ++i) {
    for (const Span& sp : times[i]) {
      tracer_.record(sp.name, sp.start, sp.end);
      const std::string name = sp.name;
      l[name] += ms(sp);
      if (name != "hier.minq") {
        l["probe.solve"] += ms(sp) / static_cast<double>(answers_[i].width);
      }
      if (name == "svc.memo.lookup") lookup_us_.push_back(ms(sp) * 1e3);
      if (name == "svc.memo.insert") insert_us_.push_back(ms(sp) * 1e3);
    }
  }
}

void Replay::report(std::ostream& os, double loop16_us) const {
  const auto col = [&](const char* name, bool only_present) {
    std::vector<double> v;
    for (const Layers& l : per_op_) {
      const auto it = l.find(name);
      if (it != l.end()) {
        v.push_back(it->second);
      } else if (!only_present) {
        v.push_back(0.0);
      }
    }
    return v;
  };
  const auto mean = [&](const char* name) {
    const std::vector<double> v = col(name, false);
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  // Probed inner time over the in-op self time it is taken from, median
  // over the ops that ran the span: above 1 the probes claim more work than
  // the span held.
  const auto probe_share = [&](const char* probe, const char* span) {
    std::vector<double> v;
    for (const Layers& l : per_op_) {
      const auto held = l.find(span);
      const auto got = l.find(probe);
      if (held == l.end() || held->second <= 0.0) continue;
      v.push_back((got == l.end() ? 0.0 : got->second) / held->second);
    }
    return median(v);
  };
  double other = 0.0, total = 0.0;
  for (const Layers& l : per_op_) {
    other += l.at("other");
    total += l.at("op");
  }
  const svc::MemoStats memo = svc::global_memo().stats();
  const double looks = static_cast<double>(memo.hits + memo.misses);
  char buf[4096];
  std::snprintf(
      buf, sizeof buf,
      "{\"ops\":%zu,\"op_ms\":%.6f,\"other_share\":%.6f,"
      "\"io.parse_ms\":%.6f,\"rt.canonical_us\":%.6f,"
      "\"core.engine_build_ms\":%.6f,\"hier.minq_us\":%.6f,"
      "\"core.max_feasible_period_ms\":%.6f,\"svc.solve_self_ms\":%.6f,"
      "\"svc.memo.lookup_us\":%.6f,\"svc.memo.insert_us\":%.6f,"
      "\"svc.memo.hit_ratio\":%.6f,\"memo_hits\":%llu,"
      "\"svc.rows.render_us\":%.6f,\"svc.stream.max_buffered\":%zu,"
      "\"par.loop16_us\":%.6f,\"gen.trial_us\":%.6f,"
      "\"part.pack_fail_ratio\":%.6f,\"bad_spans\":%zu,"
      "\"bad_probes\":%zu,\"probe_share\":{\"svc.add\":%.6f,"
      "\"svc.solve\":%.6f},\"threads\":%zu,"
      "\"mean_self_ms\":{\"io.parse\":%.6f,\"svc.add\":%.6f,"
      "\"gen.trial\":%.6f,\"rt.canonical\":%.6f,\"svc.memo\":%.6f,"
      "\"core.engine_build\":%.6f,\"core.max_feasible_period\":%.6f,"
      "\"hier.minq\":%.6f,\"svc.rows\":%.6f,\"svc.solve\":%.6f,"
      "\"svc.drop\":%.6f,\"other\":%.6f,\"op\":%.6f}}\n",
      per_op_.size(), median(col("op", false)), total > 0 ? other / total : 0.0,
      median(col("io.parse", true)), median(col("rt.canonical", true)) * 1e3,
      median(col("core.engine_build", true)), median(col("hier.minq", true)) * 1e3,
      median(col("core.max_feasible_period", true)),
      median(col("svc.solve_self", false)), median(lookup_us_),
      median(insert_us_), looks > 0 ? static_cast<double>(memo.hits) / looks : 0.0,
      static_cast<unsigned long long>(memo.hits), median(render_us_),
      max_buffered_, loop16_us, median(gen_us_),
      trials_ ? static_cast<double>(pack_fails_) / static_cast<double>(trials_)
              : 0.0,
      bad_spans_, bad_probes_.load(), probe_share("probe.add", "svc.add"),
      probe_share("probe.solve", "svc.solve"), par::thread_count(),
      mean("io.parse"),
      mean("svc.add_self"), mean("gen.trial"), mean("rt.canonical"),
      mean("svc.memo.lookup") + mean("svc.memo.insert"),
      mean("core.engine_build"), mean("core.max_feasible_period"),
      mean("hier.minq"), mean("svc.rows.render") + mean("svc.rows.write"),
      mean("svc.solve_self"), mean("svc.drop"), mean("other"), mean("op"));
  os << buf;
}

/// par::parallel_for over 16 empty iterations at the process's pool width:
/// the per-loop wake/join cost every engine loop pays.
double loop16_us() {
  std::vector<double> v;
  for (int rep = 0; rep < 2000; ++rep) {
    const std::int64_t t0 = now_ns();
    par::parallel_for(16, [](std::size_t) {});
    v.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(v);
}

int cmd_replay(const std::string& stream, double seconds,
               const std::string& rows_path, const std::string& spans_path) {
  const std::vector<Op> ops = read_stream(stream);
  std::ofstream rows_out(rows_path);
  if (!rows_out) throw Error("cannot write " + rows_path);
  const double loop_us = loop16_us();
  Replay replay(rows_out);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (const Op& op : ops) {
    if (now_ns() >= deadline) break;
    replay.run(op);
  }
  rows_out.flush();
  if (!rows_out) throw Error("write to " + rows_path + " failed");
  std::ofstream spans_out(spans_path);
  replay.write_spans(spans_out);
  spans_out.flush();
  if (!spans_out) throw Error("write to " + spans_path + " failed");
  replay.report(std::cout, loop_us);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "stamp") {
#ifdef __clang__
      const char* cc = "clang++ ";
#else
      const char* cc = "g++ ";
#endif
#ifdef __OPTIMIZE__
      const char* opt = "optimized";
#else
      const char* opt = "unoptimized";
#endif
      std::cout << cc << __VERSION__ << " (" << opt << ")\n";
      return 0;
    }
    if (args.size() == 2 && args[0] == "check") return cmd_check(args[1]);
    if (args.size() == 5 && args[0] == "replay") {
      return cmd_replay(args[1], std::stod(args[2]), args[3], args[4]);
    }
  } catch (const std::exception& e) {
    std::cerr << "flexbench_trace: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "usage: flexbench_trace stamp | check STREAM | "
               "replay STREAM SECONDS ROWS_OUT SPANS_OUT\n";
  return 2;
}

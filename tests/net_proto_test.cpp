// The flexrtd wire protocol, driven over plain stringstreams: data rows
// are byte-identical to the direct svc render (the offline --jsonl
// --no-wall report), the study path reproduces the offline study report,
// hostile input (unknown commands, malformed flags, truncated add blocks,
// oversized lines) turns into `error` status lines without killing the
// session, and the framing helpers (read_line, parse_status_line) honor
// their caps and grammar exactly.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "io/task_io.hpp"
#include "net/proto.hpp"
#include "svc/analysis_service.hpp"
#include "svc/jsonl.hpp"
#include "svc/memo_cache.hpp"
#include "svc/rows.hpp"
#include "svc/study_report.hpp"

namespace flexrt::net::proto {
namespace {

using hier::Scheduler;

/// The paper's Table-1 application in task-file form -- the same text as
/// examples/paper_example.txt, embedded so the test needs no file paths.
constexpr const char* kPaperTasks =
    "tau1   1  6  NF 0\n"
    "tau2   1  8  NF 1\n"
    "tau3   1 12  NF 1\n"
    "tau4   2 10  NF 2\n"
    "tau5   6 24  NF 3\n"
    "tau6   1 10  FS 0\n"
    "tau7   1 15  FS 0\n"
    "tau8   2 20  FS 0\n"
    "tau9   1  4  FS 1\n"
    "tau10  1 12  FT 0\n"
    "tau11  1 15  FT 0\n"
    "tau12  1 20  FT 0\n"
    "tau13  2 30  FT 0\n";

/// `add <name>` block for kPaperTasks.
std::string add_block(const std::string& name) {
  return "add " + name + "\n" + kPaperTasks + ".\n";
}

struct SessionOutput {
  std::string bytes;  ///< everything the session wrote
  int rc = 0;         ///< Session::run's return (max per-command rc)
};

/// Runs one scripted session over stringstreams -- the transport the unit
/// tests substitute for the daemon's socket streams.
SessionOutput run_script(const std::string& script,
                         std::size_t max_line = kMaxLineBytes) {
  std::istringstream in(script);
  std::ostringstream out;
  Session session(out, max_line);
  const int rc = session.run(in);
  return {out.str(), rc};
}

std::vector<std::string> lines_of(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The JSONL data rows of a session transcript (status lines stripped).
std::string data_rows(const std::string& bytes) {
  std::string rows;
  for (const std::string& line : lines_of(bytes)) {
    if (!line.empty() && line[0] == '{') {
      rows += line;
      rows += '\n';
    }
  }
  return rows;
}

/// The parsed status lines of a session transcript, in order.
std::vector<WireStatus> statuses(const std::string& bytes) {
  std::vector<WireStatus> out;
  for (const std::string& line : lines_of(bytes)) {
    if (const auto st = parse_status_line(line)) out.push_back(*st);
  }
  return out;
}

void add_paper_system(svc::AnalysisService& service,
                      const std::string& name) {
  io::ParsedSystem parsed = io::parse_mode_task_system_string(kPaperTasks);
  service.add_system(std::move(parsed.system), name);
}

// --- framing helpers ------------------------------------------------------

TEST(NetProtoFraming, ReadLineSplitsStripsAndTerminates) {
  std::istringstream in("first\r\nsecond\nunterminated tail");
  bool truncated = true;
  EXPECT_EQ(read_line(in, 64, &truncated), "first");  // CR stripped
  EXPECT_FALSE(truncated);
  EXPECT_EQ(read_line(in, 64, &truncated), "second");
  // stdin-style tolerance: a final line without '\n' is still a line.
  EXPECT_EQ(read_line(in, 64, &truncated), "unterminated tail");
  EXPECT_EQ(read_line(in, 64, &truncated), std::nullopt);
}

TEST(NetProtoFraming, ReadLineConsumesOversizedLinesWithoutStoringThem) {
  const std::string huge(100, 'x');
  std::istringstream in(huge + "\nnext\n");
  bool truncated = false;
  const auto first = read_line(in, 16, &truncated);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(truncated);
  EXPECT_EQ(first->size(), 16u) << "bytes past the cap must be dropped";
  // Framing survives: the next line comes through whole and untruncated.
  EXPECT_EQ(read_line(in, 16, &truncated), "next");
  EXPECT_FALSE(truncated);
}

TEST(NetProtoFraming, ParseStatusLineGrammar) {
  const auto ok = parse_status_line("ok rc=0 fleet=3");
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(ok->failed);
  EXPECT_EQ(ok->rc, 0);

  const auto rc3 = parse_status_line("ok rc=3");
  ASSERT_TRUE(rc3.has_value());
  EXPECT_EQ(rc3->rc, 3);

  const auto err = parse_status_line("error boom: bad flag");
  ASSERT_TRUE(err.has_value());
  EXPECT_TRUE(err->failed);
  EXPECT_EQ(err->rc, 2);
  EXPECT_EQ(err->message, "boom: bad flag");

  // Data rows and near-misses are not status lines.
  EXPECT_EQ(parse_status_line("{\"kind\":\"solve\"}"), std::nullopt);
  EXPECT_EQ(parse_status_line("okay rc=0"), std::nullopt);
  EXPECT_EQ(parse_status_line("ok rc=x"), std::nullopt);
  EXPECT_EQ(parse_status_line("errors ahead"), std::nullopt);
}

// --- data-row byte parity -------------------------------------------------

TEST(NetProto, SolveRowsMatchDirectSvcRender) {
  const SessionOutput got = run_script(add_block("sys0") + "solve\nquit\n");
  EXPECT_EQ(got.rc, 0);

  svc::AnalysisService service;
  add_paper_system(service, "sys0");
  std::ostringstream os;
  svc::JsonlWriter out(os);
  const svc::SolveRequest req{Scheduler::EDF,
                              {0.0, 0.0, 0.0},
                              core::DesignGoal::MinOverheadBandwidth,
                              {},
                              svc::AccuracyPolicy::fixed(0)};
  service.solve(req, [&](const svc::SolveResult& r) {
    ASSERT_TRUE(r.ok());
    out.write(svc::solve_row(r, req.alg, req.goal, /*with_wall=*/false));
  });

  EXPECT_EQ(data_rows(got.bytes), os.str());
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 3u);  // add, solve, quit
  for (const WireStatus& s : st) {
    EXPECT_FALSE(s.failed);
    EXPECT_EQ(s.rc, 0);
  }
}

TEST(NetProto, MinqAndVerifyRowsMatchDirectSvcRender) {
  const SessionOutput got = run_script(
      add_block("sys0") +
      "minq --period 1\n"
      "verify --period 1 --quanta 0.25,0.3,0.25\n"
      "quit\n");
  EXPECT_EQ(got.rc, 1) << "the tight schedule is unschedulable -> rc 1";

  svc::AnalysisService service;
  add_paper_system(service, "sys0");
  std::ostringstream os;
  svc::JsonlWriter out(os);
  const svc::AccuracyPolicy accuracy = svc::AccuracyPolicy::fixed(0);
  service.min_quantum({Scheduler::EDF, 1.0, false, accuracy},
                      [&](const svc::MinQuantumResult& r) {
                        ASSERT_TRUE(r.ok());
                        out.write(svc::min_quantum_row(r, Scheduler::EDF, 1.0,
                                                       /*with_wall=*/false));
                      });
  core::ModeSchedule schedule;
  schedule.period = 1.0;
  schedule.ft = {0.25, 0.0};
  schedule.fs = {0.3, 0.0};
  schedule.nf = {0.25, 0.0};
  service.verify({Scheduler::EDF, schedule, false, accuracy},
                 [&](const svc::VerifyResult& r) {
                   ASSERT_TRUE(r.ok());
                   out.write(svc::verify_row(r, Scheduler::EDF, 1.0,
                                             /*with_wall=*/false));
                 });

  EXPECT_EQ(data_rows(got.bytes), os.str());
}

TEST(NetProto, SweepRowsMatchDirectSvcRender) {
  const SessionOutput got = run_script(
      add_block("sys0") + "sweep --p-min 0.5 --p-max 1.0 --step 0.25\nquit\n");
  EXPECT_EQ(got.rc, 0);

  svc::AnalysisService service;
  add_paper_system(service, "sys0");
  std::ostringstream os;
  svc::JsonlWriter out(os);
  core::SearchOptions search;
  search.p_min = 0.5;
  search.p_max = 1.0;
  search.grid_step = 0.25;
  service.region_sweep(
      {Scheduler::EDF, search, svc::AccuracyPolicy::fixed(0)},
      [&](const svc::RegionSweepResult& r) {
        ASSERT_TRUE(r.ok());
        for (const core::RegionSample& s : r.samples) {
          out.write(svc::sweep_sample_row(r, Scheduler::EDF, s));
        }
        out.write(svc::sweep_summary_row(r, Scheduler::EDF,
                                         /*with_wall=*/false));
      });

  EXPECT_EQ(data_rows(got.bytes), os.str());
}

TEST(NetProto, GenFleetStudyMatchesOfflineStudyReport) {
  const SessionOutput got =
      run_script("gen-fleet --trials 4 --seed 7\nsolve --study\nquit\n");
  EXPECT_EQ(got.rc, 0);

  // The offline `study` subcommand's exact pipeline: generated fleet,
  // paper overheads split evenly, the study search grid, trial rows plus
  // the aggregate summary.
  core::StudyOptions study;
  study.trials = 4;
  study.base_seed = 7;
  svc::AnalysisService service;
  service.add_fleet(study,
                    [](std::size_t, Rng& rng) { return gen::study_system(rng); });
  core::SearchOptions search;
  search.grid_step = 5e-3;
  search.p_max = 10.0;
  const svc::SolveRequest req{Scheduler::EDF,
                              {0.05 / 3, 0.05 / 3, 0.05 / 3},
                              core::DesignGoal::MinOverheadBandwidth,
                              search,
                              svc::AccuracyPolicy::fixed(0)};
  std::ostringstream os;
  svc::JsonlWriter out(os);
  svc::StudyAggregate agg;
  service.solve(req, [&](const svc::SolveResult& r) {
    const std::string row = svc::study_trial_row(r, req.alg, req.goal);
    out.write(row);
    agg.add(row);
  });
  out.write(agg.summary_row());

  EXPECT_EQ(data_rows(got.bytes), os.str());
}

TEST(NetProto, ShardedStudyEmitsRowsOnlyAndShardsPartitionTheFleet) {
  const SessionOutput whole =
      run_script("gen-fleet --trials 4 --seed 7\nsolve --study\nquit\n");
  std::string sharded;
  for (const char* shard : {"1/2", "2/2"}) {
    const SessionOutput part = run_script(
        std::string("gen-fleet --trials 4 --seed 7 --shard ") + shard +
        "\nsolve --study\nquit\n");
    EXPECT_EQ(part.rc, 0);
    const std::string rows = data_rows(part.bytes);
    EXPECT_EQ(rows.find("\"kind\":\"study_summary\""), std::string::npos)
        << "shards must not emit the fleet-level summary";
    sharded += rows;
  }
  // The concatenated shard rows are exactly the unsharded trial rows.
  std::string whole_trials;
  for (const std::string& line : lines_of(data_rows(whole.bytes))) {
    if (line.find("\"kind\":\"study_trial\"") != std::string::npos) {
      whole_trials += line;
      whole_trials += '\n';
    }
  }
  EXPECT_EQ(sharded, whole_trials);
}

// --- wire-only surface ----------------------------------------------------

TEST(NetProto, OfflineOutputFlagsAreAcceptedAsNoOps) {
  const SessionOutput plain = run_script(add_block("s") + "solve\nquit\n");
  const SessionOutput flagged = run_script(
      add_block("s") + "solve --jsonl --stream --no-wall\nquit\n");
  EXPECT_EQ(flagged.rc, 0);
  EXPECT_EQ(data_rows(flagged.bytes), data_rows(plain.bytes))
      << "--jsonl/--stream/--no-wall describe what the wire always does";
}

TEST(NetProto, StatusAndDropManageTheFleet) {
  const SessionOutput got = run_script(add_block("a") + add_block("b") +
                                       "status\ndrop\nstatus\nquit\n");
  EXPECT_EQ(got.rc, 0);
  const std::string rows = data_rows(got.bytes);
  EXPECT_NE(rows.find("\"fleet\":2"), std::string::npos);
  EXPECT_NE(rows.find("\"fleet\":0"), std::string::npos);
  EXPECT_NE(rows.find("\"generated\":false"), std::string::npos);
  // gen-fleet works again after drop: the fleet really was reset.
  const SessionOutput regen = run_script(
      add_block("a") + "drop\ngen-fleet --trials 2\nstatus\nquit\n");
  EXPECT_EQ(regen.rc, 0);
  EXPECT_NE(data_rows(regen.bytes).find("\"generated\":true"),
            std::string::npos);
}

TEST(NetProto, StatusMemoRendersTheCacheCounters) {
  // Plain status stays byte-stable (no memo fields: the counters are
  // process-wide and would differ between otherwise identical sessions);
  // status --memo opts into the six memo_* fields.
  const SessionOutput plain = run_script("status\nquit\n");
  EXPECT_EQ(plain.rc, 0);
  EXPECT_EQ(data_rows(plain.bytes).find("memo_"), std::string::npos);

  const SessionOutput memo = run_script("status --memo\nquit\n");
  EXPECT_EQ(memo.rc, 0);
  const std::string rows = data_rows(memo.bytes);
  for (const char* field :
       {"\"memo_enabled\":", "\"memo_hits\":", "\"memo_misses\":",
        "\"memo_evictions\":", "\"memo_entries\":", "\"memo_bytes\":"}) {
    EXPECT_NE(rows.find(field), std::string::npos) << field;
  }
}

TEST(NetProto, StatusMemoCountsASolveAndItsRepeat) {
  svc::global_memo().set_enabled(true);
  svc::global_memo().clear();
  // Two identical solves in one session: the second is a memo hit, and
  // status --memo shows at least one hit and one insertion's worth of
  // bytes. (Counters are >=, not ==: the memo is process-wide.)
  const SessionOutput got = run_script(add_block("s") +
                                       "solve\nsolve\nstatus --memo\nquit\n");
  EXPECT_EQ(got.rc, 0);
  const std::string rows = data_rows(got.bytes);
  EXPECT_NE(rows.find("\"memo_enabled\":true"), std::string::npos);
  EXPECT_EQ(rows.find("\"memo_hits\":0,"), std::string::npos)
      << "the repeated solve must have hit";
  EXPECT_EQ(rows.find("\"memo_bytes\":0}"), std::string::npos);
  svc::global_memo().clear();
}

TEST(NetProto, StatusRejectsUnknownFlags) {
  const SessionOutput got = run_script("status --bogus\nquit\n");
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_GE(st.size(), 1u);
  EXPECT_TRUE(st[0].failed);
  EXPECT_NE(st[0].message.find("status"), std::string::npos);
}

// --- hostile input --------------------------------------------------------

TEST(NetProto, HostileCommandsErrorWithoutKillingTheSession) {
  const std::vector<std::string> bad = {
      "frobnicate",                  // unknown command
      "solve",                       // empty fleet
      "solve --budget xyz",          // malformed value
      "solve --wat",                 // unknown flag
      "solve tasks.txt",             // bare token: no file paths on the wire
      "solve --csv",                 // offline-only output format
      "sweep --output f.jsonl",      // offline-only journal flag
      "solve --study",               // study needs a generated fleet
      "minq --period 0",             // domain validation
      "verify --period 1",           // missing --quanta
      "gen-fleet --shard 0/2",       // malformed shard spec (1-based)
  };
  std::string script;
  for (const std::string& cmd : bad) script += cmd + "\n";
  script += add_block("sys0") + "solve\nquit\n";

  const SessionOutput got = run_script(script);
  EXPECT_EQ(got.rc, 2) << "errors dominate the session rc";
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), bad.size() + 3);  // errors + add + solve + quit
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_TRUE(st[i].failed) << "'" << bad[i] << "' must fail";
    EXPECT_FALSE(st[i].message.empty());
  }
  // The session survived it all: the trailing solve still streams rows.
  EXPECT_FALSE(st[bad.size()].failed);
  EXPECT_NE(data_rows(got.bytes).find("\"kind\":\"solve\""),
            std::string::npos);
}

TEST(NetProto, GenFleetRefusesToMixWithAddedSystems) {
  const SessionOutput got =
      run_script(add_block("sys0") + "gen-fleet --trials 2\nquit\n");
  EXPECT_EQ(got.rc, 2);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 3u);
  EXPECT_TRUE(st[1].failed);
  EXPECT_NE(st[1].message.find("drop"), std::string::npos);
}

TEST(NetProto, AddWithoutTerminatorErrors) {
  // Stream ends mid-block: no terminating '.', so the add must fail --
  // and never hang waiting for more input.
  const SessionOutput got = run_script("add broken\ntau1 1 6 NF 0\n");
  EXPECT_EQ(got.rc, 2);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_TRUE(st[0].failed);
  EXPECT_NE(st[0].message.find("terminating"), std::string::npos);
}

TEST(NetProto, AddWithUnparsableTasksErrors) {
  const SessionOutput got =
      run_script("add junk\nthis is not a task line\n.\nstatus\nquit\n");
  EXPECT_EQ(got.rc, 2);
  // The failed add leaves the fleet empty and the session alive.
  EXPECT_NE(data_rows(got.bytes).find("\"fleet\":0"), std::string::npos);
}

TEST(NetProto, OversizedLinesAreRejectedButFramingSurvives) {
  const std::string huge(200, 'x');
  const SessionOutput got =
      run_script(huge + "\nstatus\nquit\n", /*max_line=*/64);
  EXPECT_EQ(got.rc, 2);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 3u);
  EXPECT_TRUE(st[0].failed);
  EXPECT_NE(st[0].message.find("exceeds"), std::string::npos);
  EXPECT_FALSE(st[1].failed) << "status must work after the oversized line";
  EXPECT_FALSE(st[2].failed);
}

TEST(NetProto, BlankLinesAreKeepAliveNoOps) {
  const SessionOutput got = run_script("\n\n   \nstatus\nquit\n");
  EXPECT_EQ(got.rc, 0);
  EXPECT_EQ(statuses(got.bytes).size(), 2u) << "blank lines emit nothing";
}

// --- the shared command parsers ------------------------------------------

TEST(NetProtoParse, OfflineFrontCollectsFilesAndTheWireRejectsThem) {
  std::vector<std::string> files;
  const auto offline = parse_solve({"a.txt", "--alg", "rm", "b.txt"},
                                   {.files = &files});
  EXPECT_EQ(files, (std::vector<std::string>{"a.txt", "b.txt"}));
  EXPECT_EQ(offline.req.alg, Scheduler::FP);

  try {
    parse_solve({"a.txt"}, {});
    FAIL() << "the wire must reject a positional token";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected argument 'a.txt'"),
              std::string::npos)
        << e.what();
  }
}

TEST(NetProtoParse, ValuedFrontEndFlagIsOneFlagAndItsValue) {
  // `solve f --simulate 100`: the hook takes --simulate with its value, so
  // "100" is never mistaken for a task file.
  std::vector<std::string> files;
  std::string simulate;
  Front front{.files = &files};
  front.hook = [&](int argc, char** argv, int& i) {
    if (std::string(argv[i]) != "--simulate") return false;
    simulate = flag_value(argc, argv, i);
    return true;
  };
  parse_solve({"f.txt", "--simulate", "100", "--jsonl"}, front);
  EXPECT_EQ(files, std::vector<std::string>{"f.txt"});
  EXPECT_EQ(simulate, "100");

  // Without the hook (`remote`) the flag fails, named, before any file
  // could be misread.
  std::vector<std::string> remote_files, wire;
  try {
    parse_solve({"f.txt", "--simulate", "100"},
                {.files = &remote_files, .wire = &wire});
    FAIL() << "--simulate has no wire twin";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("--simulate"), std::string::npos)
        << e.what();
  }
}

TEST(NetProtoParse, RemoteSplitSeparatesStudyFlagsFilesAndWireTokens) {
  core::StudyOptions study;
  study.trials = 0;
  std::vector<std::string> files, wire;
  parse_verify({"f.txt", "--period", "1", "--trials", "4", "--quanta",
                "0.2,0.3,0.2", "--no-wall"},
               {.files = &files, .gen = &study, .wire = &wire});
  EXPECT_EQ(files, std::vector<std::string>{"f.txt"});
  EXPECT_EQ(study.trials, 4u);
  EXPECT_EQ(wire, (std::vector<std::string>{"--period", "1", "--quanta",
                                            "0.2,0.3,0.2", "--no-wall"}));
  // The wire lends no study options: --trials is an unknown flag there.
  EXPECT_THROW(parse_verify({"--trials", "4"}, {}), ModelError);
}

TEST(NetProtoParse, CommandDefaultsAreThePublishedOnes) {
  const core::Overheads split{0.05 / 3, 0.05 / 3, 0.05 / 3};
  const auto same_overheads = [](const core::Overheads& a,
                                 const core::Overheads& b) {
    return a.ft == b.ft && a.fs == b.fs && a.nf == b.nf;
  };

  const auto sweep = parse_sweep({}, {});
  EXPECT_EQ(sweep.req.search.p_min, 0.05);
  EXPECT_EQ(sweep.req.search.p_max, 3.5);
  EXPECT_EQ(sweep.req.search.grid_step, 0.05);

  const core::SearchOptions generated = generated_fleet_search();
  EXPECT_EQ(generated.grid_step, 5e-3);
  EXPECT_EQ(generated.p_max, 10.0);

  const auto study = parse_study({}, {});
  EXPECT_TRUE(same_overheads(study.req.overheads, split));
  EXPECT_EQ(study.req.search.grid_step, generated.grid_step);
  EXPECT_EQ(study.req.search.p_max, generated.p_max);

  const auto fault = parse_fault_sweep({}, {});
  EXPECT_EQ(fault.req.rates, (std::vector<double>{0.0, 1e-3, 1e-2, 0.1, 1.0}));
  EXPECT_TRUE(same_overheads(fault.req.overheads, split));
  EXPECT_EQ(fault.req.search.p_max, core::SearchOptions{}.p_max)
      << "task-file fault-sweeps keep the default search";

  const auto solve = parse_solve({}, {});
  EXPECT_TRUE(same_overheads(solve.req.overheads, {0.0, 0.0, 0.0}));
}

TEST(NetProtoParse, MalformedFlagsThrowNamingTheFlag) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--alg", "xyz"},
                                             {"--budget", "64k"},
                                             {"--overhead", "1,2"},
                                             {"--deadline"}}) {
    try {
      parse_solve(args, {});
      FAIL() << args[0] << " must be rejected";
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find(args[0]), std::string::npos)
          << e.what();
    }
  }
}

TEST(NetProto, VerifyUnschedulableIsRcOneNotError) {
  const SessionOutput got = run_script(
      add_block("sys0") +
      "verify --period 1 --quanta 0.01,0.01,0.01\nquit\n");
  EXPECT_EQ(got.rc, 1);
  const std::vector<WireStatus> st = statuses(got.bytes);
  ASSERT_EQ(st.size(), 3u);
  EXPECT_FALSE(st[1].failed) << "unschedulable is a verdict, not an error";
  EXPECT_EQ(st[1].rc, 1);
}

}  // namespace
}  // namespace flexrt::net::proto

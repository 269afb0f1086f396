// The process-wide content-addressed answer memo (svc::MemoCache): the
// differential harness at the heart of the cache's correctness claim --
// memoized answers must be *bit-identical* to cold recomputation, across
// shuffled request orders and both schedulers, in struct fields and in the
// rendered wall-free JSONL rows -- plus counter accounting, LRU eviction
// under a tiny byte budget, cross-scale rescaling, first-writer-wins
// inserts, and the --no-memo kill switch. The same binary reruns in CI
// under FLEXRT_THREADS in {1, 4, 16}: the memo must be order- and
// thread-count-indifferent because the pool executes fleet entries in
// nondeterministic order.
#include "svc/memo_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/paper_example.hpp"
#include "core/study_runner.hpp"
#include "gen/taskset_gen.hpp"
#include "rt/task.hpp"
#include "rt/task_set.hpp"
#include "svc/analysis_service.hpp"
#include "svc/rows.hpp"

namespace flexrt::svc {
namespace {

using hier::Scheduler;

/// Every test runs against the real process-wide cache, so each one starts
/// from a clean, default-configured memo and leaves it that way (other
/// suites in this binary share the instance).
class MemoCacheTest : public ::testing::Test {
 protected:
  MemoCacheTest() { reset(); }
  ~MemoCacheTest() override { reset(); }

  static void reset() {
    MemoCache& m = global_memo();
    m.set_enabled(true);
    m.set_capacity_bytes(MemoCache::kDefaultCapacityBytes);
    m.clear();
  }
};

core::ModeTaskSystem scaled_paper(double k) {
  const core::ModeTaskSystem& base = core::paper_example();
  std::array<std::vector<rt::TaskSet>, 3> parts;
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    for (const rt::TaskSet& channel : base.partitions(core::kAllModes[m])) {
      std::vector<rt::Task> tasks;
      for (const rt::Task& t : channel) {
        tasks.push_back(rt::make_task(t.name, t.wcet * k, t.period * k,
                                      t.deadline * k, t.mode));
      }
      parts[m].emplace_back(std::move(tasks));
    }
  }
  return core::ModeTaskSystem(std::move(parts[0]), std::move(parts[1]),
                              std::move(parts[2]));
}

void fill_fleet(AnalysisService& service, std::size_t trials) {
  core::StudyOptions study;
  study.trials = trials;
  service.add_fleet(study, [](std::size_t, Rng& rng) {
    return gen::study_system(rng);
  });
}

// --- the differential harness -------------------------------------------

// Cold reference (memo off) vs a memo-populating pass vs an all-hits pass,
// over a generated fleet, per-entry in a shuffled order, both schedulers.
// Struct fields and rendered wall-free rows must match byte-for-byte.
TEST_F(MemoCacheTest, MemoizedAnswersAreBitIdenticalToCold) {
  const std::size_t kTrials = 24;
  AnalysisService service;
  fill_fleet(service, kTrials);
  std::vector<std::size_t> order(service.size());
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle_rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        shuffle_rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }

  for (const Scheduler alg : {Scheduler::EDF, Scheduler::FP}) {
    const MinQuantumRequest mq{alg, 1.0, false, {}};
    const SolveRequest sv{alg, {0.01, 0.01, 0.01},
                          core::DesignGoal::MinOverheadBandwidth, {}, {}};

    global_memo().set_enabled(false);
    std::vector<MinQuantumResult> cold_mq;
    std::vector<SolveResult> cold_sv;
    for (std::size_t i = 0; i < service.size(); ++i) {
      cold_mq.push_back(service.run_one(i, mq));
      cold_sv.push_back(service.run_one(i, sv));
    }

    global_memo().set_enabled(true);
    global_memo().clear();
    // Two warm passes in shuffled order: the first populates (misses),
    // the second must be pure hits. Both must reproduce cold bits.
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::size_t i : order) {
        const MinQuantumResult m = service.run_one(i, mq);
        const SolveResult s = service.run_one(i, sv);
        ASSERT_EQ(m.ok(), cold_mq[i].ok());
        EXPECT_EQ(m.name, cold_mq[i].name);
        EXPECT_EQ(m.mode_quantum, cold_mq[i].mode_quantum);
        EXPECT_EQ(m.margin, cold_mq[i].margin);
        EXPECT_EQ(m.prov.budget, cold_mq[i].prov.budget);
        EXPECT_EQ(m.prov.gap, cold_mq[i].prov.gap);
        EXPECT_EQ(min_quantum_row(m, alg, mq.period, false).str(),
                  min_quantum_row(cold_mq[i], alg, mq.period, false).str());
        ASSERT_EQ(s.ok(), cold_sv[i].ok());
        EXPECT_EQ(solve_row(s, alg, sv.goal, false).str(),
                  solve_row(cold_sv[i], alg, sv.goal, false).str());
      }
      const MemoStats st = global_memo().stats();
      if (pass == 1) {
        EXPECT_GE(st.hits, 2 * service.size()) << "warm pass must be hits";
      }
    }
  }
}

TEST_F(MemoCacheTest, VerifyIsMemoizedBitIdentically) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const SolveResult base = service.run_one(
      0, SolveRequest{Scheduler::EDF, {0.01, 0.01, 0.01},
          core::DesignGoal::MinOverheadBandwidth, {}, {}});
  ASSERT_TRUE(base.ok());
  const VerifyRequest vr{Scheduler::EDF, base.design.schedule, false, {}};

  global_memo().set_enabled(false);
  const VerifyResult cold = service.run_one(0, vr);
  global_memo().set_enabled(true);
  global_memo().clear();
  const VerifyResult warm1 = service.run_one(0, vr);
  const VerifyResult warm2 = service.run_one(0, vr);
  for (const VerifyResult* r : {&warm1, &warm2}) {
    EXPECT_EQ(r->schedulable, cold.schedulable);
    EXPECT_EQ(r->prov.gap, cold.prov.gap);
    EXPECT_EQ(
        verify_row(*r, vr.alg, vr.schedule.period, false).str(),
        verify_row(cold, vr.alg, vr.schedule.period, false).str());
  }
  EXPECT_FALSE(warm1.prov.cache_hit);
  EXPECT_TRUE(warm2.prov.cache_hit);
  EXPECT_EQ(global_memo().stats().hits, 1u);
}

// --- counters, identity, provenance -------------------------------------

TEST_F(MemoCacheTest, StatsCountMissThenInsertThenHit) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};
  (void)service.run_one(0, req);
  MemoStats st = global_memo().stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
  (void)service.run_one(0, req);
  st = global_memo().stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
}

TEST_F(MemoCacheTest, HitCarriesTheConsumersIdentityNotTheProducers) {
  AnalysisService service;
  service.add_system(core::paper_example(), "first");
  service.add_system(core::paper_example(), "second");
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};
  const MinQuantumResult producer = service.run_one(0, req);
  const MinQuantumResult consumer = service.run_one(1, req);
  EXPECT_EQ(global_memo().stats().hits, 1u);
  EXPECT_EQ(consumer.system, 1u);
  EXPECT_EQ(consumer.name, "second");
  EXPECT_TRUE(consumer.prov.cache_hit);
  EXPECT_FALSE(producer.prov.cache_hit);
  EXPECT_EQ(consumer.mode_quantum, producer.mode_quantum);
  EXPECT_EQ(consumer.margin, producer.margin);
}

TEST_F(MemoCacheTest, CrossScaleHitRescalesTimeDimensionedFields) {
  AnalysisService service;
  service.add_system(core::paper_example(), "base");
  service.add_system(scaled_paper(2.0), "stretched");
  const MinQuantumRequest req1{Scheduler::EDF, 1.0, false, {}};
  const MinQuantumRequest req2{Scheduler::EDF, 2.0, false, {}};
  const MinQuantumResult base = service.run_one(0, req1);
  ASSERT_TRUE(base.ok());
  const MinQuantumResult twin = service.run_one(1, req2);
  ASSERT_TRUE(twin.ok());
  // The x2 twin at the x2 period is the same canonical question: a hit,
  // with every time-dimensioned field exactly doubled (x2 is exact in
  // binary floating point).
  EXPECT_EQ(global_memo().stats().hits, 1u);
  EXPECT_TRUE(twin.prov.cache_hit);
  ASSERT_EQ(twin.mode_quantum.size(), base.mode_quantum.size());
  for (std::size_t i = 0; i < base.mode_quantum.size(); ++i) {
    EXPECT_EQ(twin.mode_quantum[i], 2.0 * base.mode_quantum[i]);
  }
  EXPECT_EQ(twin.margin, 2.0 * base.margin);
}

TEST_F(MemoCacheTest, DifferentRequestsDoNotAlias) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const MinQuantumResult p1 =
      service.run_one(0, MinQuantumRequest{Scheduler::EDF, 1.0, false, {}});
  const MinQuantumResult p2 =
      service.run_one(0, MinQuantumRequest{Scheduler::EDF, 2.0, false, {}});
  const MinQuantumResult fp =
      service.run_one(0, MinQuantumRequest{Scheduler::FP, 1.0, false, {}});
  EXPECT_EQ(global_memo().stats().hits, 0u);
  EXPECT_EQ(global_memo().stats().entries, 3u);
  (void)p1;
  (void)p2;
  (void)fp;
}

TEST_F(MemoCacheTest, SameScaleHitReplaysOnlyABitIdenticalRequest) {
  // 0.2 + 0.1 + ... lands one ulp above 0.8: both periods snap to the same
  // grid rational, so they share a memo key, but they are different
  // requests and the second must not get the first one's answer.
  double accumulated = 0.2;
  for (int k = 0; k < 6; ++k) accumulated += 0.1;
  ASSERT_NE(accumulated, 0.8);
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const MinQuantumRequest near{Scheduler::EDF, accumulated, false, {}};
  const MinQuantumRequest exact{Scheduler::EDF, 0.8, false, {}};

  global_memo().set_enabled(false);
  const MinQuantumResult cold = service.run_one(0, exact);
  global_memo().set_enabled(true);

  (void)service.run_one(0, near);
  const MinQuantumResult warm = service.run_one(0, exact);
  EXPECT_FALSE(warm.prov.cache_hit);
  EXPECT_EQ(warm.mode_quantum, cold.mode_quantum);
  EXPECT_EQ(warm.margin, cold.margin);
  EXPECT_EQ(min_quantum_row(warm, Scheduler::EDF, 0.8, false).str(),
            min_quantum_row(cold, Scheduler::EDF, 0.8, false).str());
  const MemoStats st = global_memo().stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 2u);
}

TEST_F(MemoCacheTest, SameScaleHitReplaysOnlyABitIdenticalSystem) {
  // Every WCET raised by 2e-12: below the canonical grid, so the system
  // shares the paper example's key and scale, but its exact answer
  // differs and must not be replayed from the original's.
  const core::ModeTaskSystem& base = core::paper_example();
  std::array<std::vector<rt::TaskSet>, 3> parts;
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    for (const rt::TaskSet& channel : base.partitions(core::kAllModes[m])) {
      std::vector<rt::Task> tasks;
      for (const rt::Task& t : channel) {
        tasks.push_back(rt::make_task(t.name, t.wcet + 2e-12, t.period,
                                      t.deadline, t.mode));
      }
      parts[m].emplace_back(std::move(tasks));
    }
  }
  AnalysisService service;
  service.add_system(base, "paper");
  service.add_system(core::ModeTaskSystem(std::move(parts[0]),
                                          std::move(parts[1]),
                                          std::move(parts[2])),
                     "nudged");
  ASSERT_EQ(service.canonical(0).hash, service.canonical(1).hash);
  ASSERT_EQ(service.canonical(0).scale, service.canonical(1).scale);
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};

  global_memo().set_enabled(false);
  const MinQuantumResult cold = service.run_one(1, req);
  global_memo().set_enabled(true);

  (void)service.run_one(0, req);
  const MinQuantumResult warm = service.run_one(1, req);
  EXPECT_FALSE(warm.prov.cache_hit);
  EXPECT_EQ(warm.mode_quantum, cold.mode_quantum);
  EXPECT_EQ(warm.margin, cold.margin);
  EXPECT_EQ(global_memo().stats().hits, 0u);
}

TEST_F(MemoCacheTest, PermutedTwinStillHits) {
  // The exact digest follows the canonical order, so a twin whose
  // channels and tasks come in another order is the same system.
  const core::ModeTaskSystem& base = core::paper_example();
  std::array<std::vector<rt::TaskSet>, 3> parts;
  for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
    for (const rt::TaskSet& channel : base.partitions(core::kAllModes[m])) {
      std::vector<rt::Task> tasks(channel.begin(), channel.end());
      std::reverse(tasks.begin(), tasks.end());
      parts[m].insert(parts[m].begin(), rt::TaskSet(std::move(tasks)));
    }
  }
  AnalysisService service;
  service.add_system(base, "paper");
  service.add_system(core::ModeTaskSystem(std::move(parts[0]),
                                          std::move(parts[1]),
                                          std::move(parts[2])),
                     "permuted");
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};
  const MinQuantumResult first = service.run_one(0, req);
  const MinQuantumResult twin = service.run_one(1, req);
  EXPECT_TRUE(twin.prov.cache_hit);
  EXPECT_EQ(twin.mode_quantum, first.mode_quantum);
  EXPECT_EQ(global_memo().stats().hits, 1u);
}

// --- configuration: kill switch and byte budget -------------------------

TEST_F(MemoCacheTest, DisabledMemoNeverTouchesTheCache) {
  global_memo().set_enabled(false);
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};
  const MinQuantumResult a = service.run_one(0, req);
  const MinQuantumResult b = service.run_one(0, req);
  const MemoStats st = global_memo().stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.entries, 0u);
  EXPECT_FALSE(st.enabled);
  EXPECT_FALSE(a.prov.cache_hit);
  EXPECT_FALSE(b.prov.cache_hit);
  EXPECT_EQ(a.mode_quantum, b.mode_quantum);
}

TEST_F(MemoCacheTest, LruEvictionKeepsTheShardUnderItsByteSlice) {
  // Keys with the same hi land in the same shard, so filling one shard is
  // deterministic: a 1 KiB slice (64 KiB over 64 shards) holds only a few
  // MinQuantumResult payloads, and older entries must evict LRU-first.
  MemoCache& memo = global_memo();
  const std::size_t kCapacity = std::size_t{64} * 1024;
  memo.set_capacity_bytes(kCapacity);
  MinQuantumResult payload;
  payload.margin = 0.25;
  const std::size_t kInserts = 64;
  for (std::uint64_t i = 1; i <= kInserts; ++i) {
    memo.insert(rt::Hash128{7, i}, {MemoPayload{payload}, 1.0});
  }
  const MemoStats st = memo.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_EQ(st.insertions, kInserts);
  EXPECT_LE(st.bytes, kCapacity / MemoCache::kShards);
  EXPECT_LT(st.entries, kInserts);
  // LRU order: the first key is long gone, the last one is resident.
  EXPECT_FALSE(memo.lookup(rt::Hash128{7, 1}).has_value());
  EXPECT_TRUE(memo.lookup(rt::Hash128{7, kInserts}).has_value());
}

TEST_F(MemoCacheTest, TinyBudgetChurnsButStaysCorrect) {
  // A few KiB across 64 shards leaves room for almost nothing, so the
  // cache churns (or refuses oversized payloads) constantly. Correctness
  // must be unaffected -- evicted entries recompute, they don't corrupt.
  global_memo().set_capacity_bytes(std::size_t{64} * 1024);
  AnalysisService service;
  fill_fleet(service, 32);
  const MinQuantumRequest req{Scheduler::EDF, 1.0, false, {}};

  global_memo().set_enabled(false);
  std::vector<MinQuantumResult> cold;
  for (std::size_t i = 0; i < service.size(); ++i) {
    cold.push_back(service.run_one(i, req));
  }
  global_memo().set_enabled(true);
  global_memo().clear();
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < service.size(); ++i) {
      const MinQuantumResult r = service.run_one(i, req);
      EXPECT_EQ(r.mode_quantum, cold[i].mode_quantum);
      EXPECT_EQ(r.margin, cold[i].margin);
    }
  }
  EXPECT_LE(global_memo().stats().bytes, std::size_t{64} * 1024);
}

TEST_F(MemoCacheTest, FirstWriterWinsOnDuplicateInsert) {
  MemoCache& memo = global_memo();
  const rt::Hash128 key{42, 7};
  MinQuantumResult first;
  first.margin = 1.0;
  MinQuantumResult second;
  second.margin = 2.0;
  memo.insert(key, {MemoPayload{first}, 1.0});
  memo.insert(key, {MemoPayload{second}, 1.0});
  const auto hit = memo.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::get<MinQuantumResult>(hit->payload).margin, 1.0);
  EXPECT_EQ(memo.stats().insertions, 1u);
}

TEST_F(MemoCacheTest, ClearZeroesEverything) {
  AnalysisService service;
  service.add_system(core::paper_example(), "paper");
  (void)service.run_one(0, MinQuantumRequest{Scheduler::EDF, 1.0, false, {}});
  ASSERT_GT(global_memo().stats().entries, 0u);
  global_memo().clear();
  const MemoStats st = global_memo().stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.insertions, 0u);
  EXPECT_EQ(st.evictions, 0u);
}

}  // namespace
}  // namespace flexrt::svc

// The controller's per-(dataset, type) query plans: every query path
// reads them, and a cached plan must run exactly like the cache-free
// path — engine::run_job over make_query_job — at every call, cold or
// warm, under faults, reduce buckets and the degradation ladder.
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/hash.h"
#include "core/degrade.h"
#include "core/experiment.h"
#include "engine/job_runner.h"
#include "net/faults.h"

namespace bohr::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.workload = workload::WorkloadKind::BigData;
  cfg.n_datasets = 3;
  cfg.generator.sites = 10;
  cfg.generator.rows_per_site = 120;
  cfg.generator.gb_per_site = 40.0 / 12.0;
  cfg.base_bandwidth = 125e6;
  cfg.lag_seconds = 60.0;
  cfg.job.partition_records = 24;
  cfg.job.machine.executors = 4;
  cfg.seed = 13;
  return cfg;
}

Controller prepared(Strategy s, const ExperimentConfig& cfg = small_config()) {
  Controller c = make_controller(cfg, s);
  c.prepare();
  return c;
}

void expect_same(const engine::JobResult& got,
                 const engine::JobResult& want) {
  EXPECT_EQ(got.qct_seconds, want.qct_seconds);
  EXPECT_EQ(got.shuffle_seconds, want.shuffle_seconds);
  EXPECT_EQ(got.wan_shuffle_bytes, want.wan_shuffle_bytes);
  EXPECT_EQ(got.shuffle_interruptions, want.shuffle_interruptions);
  EXPECT_EQ(got.shuffle_retries, want.shuffle_retries);
  EXPECT_EQ(got.shuffle_flows_failed, want.shuffle_flows_failed);
  EXPECT_EQ(got.reduce_speculations, want.reduce_speculations);
  EXPECT_EQ(got.max_reduce_slowdown, want.max_reduce_slowdown);
  EXPECT_EQ(got.reduce_partial, want.reduce_partial);
  EXPECT_EQ(got.reduce_buckets_dropped, want.reduce_buckets_dropped);
  EXPECT_EQ(got.reduce_dropped_fraction, want.reduce_dropped_fraction);
  ASSERT_EQ(got.sites.size(), want.sites.size());
  for (std::size_t i = 0; i < got.sites.size(); ++i) {
    const engine::SiteJobMetrics& g = got.sites[i];
    const engine::SiteJobMetrics& w = want.sites[i];
    EXPECT_EQ(g.input_records, w.input_records) << "site " << i;
    EXPECT_EQ(g.shuffle_records, w.shuffle_records) << "site " << i;
    EXPECT_EQ(g.shuffle_bytes, w.shuffle_bytes) << "site " << i;
    EXPECT_EQ(g.map_finish_seconds, w.map_finish_seconds) << "site " << i;
    EXPECT_EQ(g.shuffle_finish_seconds, w.shuffle_finish_seconds)
        << "site " << i;
    EXPECT_EQ(g.reduce_finish_seconds, w.reduce_finish_seconds)
        << "site " << i;
    EXPECT_EQ(g.exchanged_records, w.exchanged_records) << "site " << i;
    EXPECT_EQ(g.rdd_check_seconds, w.rdd_check_seconds) << "site " << i;
  }
}

/// The cache-free path: engine::run_job over make_query_job, after the
/// run-specific config edits the controller makes.
engine::JobResult uncached(const Controller& c, std::size_t a, std::size_t t,
                           const std::function<void(engine::JobConfig&)>& edit,
                           Rng& rng) {
  QueryJob job = make_query_job(c.datasets()[a], t, c.options());
  edit(job.config);
  return engine::run_job(c.topology(), job.inputs,
                         c.prepare_report().decision.reduce_fractions,
                         job.spec, job.config, rng);
}

/// The mix loop of run_all_queries / run_query_round, cache-free, from
/// the controller's current RNG state.
std::vector<engine::JobResult> uncached_mix(
    const Controller& c, const std::function<void(engine::JobConfig&)>& edit) {
  Rng rng(0);
  rng.restore(c.rng_state());
  std::vector<engine::JobResult> out;
  for (std::size_t a = 0; a < c.datasets().size(); ++a) {
    const auto& counts = c.datasets()[a].mix().counts;
    for (std::size_t t = 0; t < counts.size(); ++t) {
      if (counts[t] == 0) continue;
      out.push_back(uncached(c, a, t, edit, rng));
    }
  }
  return out;
}

void expect_same(const std::vector<QueryExecution>& got,
                 const std::vector<engine::JobResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    SCOPED_TRACE("execution " + std::to_string(q));
    expect_same(got[q].result, want[q]);
  }
}

std::uint64_t digest(const std::vector<QueryExecution>& executions) {
  std::uint64_t h = 0x9A11CACE;
  for (const QueryExecution& e : executions) {
    h = hash_combine(h, std::bit_cast<std::uint64_t>(e.result.qct_seconds));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(
                            e.result.reduce_dropped_fraction));
    h = hash_combine(h, e.result.shuffle_retries);
    h = hash_combine(h, e.result.reduce_speculations);
    if (e.degraded) {
      h = hash_combine(h, static_cast<std::uint64_t>(e.degraded->mode));
      h = hash_combine(h, e.degraded->retries);
      h = hash_combine(h, e.degraded->escalated_phase);
      h = hash_combine(h, std::bit_cast<std::uint64_t>(
                              e.degraded->error_estimate));
    }
  }
  return h;
}

/// A bucket map that differs from the prepared fractions.
engine::ReduceBucketMap moved_buckets(const Controller& c) {
  engine::ReduceBucketMap buckets = engine::ReduceBucketMap::from_fractions(
      c.prepare_report().decision.reduce_fractions, 64);
  buckets.relocate(0, 9);
  buckets.relocate(1, 9);
  return buckets;
}

TEST(PlanCacheTest, SingleQueriesMatchTheUncachedPathForEveryDatasetAndType) {
  for (const Strategy s : {Strategy::Bohr, Strategy::Iridium}) {
    SCOPED_TRACE(to_string(s));
    const Controller c = prepared(s);
    const engine::ReduceBucketMap buckets = moved_buckets(c);
    for (const engine::ReduceBucketMap* map : {
             static_cast<const engine::ReduceBucketMap*>(nullptr),
             &buckets}) {
      for (std::size_t a = 0; a < c.datasets().size(); ++a) {
        const std::size_t types = c.datasets()[a].bundle().query_types.size();
        for (std::size_t t = 0; t < types; ++t) {
          SCOPED_TRACE("dataset " + std::to_string(a) + " type " +
                       std::to_string(t));
          // Twice: the first call builds the plan, the second reads it.
          for (int pass = 0; pass < 2; ++pass) {
            Rng cached_rng(hash_combine(a, t));
            Rng reference_rng(hash_combine(a, t));
            expect_same(c.run_single_query(a, t, map, cached_rng),
                        uncached(
                            c, a, t,
                            [&](engine::JobConfig& jc) {
                              jc.reduce_buckets = map;
                            },
                            reference_rng));
          }
        }
      }
    }
  }
}

TEST(PlanCacheTest, RunAllQueriesMatchesTheUncachedPath) {
  Controller c = make_controller(small_config(), Strategy::Bohr);
  Controller twin = prepared(Strategy::Bohr);
  std::size_t total_queries = 0;
  for (const DatasetState& d : twin.datasets()) {
    total_queries += d.mix().total_queries();
  }
  const double overhead =
      twin.prepare_report().decision.modeled_lp_seconds() /
      static_cast<double>(total_queries);
  const std::vector<engine::JobResult> want =
      uncached_mix(twin, [&](engine::JobConfig& jc) {
        jc.controller_overhead_seconds = overhead;
      });
  expect_same(c.run_all_queries(), want);
}

TEST(PlanCacheTest, QueryRoundsUnderFaultsAndSpeculationMatch) {
  // Stragglers are drawn per run, from a cached plan's stages.
  ExperimentConfig cfg = small_config();
  cfg.job.machine.straggler_probability = 0.25;
  cfg.job.machine.speculative_execution = true;
  Controller c = prepared(Strategy::Bohr, cfg);
  const net::FaultPlan faults = net::parse_fault_plan(
      "outage:site=6,start=0,end=20;"
      "slow-site:site=2,start=0,end=400,factor=6;kill:time=1.5");
  const engine::ReduceBucketMap buckets = moved_buckets(c);
  Controller::QueryRound round;
  round.faults = &faults;
  round.reduce_buckets = &buckets;
  round.bucket_speculation = true;
  // Round 0 builds every plan, round 1 reads them.
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const std::vector<engine::JobResult> want =
        uncached_mix(c, [&](engine::JobConfig& jc) {
          jc.faults = &faults;
          jc.reduce_buckets = &buckets;
          jc.bucket_speculation = true;
        });
    expect_same(c.run_query_round(round), want);
  }
}

/// Two rounds under the degradation ladder (retries and escalations):
/// the ladder runs each query several times from one plan.
std::vector<QueryExecution> ladder_rounds(Controller& c) {
  const net::FaultPlan faults = net::parse_fault_plan(
      "outage:site=0,start=0,end=1e9;slow-site:site=2,start=0,end=400,"
      "factor=6;kill:time=1");
  DegradeOptions opts;
  opts.deadline.total_seconds = 12.0;
  const DegradationService service(c.datasets(), c.similarity(), opts);
  std::vector<bool> usable(c.topology().site_count(), true);
  usable[0] = false;
  const engine::ReduceBucketMap buckets = engine::ReduceBucketMap::from_fractions(
      c.prepare_report().decision.reduce_fractions, 64);
  Controller::QueryRound round;
  round.faults = &faults;
  round.reduce_buckets = &buckets;
  round.bucket_speculation = true;
  round.degrade = &service;
  round.site_usable = &usable;
  std::vector<QueryExecution> out;
  for (std::uint64_t r = 0; r < 2; ++r) {
    round.round_index = r;
    for (QueryExecution& e : c.run_query_round(round)) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

// Recorded before the plan cache existed, when every ladder attempt ran
// engine::run_job over a freshly built job.
constexpr std::uint64_t kBohrLadderDigest = 0xd0eb5153885bf804ULL;

TEST(PlanCacheTest, DegradationLadderRoundsAreUnchangedColdOrWarm) {
  Controller cold = prepared(Strategy::Bohr);
  Controller warm = prepared(Strategy::Bohr);
  for (std::size_t a = 0; a < warm.datasets().size(); ++a) {
    Rng rng(a);
    warm.run_single_query(a, 0, nullptr, rng);
  }
  const std::vector<QueryExecution> got = ladder_rounds(cold);
  std::size_t retried = 0;
  for (const QueryExecution& e : got) {
    ASSERT_TRUE(e.degraded.has_value());
    retried += e.degraded->retries;
  }
  EXPECT_GT(retried, 0u) << "the ladder never retried: nothing was tested";
  EXPECT_EQ(digest(got), kBohrLadderDigest);
  EXPECT_EQ(digest(ladder_rounds(warm)), kBohrLadderDigest);
}

// Round-robin executor assignment (Iridium) draws the run's RNG in its
// stages, so its plans are never cached. With stragglers on, a site's
// assignment draws come before its straggler draws; this digest was
// recorded before the plan cache existed.
constexpr std::uint64_t kIridiumDigest = 0x4447b0ea2cf8edbULL;

TEST(PlanCacheTest, RoundRobinControllerReproducesItsDigest) {
  ExperimentConfig cfg = small_config();
  cfg.job.machine.straggler_probability = 0.25;
  cfg.job.machine.speculative_execution = false;
  Controller c = make_controller(cfg, Strategy::Iridium);
  std::vector<QueryExecution> executions = c.run_all_queries();
  for (QueryExecution& e : ladder_rounds(c)) {
    executions.push_back(std::move(e));
  }
  EXPECT_EQ(digest(executions), kIridiumDigest);
}

TEST(PlanCacheTest, MutableDatasetDropsTheCache) {
  Controller c = prepared(Strategy::Bohr);
  Rng before_rng(3);
  const engine::JobResult before = c.run_single_query(0, 0, nullptr, before_rng);

  // Move a third of site 0's rows to site 1: the mapped inputs change.
  DatasetState& d = c.mutable_dataset(0);
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < d.rows_at(0).size(); r += 3) rows.push_back(r);
  d.move_rows(0, 1, rows);

  Rng after_rng(3);
  Rng reference_rng(3);
  const engine::JobResult after = c.run_single_query(0, 0, nullptr, after_rng);
  expect_same(after, uncached(
                         c, 0, 0,
                         [](engine::JobConfig& jc) {
                           jc.controller_overhead_seconds = 0.0;
                         },
                         reference_rng));
  EXPECT_LT(after.sites[0].input_records, before.sites[0].input_records);
}

TEST(PlanCacheTest, PlansRequireAPreparedController) {
  const Controller c = make_controller(small_config(), Strategy::Bohr);
  Rng rng(1);
  EXPECT_THROW(c.run_single_query(0, 0, nullptr, rng), ContractViolation);
}

}  // namespace
}  // namespace bohr::core

// churn-faults: run_churn_experiment with migration and the degradation
// ladder on, under a composed fault plan (outage, link degrade, slow
// site, flow kill, probe loss). The timed query phase drives the same
// rounds on a prepared controller and must reproduce the experiment's
// results. Every input also runs crashed after the middle round, with a
// snapshot after every round, and recovered from the newest snapshot to
// the end; the recovered run must reproduce the uninterrupted one byte
// for byte.
#include <cstdio>
#include <filesystem>
#include <utility>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "core/degrade.h"
#include "core/experiment.h"
#include "core/migration.h"
#include "net/faults.h"
#include "setup.h"

namespace perfbench {

namespace {

namespace bc = bohr::core;
namespace fs = std::filesystem;

// Run-clock fault plan over 8 rounds at the 60 s lag (rounds run at 60,
// 120, ..., 480 s). Faults touch two rounds, so most rounds stay healthy
// and the median is a healthy query. In the 240 s round site 6 is dark
// for its first 50 s and every flow in flight 50 ms in is killed; in the
// 360 s round site 3's links run at 20% and site 2 computes 6x slower.
// A fifth of the probe reports are lost during prepare.
constexpr const char* kFaultPlan =
    "outage:site=6,start=230,end=290;"
    "kill:time=240.05,phases=query;"
    "degrade:site=3,start=350,end=410,factor=0.2;"
    "slow-site:site=2,start=350,end=410,factor=6;"
    "probe-loss:p=0.2";

struct ChurnParams {
  std::size_t inputs = 6;
  std::size_t datasets = 12;
  std::size_t rows_per_site = 240;
  std::size_t rounds = 8;
  std::size_t crash_after_round = 4;
  /// Per-query deadline budget of the degradation ladder. The outage
  /// round's shuffles wait ~50 s for site 6, well inside it, so the p99
  /// is set by the faults rather than pinned at the budget.
  double degrade_budget_seconds = 120.0;
  std::size_t setup_repeats = 2;
};

ChurnParams params_for(bool reduced) {
  ChurnParams p;
  if (reduced) {
    p.inputs = 1;
    p.datasets = 4;
    p.rows_per_site = 60;
    p.rounds = 6;
    p.crash_after_round = 3;
    p.setup_repeats = 1;
  }
  return p;
}

bc::ExperimentConfig input_config(const ChurnParams& p, std::uint64_t seed,
                                  std::size_t input) {
  bc::ExperimentConfig cfg = paper_config(
      bohr::workload::WorkloadKind::BigData, p.datasets, p.rows_per_site, seed,
      input);
  cfg.faults = bohr::net::parse_fault_plan(kFaultPlan);
  return cfg;
}

bc::ChurnOptions churn_options(const ChurnParams& p, const std::string& dir) {
  bc::ChurnOptions o;
  o.rounds = p.rounds;
  o.migration = true;
  o.degrade = true;
  o.degrade_options.deadline.total_seconds = p.degrade_budget_seconds;
  o.checkpoint_dir = dir;
  return o;
}

bc::ChurnRunResult churn(const bc::ExperimentConfig& cfg,
                         const bc::ChurnOptions& o) {
  ScopedSpan span("core.run_churn_experiment");
  return bc::run_churn_experiment(cfg, o);
}

/// One churn run's query phase, driven by the benchmark on a prepared
/// controller: the same rounds run_churn_experiment runs after its
/// prepare, through the public MigrationController, DegradationService
/// and Controller::run_query_round.
struct DrivenRun {
  bohr::LatencyRecorder qct;  ///< recurrence-weighted, as the experiment's
  std::uint32_t migration_log_crc32 = 0;
  bc::DegradedReport degraded;
  std::size_t executed = 0;  ///< query executions, one per (dataset, type, round)
  double wan_shuffle_bytes = 0.0;
  double seconds = 0.0;  ///< host seconds of the rounds
};

/// Runs the rounds from the controller's post-prepare RNG state `rng`,
/// so every call on the same controller repeats the same run. Executed
/// queries are added to `tally` when it is not null.
DrivenRun drive_rounds(bc::Controller& c, const bohr::Rng::State& rng,
                       const bc::ExperimentConfig& cfg,
                       const bc::ChurnOptions& o,
                       const bc::DegradationService& service,
                       EngineTally* tally) {
  c.restore_rng(rng);
  DrivenRun out;
  ScopedSpan span("churn.rounds");
  const double t0 = now_seconds();
  bc::MigrationController migctl(c.topology(),
                                 c.prepare_report().decision.reduce_fractions,
                                 o.migration_options);
  const bohr::net::FaultPlan query_plan =
      cfg.faults.restricted_to(bohr::net::kPhaseQuery);
  const std::size_t n = c.topology().site_count();
  const double horizon = o.degrade_options.deadline.total_seconds;
  for (std::size_t r = 0; r < o.rounds; ++r) {
    const double now =
        cfg.lag_seconds + cfg.lag_seconds * static_cast<double>(r);
    migctl.step(cfg.faults, now);
    const bohr::net::FaultPlan round_plan = query_plan.shifted_by(now);
    // A site is unusable if the health monitor rules it out or the
    // round's plan darkens it inside the deadline horizon.
    std::vector<bool> site_ok(n, true);
    for (std::size_t s = 0; s < n; ++s) {
      site_ok[s] = migctl.health().usable(s);
      for (const bohr::net::OutageWindow& w : round_plan.outages) {
        if (w.site == s && w.start < horizon && w.end > 0.0) site_ok[s] = false;
      }
    }
    bc::Controller::QueryRound round;
    round.faults = &round_plan;
    round.reduce_buckets = &migctl.buckets();
    round.bucket_speculation = o.bucket_speculation;
    round.bucket_speculation_cap = o.bucket_speculation_cap;
    round.degrade = &service;
    round.site_usable = &site_ok;
    round.round_index = r;
    std::vector<bc::QueryExecution> executions;
    {
      ScopedSpan round_span("core.run_query_round");
      executions = c.run_query_round(round);
    }
    for (const bc::QueryExecution& e : executions) {
      for (std::size_t rep = 0; rep < e.recurrences; ++rep) {
        out.qct.add(e.result.qct_seconds);
      }
      if (e.degraded) out.degraded.add(*e.degraded);
      out.wan_shuffle_bytes += e.result.wan_shuffle_bytes;
      if (tally != nullptr) tally->add(e.result);
    }
    out.executed += executions.size();
  }
  out.seconds = now_seconds() - t0;
  out.migration_log_crc32 = migctl.log_digest();
  return out;
}

/// Average bytes of the snapshots kept in a checkpoint directory.
double snapshot_bytes(const std::string& dir) {
  std::size_t kept = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("snapshot-", 0) == 0) ++kept;
  }
  return kept == 0 ? 0.0 : static_cast<double>(dir_bytes(dir)) / kept;
}

}  // namespace

RunResult run_churn_faults(const RunArgs& args) {
  const ChurnParams p = params_for(args.reduced);
  RunResult res;
  CheckLog& checks = res.checks;
  std::vector<Metric>& m = res.metrics;

  // --- set-up: the same faulted prepare run_churn_experiment does -------
  SetupStats setups;
  std::vector<PreparedController> inputs;
  std::vector<std::vector<double>> raw(p.inputs);
  for (std::size_t j = 0; j < p.inputs; ++j) {
    const bc::ExperimentConfig cfg = input_config(p, args.seed, j);
    for (std::size_t rep = 0; rep < p.setup_repeats; ++rep) {
      SetupHooks hooks;
      hooks.after_make = [&](const bc::Controller& c) { raw[j] = raw_totals(c); };
      PreparedController prepared = timed_setup(cfg, hooks);
      setups.add(prepared);
      checks.expect(
          fractions_valid(prepared.progress.report.decision.reduce_fractions),
          "reduce fractions must be >= 0 and sum to 1");
      if (rep + 1 == p.setup_repeats) inputs.push_back(std::move(prepared));
    }
  }

  // The degradation service each run builds after prepare; it only reads
  // the prepared controller.
  std::vector<bohr::Rng::State> rng_after_prepare;
  std::vector<bc::DegradationService> services;
  services.reserve(p.inputs);
  for (PreparedController& prepared : inputs) {
    bc::Controller& c = prepared.controller;
    rng_after_prepare.push_back(c.rng_state());
    services.emplace_back(c.datasets(), c.similarity(),
                          churn_options(p, "").degrade_options);
  }

  // --- timed query phase: the rounds of an uninterrupted churn run -----
  // Call k drives the rounds of input k % inputs on its prepared
  // controller; a rotation drives every input once and runs end on a
  // whole rotation. Only the rounds are timed. Every driven run must
  // reproduce run_churn_experiment's QCT digest, migration-log CRC and
  // degraded-report CRC for the same input, so its WAN bytes and net
  // counters are those of the reported run. The first rotation also
  // runs run_churn_experiment uninterrupted, and crashed after the
  // middle round with a snapshot after every round and recovered to the
  // end; those calls are untimed, and the checkpoint.* layer metrics
  // report their snapshot and recovery cost.
  std::vector<bc::ChurnRunResult> first(p.inputs);
  MixThroughput traced_qps(p.inputs), untraced_qps(p.inputs);
  double written_bytes = 0.0;
  double wan_bytes = 0.0;
  std::size_t snapshots = 0;
  EngineTally tally;
  // (seconds, calls) of the named phases, summed over fixed sets of calls.
  std::pair<double, std::uint64_t> rdd, snap, rec;
  const auto accumulate = [](std::pair<double, std::uint64_t>& total,
                             const PhaseTotals& before,
                             const std::vector<std::string>& prefixes) {
    const auto d = PhaseTotals::delta(before, PhaseTotals::take(), prefixes);
    total.first += d.first;
    total.second += d.second;
  };
  const double start = now_seconds();
  for (std::size_t k = 0;; ++k) {
    const std::size_t j = k % p.inputs;
    const std::size_t rotation = k / p.inputs;
    const bool traced = args.trace && rotation % 2 == 0;
    tracer().set_enabled(traced);
    const bc::ExperimentConfig cfg = input_config(p, args.seed, j);
    const bc::ChurnOptions options = churn_options(p, "");

    if (rotation == 0) {
      first[j] = churn(cfg, options);
      const std::string crash_dir =
          (fs::path(args.work_dir) / ("churn-" + std::to_string(j))).string();
      fs::remove_all(crash_dir);
      bc::ChurnOptions crash = churn_options(p, crash_dir);
      crash.crash_after_round = p.crash_after_round;
      PhaseTotals before = PhaseTotals::take();
      const bc::ChurnRunResult crashed = churn(cfg, crash);
      accumulate(snap, before, {"checkpoint.snapshot"});
      crash.crash_after_round = 0;
      crash.recover = true;
      before = PhaseTotals::take();
      const bc::ChurnRunResult resumed = churn(cfg, crash);
      accumulate(rec, before, {"checkpoint.recover"});
      const bc::ChurnRunResult& whole = first[j];
      checks.expect(crashed.crashed && resumed.recovered &&
                        resumed.rounds_run == p.rounds,
                    "the crashed run must stop and the recovery resume it");
      checks.expect(resumed.qct.digest() == whole.qct.digest(),
                    "recovery must reproduce the QCT digest");
      checks.expect(resumed.migration_log_crc32 == whole.migration_log_crc32,
                    "recovery must reproduce the migration-log CRC");
      checks.expect(resumed.degraded.digest() == whole.degraded.digest(),
                    "recovery must reproduce the degraded-report CRC");
      for (const bc::DegradedAnswer& answer : whole.degraded.answers) {
        checks.expect(answer.dataset < raw[j].size() &&
                          answer_within_bound(answer, raw[j][answer.dataset]),
                      "every answer must match or bound the raw-row total");
      }
      snapshots += crashed.snapshots_written + resumed.snapshots_written;
      written_bytes += static_cast<double>(crashed.snapshots_written +
                                           resumed.snapshots_written) *
                       snapshot_bytes(crash_dir);
      fs::remove_all(crash_dir);
    }

    const double scale = reference_scale();
    const PhaseTotals before = PhaseTotals::take();
    const DrivenRun run = drive_rounds(inputs[j].controller,
                                       rng_after_prepare[j], cfg, options,
                                       services[j],
                                       rotation == 0 ? &tally : nullptr);
    (traced ? traced_qps : untraced_qps)
        .add(j, static_cast<double>(run.executed), run.seconds / scale);
    res.queries += run.executed;
    checks.expect(run.qct.digest() == first[j].qct.digest() &&
                      run.migration_log_crc32 ==
                          first[j].migration_log_crc32 &&
                      run.degraded.digest() == first[j].degraded.digest(),
                  "the driven rounds must reproduce run_churn_experiment");
    if (rotation == 0) {
      accumulate(rdd, before, {"dimsum.", "kmeans."});
      // The uninterrupted and the crashed-and-recovered runs executed
      // the same rounds once each.
      res.queries += 2 * run.executed;
      wan_bytes += inputs[j].progress.report.bytes_moved +
                   run.wan_shuffle_bytes;
    }

    const bool both =
        !args.trace || (traced_qps.complete() && untraced_qps.complete());
    if (j + 1 == p.inputs && both && now_seconds() - start >= args.seconds) {
      break;
    }
  }
  tracer().set_enabled(args.trace);

  bohr::LatencyRecorder pooled;
  for (const bc::ChurnRunResult& r : first) pooled.merge(r.qct);
  const bohr::LatencySummary s = pooled.summarize(0.0);
  std::fprintf(stderr, "qct percentiles over %zu samples\n", s.count);
  checks.expect(percentiles_ordered(s), "p50 <= p99 <= max");
  if (!args.trace) {
    m.push_back({"host_qps", untraced_qps.qps(), "queries/s"});
    m.push_back({"setup_s", setups.median_seconds(), "s"});
    m.push_back({"qct_p50_s", s.p50_seconds, "s"});
    m.push_back({"qct_p99_s", s.p99_seconds, "s"});
    m.push_back({"wan_gb", wan_bytes / 1e9, "GB"});
    return res;
  }

  // Per-query host time on the healthy prepared state of the first input.
  res.queries += span_each_query_type(inputs[0].controller);
  std::size_t moves = 0, evacuations = 0;
  bc::DegradedReport ladder;
  for (const bc::ChurnRunResult& r : first) {
    moves += r.migrations;
    evacuations += r.evacuations;
    ladder.append(r.degraded);
  }
  const auto per_call = [](std::pair<double, std::uint64_t> d) {
    return d.second == 0 ? 0.0 : d.first / static_cast<double>(d.second);
  };
  m.push_back({"similarity.rdd_s", rdd.first, "s"});
  m.push_back({"similarity.rdd_calls", static_cast<double>(rdd.second), "count"});
  add_query_span_metrics(m);
  tally.add_engine_metrics(m);
  tally.add_net_metrics(m);
  setups.add_layer_metrics(m);
  m.push_back({"migration.moves", static_cast<double>(moves), "count"});
  m.push_back({"migration.evacuations", static_cast<double>(evacuations), "count"});
  m.push_back({"degrade.exact", static_cast<double>(ladder.exact), "count"});
  m.push_back({"degrade.partial", static_cast<double>(ladder.partial), "count"});
  m.push_back({"degrade.substituted", static_cast<double>(ladder.substituted), "count"});
  m.push_back({"degrade.prior", static_cast<double>(ladder.prior), "count"});
  m.push_back({"degrade.escalations", static_cast<double>(ladder.escalations), "count"});
  m.push_back({"degrade.retries", static_cast<double>(ladder.retries), "count"});
  m.push_back({"checkpoint.snapshots", static_cast<double>(snapshots), "count"});
  m.push_back({"checkpoint.mb_written", written_bytes / 1e6, "MB"});
  m.push_back({"checkpoint.snapshot_s", per_call(snap), "s"});
  m.push_back({"checkpoint.recover_s", per_call(rec), "s"});
  add_trace_metrics(m, traced_qps, untraced_qps);
  return res;
}

}  // namespace perfbench

// prepare-bulk: wide TPC-DS cubes over many datasets, prepared from
// scratch and followed by one execution of the query mix, with each
// (dataset, type) run once. Cube build, probes, the joint LP and
// movement dominate; nothing repeats, so a per-query cache has nothing
// to reuse here.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "bench.h"
#include "checks.h"
#include "setup.h"

namespace perfbench {

namespace {

namespace bc = bohr::core;

struct BulkParams {
  std::size_t inputs = 4;  ///< independent generated input sets
  std::size_t datasets = 96;
  std::size_t rows_per_site = 500;
};

BulkParams params_for(bool reduced) {
  BulkParams p;
  if (reduced) {
    p.inputs = 2;
    p.datasets = 6;
    p.rows_per_site = 120;
  }
  return p;
}

bc::ExperimentConfig input_config(const BulkParams& p, std::uint64_t seed,
                                  std::size_t input) {
  bc::ExperimentConfig cfg = paper_config(
      bohr::workload::WorkloadKind::TpcDs, p.datasets, p.rows_per_site, seed,
      input);
  return cfg;
}

}  // namespace

RunResult run_prepare_bulk(const RunArgs& args) {
  const BulkParams p = params_for(args.reduced);
  RunResult res;
  CheckLog& checks = res.checks;
  std::vector<Metric>& m = res.metrics;

  SetupStats setups;
  bohr::LatencyRecorder qct;  // recurrence-weighted, first cycle per input
  std::vector<std::uint32_t> digests(p.inputs, 0);
  double wan_bytes = 0.0;
  EngineTally tally;
  double rdd_seconds = 0.0;
  std::uint64_t rdd_calls = 0;
  MixThroughput traced_qps(p.inputs), untraced_qps(p.inputs);
  std::optional<PreparedController> last;

  // Cycle k prepares input k % inputs; runs end on a whole rotation over
  // the inputs. The modeled metrics come from the first rotation, so they
  // never depend on host speed.
  const double start = now_seconds();
  for (std::size_t k = 0;; ++k) {
    const std::size_t j = k % p.inputs;
    const bool traced = args.trace && (k / p.inputs) % 2 == 0;
    tracer().set_enabled(traced);
    const bc::ExperimentConfig cfg = input_config(p, args.seed, j);
    last.reset();  // one prepared input in memory at a time

    std::vector<double> raw;
    std::vector<std::size_t> rows_before;
    SetupHooks hooks;
    hooks.after_make = [&](const bc::Controller& c) {
      raw = raw_totals(c);
      rows_before = row_counts(c);
      checks.expect(totals_equal(cube_totals(c), raw),
                    "cube totals must equal the raw-row totals");
    };
    hooks.after_placement = [&](const bc::Controller& c,
                                const bc::PrepareProgress& progress) {
      const auto& decision = progress.report.decision;
      checks.expect(fractions_valid(decision.reduce_fractions),
                    "reduce fractions must be >= 0 and sum to 1");
      checks.expect(joint_no_worse(decision.predicted_shuffle_seconds,
                                   no_move_shuffle_seconds(c)),
                    "joint placement must predict no worse than moving nothing");
    };
    hooks.after_movement = [&](const bc::Controller& c,
                               const bc::PrepareProgress&) {
      checks.expect(rows_conserved(rows_before, row_counts(c)),
                    "movement must conserve each dataset's rows");
      checks.expect(totals_equal(cube_totals(c), raw),
                    "cube totals must survive movement unchanged");
    };
    PreparedController prepared = timed_setup(cfg, hooks);
    setups.add(prepared);

    const PhaseTotals before = PhaseTotals::take();
    const double scale = reference_scale();
    const double t0 = now_seconds();
    std::vector<bc::QueryExecution> executions;
    {
      ScopedSpan span("core.run_all_queries");
      executions = prepared.controller.run_all_queries();
    }
    const double busy = now_seconds() - t0;
    const auto rdd = PhaseTotals::delta(before, PhaseTotals::take(),
                                        {"dimsum.", "kmeans."});
    res.queries += executions.size();
    (traced ? traced_qps : untraced_qps)
        .add(j, static_cast<double>(executions.size()), busy / scale);

    bohr::LatencyRecorder cycle_qct;
    double cycle_wan = prepared.progress.report.bytes_moved;
    for (const bc::QueryExecution& e : executions) {
      for (std::size_t r = 0; r < e.recurrences; ++r) {
        cycle_qct.add(e.result.qct_seconds);
      }
      cycle_wan += e.result.wan_shuffle_bytes;  // each shuffle ran once
    }
    if (k < p.inputs) {
      qct.merge(cycle_qct);
      wan_bytes += cycle_wan;
      digests[j] = cycle_qct.digest();
      for (const bc::QueryExecution& e : executions) tally.add(e.result);
      rdd_seconds += rdd.first;
      rdd_calls += rdd.second;
    } else {
      checks.expect(cycle_qct.digest() == digests[j],
                    "a repeated prepare and query mix must reproduce its QCTs");
    }
    last.emplace(std::move(prepared));

    const bool both =
        !args.trace || (traced_qps.complete() && untraced_qps.complete());
    if (j + 1 == p.inputs && both && now_seconds() - start >= args.seconds) {
      break;
    }
  }
  tracer().set_enabled(args.trace);

  const bohr::LatencySummary s = qct.summarize(0.0);
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

  res.queries += span_each_query_type(last->controller);
  m.push_back({"similarity.rdd_s", rdd_seconds, "s"});
  m.push_back({"similarity.rdd_calls", static_cast<double>(rdd_calls), "count"});
  add_query_span_metrics(m);
  tally.add_engine_metrics(m);
  setups.add_layer_metrics(m);
  checkpoint_round_trip(
      *last, input_config(p, args.seed, (setups.seconds.size() - 1) % p.inputs),
      (std::filesystem::path(args.work_dir) / "checkpoint").string(), checks,
      m);
  add_trace_metrics(m, traced_qps, untraced_qps);
  return res;
}

}  // namespace perfbench

// serve-recurring: the online serving loop over prepared controllers.
//
// Open loop: per-tenant Poisson arrivals on the modeled clock, Zipf-skewed
// datasets and query types. The timed query phase repeats run_serving at
// the nominal rate over every input set; a sweep of fixed offered rates
// across the knee (untimed) gives the per-rate tails and the highest rate
// that meets the p99 limit. Most queries repeat a (dataset, type) served
// earlier in the same trace — the property a per-query plan cache needs.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>

#include "bench.h"
#include "checks.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "serve/server.h"
#include "setup.h"

namespace perfbench {

namespace {

namespace bc = bohr::core;
namespace bs = bohr::serve;

struct ServeParams {
  std::size_t inputs = 4;  ///< independent (data, arrivals) input sets
  std::size_t datasets = 12;
  std::size_t rows_per_site = 240;
  std::size_t tenants = 8;
  /// Fixed aggregate offered rates (queries/s over all tenants).
  std::vector<double> rates = {0.4, 0.8, 1.2, 1.6, 3.2};
  std::size_t nominal = 1;          ///< index of the nominal rate
  double nominal_queries = 1500.0;  ///< expected arrivals per input
  double sweep_queries = 250.0;     ///< ... at the other swept rates
  double p99_limit_seconds = 30.0;
  std::size_t setup_repeats = 6;
};

ServeParams params_for(bool reduced) {
  ServeParams p;
  if (reduced) {
    p.inputs = 2;
    p.datasets = 4;
    p.rows_per_site = 60;
    p.nominal_queries = 120.0;
    p.sweep_queries = 60.0;
    p.setup_repeats = 1;
  }
  return p;
}

bc::ExperimentConfig input_config(const ServeParams& p, std::uint64_t seed,
                                  std::size_t input) {
  bc::ExperimentConfig cfg = paper_config(
      bohr::workload::WorkloadKind::BigData, p.datasets, p.rows_per_site, seed,
      input);
  return cfg;
}

bs::ServeOptions serve_options(const ServeParams& p, std::uint64_t seed,
                               double rate, double expected_queries) {
  bs::ServeOptions o;
  o.arrivals.tenants = p.tenants;
  o.arrivals.arrival_rate_qps = rate / static_cast<double>(p.tenants);
  o.arrivals.duration_seconds = expected_queries / rate;
  o.arrivals.seed = seed;
  // Serve on the prepared LP fractions: bucket migration is measured by
  // churn-faults, and without it every query's result is a function of
  // (dataset, type) alone, which the WAN accounting below relies on.
  o.migration_period_seconds = 0.0;
  return o;
}

struct Admission {
  std::vector<bs::QueryArrival> arrivals;
  std::vector<bs::QueryBatch> batches;
};

Admission admit(const bc::Controller& controller, const bs::ServeOptions& o) {
  std::vector<std::size_t> types;
  for (const bc::DatasetState& d : controller.datasets()) {
    types.push_back(d.bundle().query_types.size());
  }
  Admission a;
  {
    ScopedSpan span("serve.generate_arrivals");
    a.arrivals = bs::generate_arrivals(o.arrivals, types.size(), types);
  }
  ScopedSpan span("serve.form_batches");
  a.batches = bs::form_batches(a.arrivals, o.arrivals.tenants, o.batching);
  return a;
}

bs::ServeReport serve(const bc::Controller& controller,
                      const bs::ServeOptions& o) {
  ScopedSpan span("serve.run_serving");
  return bs::run_serving(controller, o);
}

/// WAN bytes one query of (dataset, type) shuffles on this prepared state.
std::vector<std::vector<double>> shuffle_table(const bc::Controller& c) {
  std::vector<std::vector<double>> table;
  for (std::size_t a = 0; a < c.datasets().size(); ++a) {
    table.emplace_back();
    for (std::size_t t = 0; t < c.datasets()[a].bundle().query_types.size();
         ++t) {
      bohr::Rng rng(bohr::hash_combine(a, t));
      table.back().push_back(
          c.run_single_query(a, t, nullptr, rng).wan_shuffle_bytes);
    }
  }
  return table;
}

}  // namespace

RunResult run_serve_recurring(const RunArgs& args) {
  const ServeParams p = params_for(args.reduced);
  RunResult res;
  CheckLog& checks = res.checks;
  std::vector<Metric>& m = res.metrics;

  // --- set-up: every input set prepared setup_repeats times ------------
  SetupStats setups;
  std::vector<PreparedController> inputs;
  std::vector<std::uint64_t> seeds;
  for (std::size_t j = 0; j < p.inputs; ++j) {
    const bc::ExperimentConfig cfg = input_config(p, args.seed, j);
    seeds.push_back(cfg.seed);
    for (std::size_t rep = 0; rep < p.setup_repeats; ++rep) {
      PreparedController prepared = timed_setup(cfg);
      setups.add(prepared);
      checks.expect(
          fractions_valid(prepared.progress.report.decision.reduce_fractions),
          "reduce fractions must be >= 0 and sum to 1");
      if (rep + 1 == p.setup_repeats) inputs.push_back(std::move(prepared));
    }
  }

  // --- timed query phase: run_serving at the nominal rate --------------
  std::vector<bs::ServeOptions> nominal;
  std::vector<Admission> nominal_admission;
  for (std::size_t j = 0; j < p.inputs; ++j) {
    nominal.push_back(
        serve_options(p, seeds[j], p.rates[p.nominal], p.nominal_queries));
    nominal_admission.push_back(admit(inputs[j].controller, nominal.back()));
  }
  // Call k serves input k % inputs; a rotation serves every input once.
  // Runs end on a whole rotation.
  std::vector<bs::ServeReport> first(p.inputs);
  MixThroughput traced_qps(p.inputs), untraced_qps(p.inputs);
  const double start = now_seconds();
  for (std::size_t k = 0;; ++k) {
    const std::size_t j = k % p.inputs;
    const std::size_t rotation = k / p.inputs;
    // The traced run alternates traced and untraced rotations; their
    // difference is the tracing overhead.
    const bool traced = args.trace && rotation % 2 == 0;
    tracer().set_enabled(traced);
    const double scale = reference_scale();
    const double t0 = now_seconds();
    bs::ServeReport r = serve(inputs[j].controller, nominal[j]);
    const double busy = now_seconds() - t0;
    res.queries += r.queries;
    (traced ? traced_qps : untraced_qps)
        .add(j, static_cast<double>(r.queries), busy / scale);
    if (rotation == 0) {
      checks.expect(served_exactly_once(nominal_admission[j].arrivals,
                                        nominal_admission[j].batches, r,
                                        p.tenants),
                    "every arrival must be served exactly once per tenant");
      checks.expect(percentiles_ordered(r.summary),
                    "p50 <= p99 <= max at the nominal rate");
      first[j] = std::move(r);
    } else {
      checks.expect(r.qct.digest() == first[j].qct.digest(),
                    "a repeated serving run must reproduce its digest");
    }
    const bool both =
        !args.trace || (traced_qps.complete() && untraced_qps.complete());
    if (j + 1 == p.inputs && both && now_seconds() - start >= args.seconds) {
      break;
    }
  }
  tracer().set_enabled(args.trace);

  // --- sweep of fixed offered rates (untimed) --------------------------
  struct RateResult {
    bohr::LatencyRecorder pooled;
    double backlog_seconds = 0.0;  ///< worst drain time past the last arrival
    std::uint32_t first_digest = 0;
  };
  std::vector<RateResult> sweep(p.rates.size());
  for (std::size_t ri = 0; ri < p.rates.size(); ++ri) {
    for (std::size_t j = 0; j < p.inputs; ++j) {
      bs::ServeReport report;
      Admission admission;
      if (ri == p.nominal) {
        report = first[j];
        admission = nominal_admission[j];
      } else {
        const bs::ServeOptions o =
            serve_options(p, seeds[j], p.rates[ri], p.sweep_queries);
        admission = admit(inputs[j].controller, o);
        report = serve(inputs[j].controller, o);
        res.queries += report.queries;
        checks.expect(served_exactly_once(admission.arrivals,
                                          admission.batches, report, p.tenants),
                      "every arrival must be served exactly once per tenant");
        checks.expect(percentiles_ordered(report.summary),
                      "p50 <= p99 <= max at every swept rate");
      }
      if (j == 0) sweep[ri].first_digest = report.qct.digest();
      sweep[ri].pooled.merge(report.qct);
      const double last_arrival =
          admission.arrivals.empty() ? 0.0 : admission.arrivals.back().time;
      sweep[ri].backlog_seconds = std::max(
          sweep[ri].backlog_seconds, report.makespan_seconds - last_arrival);
    }
    checks.expect(percentiles_ordered(sweep[ri].pooled.summarize(0.0)),
                  "p50 <= p99 <= max over the pooled samples of every rate");
  }

  // The latency digest may not depend on the worker thread count.
  {
    const std::size_t threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 2, 8);
    const bs::ServeOptions o =
        serve_options(p, seeds[0], p.rates.front(),
                      p.nominal == 0 ? p.nominal_queries : p.sweep_queries);
    bohr::set_thread_count(threads);
    const bs::ServeReport wide = bs::run_serving(inputs[0].controller, o);
    bohr::set_thread_count(1);
    res.queries += wide.queries;
    checks.expect(wide.qct.digest() == sweep.front().first_digest,
                  "latency digest at 1 thread must equal the digest at " +
                      std::to_string(threads) + " threads");
  }

  // --- modeled WAN bytes and repeat share of the nominal traces ---------
  std::vector<std::vector<std::vector<double>>> tables;
  double wan_bytes = 0.0;
  std::size_t repeats = 0, arrivals = 0, batches = 0;
  for (std::size_t j = 0; j < p.inputs; ++j) {
    tables.push_back(shuffle_table(inputs[j].controller));
    wan_bytes += inputs[j].progress.report.bytes_moved;
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const bs::QueryArrival& q : nominal_admission[j].arrivals) {
      wan_bytes += tables[j][q.dataset][q.type_spec];
      if (!seen.insert({q.dataset, q.type_spec}).second) ++repeats;
    }
    arrivals += nominal_admission[j].arrivals.size();
    batches += nominal_admission[j].batches.size();
  }

  bohr::LatencyRecorder pooled;
  for (const bs::ServeReport& r : first) pooled.merge(r.qct);
  const bohr::LatencySummary nominal_summary = pooled.summarize(0.0);
  std::fprintf(stderr, "qct percentiles over %zu samples\n",
               nominal_summary.count);

  if (!args.trace) {
    m.push_back({"host_qps", untraced_qps.qps(), "queries/s"});
    m.push_back({"setup_s", setups.median_seconds(), "s"});
    m.push_back({"qct_p50_s", nominal_summary.p50_seconds, "s"});
    m.push_back({"qct_p99_s", nominal_summary.p99_seconds, "s"});
    m.push_back({"wan_gb", wan_bytes / 1e9, "GB"});
    return res;
  }

  // --- traced run: per-query spans over the first input's nominal trace
  EngineTally tally;
  std::size_t impure = 0;
  const PhaseTotals before = PhaseTotals::take();
  for (const bs::QueryArrival& q : nominal_admission[0].arrivals) {
    bohr::Rng rng(bohr::hash_combine(seeds[0], q.seq));
    bohr::engine::JobResult r;
    {
      ScopedSpan span("core.run_single_query");
      r = inputs[0].controller.run_single_query(q.dataset, q.type_spec,
                                                nullptr, rng);
    }
    tally.add(r);
    if (r.wan_shuffle_bytes != tables[0][q.dataset][q.type_spec]) ++impure;
    ++res.queries;
  }
  const auto rdd = PhaseTotals::delta(before, PhaseTotals::take(),
                                      {"dimsum.", "kmeans."});
  checks.expect(impure == 0,
                "a query's WAN bytes must depend only on (dataset, type)");

  double slo_qps = 0.0;
  for (std::size_t ri = 0; ri < p.rates.size(); ++ri) {
    const bohr::LatencySummary s = sweep[ri].pooled.summarize(0.0);
    m.push_back({"serve.qct_p99_r" + std::to_string(ri + 1), s.p99_seconds, "s"});
    if (s.p99_seconds <= p.p99_limit_seconds &&
        sweep[ri].backlog_seconds <= p.p99_limit_seconds) {
      slo_qps = std::max(slo_qps, p.rates[ri]);
    }
  }
  m.push_back({"serve.backlog_s", sweep.back().backlog_seconds, "s"});
  m.push_back({"serve.idle_qct_p50_s",
               sweep.front().pooled.summarize(0.0).p50_seconds, "s"});
  m.push_back({"serve.slo_qps", slo_qps, "queries/s"});
  m.push_back({"serve.arrivals", static_cast<double>(arrivals), "count"});
  m.push_back({"serve.batches", static_cast<double>(batches), "count"});
  m.push_back({"serve.repeat_share",
               static_cast<double>(repeats) / static_cast<double>(arrivals),
               "share"});
  m.push_back({"similarity.rdd_s", rdd.first, "s"});
  m.push_back({"similarity.rdd_calls", static_cast<double>(rdd.second), "count"});
  add_query_span_metrics(m);
  tally.add_engine_metrics(m);
  setups.add_layer_metrics(m);
  checkpoint_round_trip(inputs[0], input_config(p, args.seed, 0),
                        (std::filesystem::path(args.work_dir) / "checkpoint")
                            .string(),
                        checks, m);
  add_trace_metrics(m, traced_qps, untraced_qps);
  return res;
}

}  // namespace perfbench

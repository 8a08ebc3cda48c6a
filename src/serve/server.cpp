#include "serve/server.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace bohr::serve {

ServeReport run_serving(const core::Controller& controller,
                        const ServeOptions& options) {
  BOHR_EXPECTS(options.slots > 0);
  const auto& datasets = controller.datasets();
  BOHR_EXPECTS(!datasets.empty());

  std::vector<std::size_t> types_per_dataset;
  types_per_dataset.reserve(datasets.size());
  for (const auto& d : datasets) {
    types_per_dataset.push_back(d.bundle().query_types.size());
  }
  const std::vector<QueryArrival> arrivals =
      generate_arrivals(options.arrivals, datasets.size(), types_per_dataset);
  const std::vector<QueryBatch> batches =
      form_batches(arrivals, options.arrivals.tenants, options.batching);

  ServeReport report;
  report.queries = arrivals.size();
  report.batches = batches.size();
  if (batches.empty()) {
    report.summary = report.qct.summarize(options.arrivals.duration_seconds);
    report.tenant_summary.resize(options.arrivals.tenants);
    return report;
  }

  // Migration epochs: step the elastic controller once per period up to
  // the last admission close, snapshotting the bucket map after each
  // step. A batch executes under the map of the epoch its admission
  // closed in — pinned to admission time, never to queueing completion,
  // so placement does not depend on the (load-dependent) backlog.
  const double period = options.migration_period_seconds;
  std::vector<engine::ReduceBucketMap> epoch_buckets;
  if (period > 0.0) {
    const double last_close = batches.back().close_time;
    const auto epochs =
        static_cast<std::size_t>(std::floor(last_close / period)) + 1;
    core::MigrationController migctl(
        controller.topology(),
        controller.prepare_report().decision.reduce_fractions,
        options.migration);
    epoch_buckets.reserve(epochs);
    for (std::size_t e = 0; e < epochs; ++e) {
      const core::MigrationRound& round =
          migctl.step(options.faults, static_cast<double>(e) * period);
      report.migrations += round.moves;
      report.evacuations += round.evacuations;
      epoch_buckets.push_back(migctl.buckets());
    }
    report.migration_epochs = epochs;
  }
  const auto buckets_for =
      [&](double close_time) -> const engine::ReduceBucketMap* {
    if (epoch_buckets.empty()) return nullptr;
    const auto e = static_cast<std::size_t>(std::floor(close_time / period));
    return &epoch_buckets[std::min(e, epoch_buckets.size() - 1)];
  };

  // Phase 1 (parallel): per-query modeled service times. Each query's
  // RNG derives from (seed, seq); each body writes only its own batch's
  // slot, so thread count cannot perturb any value.
  std::vector<std::vector<double>> service(batches.size());
  std::vector<std::size_t> flow_events(batches.size(), 0);
  parallel_for(batches.size(), [&](std::size_t b) {
    const QueryBatch& batch = batches[b];
    const engine::ReduceBucketMap* buckets = buckets_for(batch.close_time);
    auto& times = service[b];
    times.reserve(batch.queries.size());
    for (const std::size_t qi : batch.queries) {
      const QueryArrival& q = arrivals[qi];
      Rng rng(hash_combine(options.arrivals.seed,
                           hash_combine(q.seq, 0x5E12E)));
      const engine::JobResult r = controller.run_single_query(
          q.dataset, q.type_spec, buckets, rng);
      times.push_back(r.qct_seconds * q.work_scale);
      flow_events[b] += r.shuffle_flow_events;
    }
  });

  // Phase 2 (serial): virtual-time queueing over the execution slots.
  // Batches start in canonical close order on the earliest-free slot
  // (ties to the lower slot id); queries within a batch run back to
  // back. Samples are recorded in (batch, in-batch) order — the digest
  // contract of the serving loop.
  std::vector<double> slot_free(options.slots, 0.0);
  std::vector<LatencyRecorder> tenant_qct(options.arrivals.tenants);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const QueryBatch& batch = batches[b];
    std::size_t slot = 0;
    for (std::size_t s = 1; s < slot_free.size(); ++s) {
      if (slot_free[s] < slot_free[slot]) slot = s;
    }
    double now = std::max(batch.close_time, slot_free[slot]);
    for (std::size_t k = 0; k < batch.queries.size(); ++k) {
      now += service[b][k];
      const double qct = now - arrivals[batch.queries[k]].time;
      report.qct.add(qct);
      tenant_qct[batch.tenant].add(qct);
    }
    slot_free[slot] = now;
    report.makespan_seconds = std::max(report.makespan_seconds, now);
    report.shuffle_flow_events += flow_events[b];
  }

  report.summary = report.qct.summarize(options.arrivals.duration_seconds);
  report.tenant_summary.reserve(tenant_qct.size());
  for (const auto& rec : tenant_qct) {
    report.tenant_summary.push_back(rec.summarize(0.0));
  }
  return report;
}

}  // namespace bohr::serve

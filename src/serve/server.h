// Online multi-tenant serving loop over a prepared Bohr controller.
//
// The server admits the deterministic arrival trace through per-tenant
// batching, executes batches on a fixed number of concurrent slots, and
// reports tail latency (p50/p95/p99/max query completion time) rather
// than means. Time is the run clock throughout: a query's QCT is
// (virtual completion - arrival), so results are independent of host
// speed AND of the worker thread count.
//
// Determinism at any thread count comes from a two-phase split:
//
//  1. *Compute phase (parallel).* Every batch's per-query service times
//     are computed concurrently over shared controller state — each
//     query runs Controller::run_single_query with its own RNG stream
//     derived from (seed, seq) — and written to preallocated slots.
//     No ordering between batches matters because nothing is shared.
//  2. *Queueing phase (serial).* A virtual-time discrete-event loop
//     walks batches in canonical close order, assigns each to the
//     earliest-free slot (ties to the lower slot id), and records
//     latency samples in (batch, in-batch seq) order. The digest of the
//     LatencyRecorder is therefore byte-identical for every thread
//     count and every rerun of the same seed.
//
// Migration rides the same clock: the elastic controller steps once per
// `migration_period_seconds` epoch, and a batch executes under the
// bucket map of the epoch its admission closed in — pinning the map to
// admission time breaks the circular dependency between queueing delays
// and placement churn.
#pragma once

#include <cstdint>
#include <vector>

#include "common/latency.h"
#include "core/controller.h"
#include "core/migration.h"
#include "serve/admission.h"
#include "serve/arrival.h"

namespace bohr::serve {

struct ServeOptions {
  ArrivalConfig arrivals;
  BatchingPolicy batching;
  /// Concurrent batch-execution slots (the cluster's admission width).
  std::size_t slots = 4;
  /// Elastic-migration cadence on the run clock; <= 0 disables the
  /// migration controller and serves on the raw LP fractions.
  double migration_period_seconds = 10.0;
  core::MigrationOptions migration;
  /// Fault plan the migration health probes see (empty = steady state).
  net::FaultPlan faults;
};

struct ServeReport {
  /// Per-query QCT samples in canonical (batch, in-batch) order — the
  /// byte-identity digest of the whole serving run lives here.
  LatencyRecorder qct;
  /// summarize(duration): percentiles + offered-window throughput.
  LatencySummary summary;
  /// Per-tenant percentile views (same canonical sample order).
  std::vector<LatencySummary> tenant_summary;
  std::size_t queries = 0;
  std::size_t batches = 0;
  /// Virtual completion time of the last batch (>= duration under
  /// overload: the backlog drains past the admission window).
  double makespan_seconds = 0.0;
  /// Shuffle flow-simulation events summed over every served query
  /// (engine::JobResult::shuffle_flow_events): deterministic, so gated
  /// exactly.
  std::size_t shuffle_flow_events = 0;
  // Migration-plane counters (all zero when the cadence is off).
  std::size_t migration_epochs = 0;
  std::size_t migrations = 0;
  std::size_t evacuations = 0;
};

/// Runs the serving loop. The controller must have completed prepare();
/// execution only reads it (run_single_query is const and re-entrant).
ServeReport run_serving(const core::Controller& controller,
                        const ServeOptions& options);

}  // namespace bohr::serve

// Elastic load-migration controller (robustness): survive site churn by
// moving reduce buckets, not re-planning.
//
// The controller closes the loop between the fault plane and placement.
// A SiteHealthMonitor probes every site against the fault plan; when a
// site dies, flaps into quarantine, or degrades (slow link or slow
// compute), the controller relocates that site's reduce buckets to
// underloaded healthy sites as an incremental movement delta — the joint
// LP never re-runs, which is the point: a placement re-solve costs a
// full probe + LP round, a bucket move costs one WAN transfer of
// buffered shuffle state.
//
// Rebalancing is headroom-driven (the NFV-controller pattern): a site
// whose effective load exceeds `migrate_headroom` x the mean sheds
// buckets, and only sites below `assign_headroom` x the mean receive
// them, so the controller neither thrashes around the mean nor piles
// work onto an already-warm site.
//
// Everything is deterministic: the same seed and the same fault plan
// produce byte-identical migration decisions and a byte-identical log
// (ties break to the lower site id / lower bucket id everywhere). The
// full controller state serializes into the checkpoint snapshots, so a
// crash mid-migration recovers to the same final placement.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/movement.h"
#include "engine/partitioner.h"
#include "net/faults.h"
#include "net/site_health.h"
#include "net/topology.h"

namespace bohr::core {

struct MigrationOptions {
  /// Number of relocatable reduce buckets the LP fractions quantize
  /// into. More buckets = finer moves, more bookkeeping.
  std::size_t buckets = 64;
  /// A site sheds buckets when its effective load exceeds this multiple
  /// of the mean usable-site load.
  double migrate_headroom = 1.25;
  /// A site receives buckets only while below this multiple of the mean
  /// (receiving must not immediately create the next hot site).
  double assign_headroom = 1.05;
  /// Rebalance moves per round (evacuations of dead/quarantined sites
  /// are not capped — stranded buckets would stall the query).
  std::size_t max_moves_per_round = 8;
  /// Buffered shuffle state carried by one bucket move, for costing the
  /// movement delta on the WAN.
  double bucket_state_bytes = 4.0e6;
  net::HealthOptions health;
};

/// What one controller round decided.
struct MigrationRound {
  std::size_t round = 0;
  double now = 0.0;          ///< run-clock time of the round
  std::size_t evacuations = 0;  ///< buckets moved off dead/quarantined sites
  std::size_t moves = 0;        ///< headroom rebalance moves
  double delta_bytes = 0.0;     ///< WAN bytes of this round's delta plan
  double delta_seconds = 0.0;   ///< simulated makespan of the delta
  std::string health;           ///< SiteHealthMonitor::describe() snapshot
};

class MigrationController {
 public:
  /// Quantizes `reduce_fractions` (the LP's standing placement) into
  /// `options.buckets` relocatable buckets via largest-remainder
  /// apportionment. `topology` is borrowed and must outlive the
  /// controller.
  MigrationController(const net::WanTopology& topology,
                      const std::vector<double>& reduce_fractions,
                      MigrationOptions options = {});

  /// One control round at run-clock `now` (monotone): probes site
  /// health against `plan`, evacuates buckets off unusable sites, then
  /// rebalances hot sites within the headroom thresholds. Returns the
  /// round's decisions; the bucket map is mutated in place.
  const MigrationRound& step(const net::FaultPlan& plan, double now);

  const engine::ReduceBucketMap& buckets() const { return buckets_; }
  const net::SiteHealthMonitor& health() const { return health_; }
  const MigrationOptions& options() const { return options_; }

  std::size_t rounds() const { return rounds_; }
  std::size_t total_moves() const { return total_moves_; }
  std::size_t total_evacuations() const { return total_evacuations_; }
  double total_delta_bytes() const { return total_delta_bytes_; }

  /// Deterministic decision log, one line per round; the byte-identity
  /// contract of the migration tests runs through this.
  const std::string& log() const { return log_; }
  std::uint32_t log_digest() const;

  /// Checkpointing: flat byte image of the controller (bucket map,
  /// health monitor, counters, log) and its inverse. Restore requires a
  /// controller constructed with the same topology and options and
  /// throws ContractViolation (DecodeError for malformed bytes).
  std::string serialize() const;
  void restore(std::string_view image);

 private:
  const net::WanTopology* topology_;  ///< not owned
  engine::ReduceBucketMap buckets_;
  net::SiteHealthMonitor health_;
  MigrationOptions options_;
  MigrationRound last_round_;
  std::size_t rounds_ = 0;
  std::size_t total_moves_ = 0;
  std::size_t total_evacuations_ = 0;
  double total_delta_bytes_ = 0.0;
  std::string log_;
};

}  // namespace bohr::core

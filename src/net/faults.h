// Deterministic WAN fault injection: timed site outages, link
// degradations, probe-message loss, and mid-flight flow kills, plus the
// retry policy that governs how interrupted transfers recover.
//
// Faults are a *plan*, not a random process: every event is fixed up
// front and probe loss is decided by a stable hash of (dataset, sender,
// receiver, seed), so a faulted run is exactly as reproducible as a
// clean one. An empty plan is guaranteed inert — `simulate_flows`
// delegates to the same engine with an empty plan, so the no-fault path
// is literally the same arithmetic.
//
// Times inside a plan are phase-local: the probe exchange, the movement
// window, and each query's shuffle all start their own clock at 0.
// Events carry a phase mask so one spec can target (say) only the probe
// phase; `restricted_to` projects a plan onto one phase.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/topology.h"
#include "net/transfer.h"

namespace bohr::net {

/// Wildcard site id for FlowKill endpoints ("any src"/"any dst").
inline constexpr SiteId kAnySite = static_cast<SiteId>(-1);

/// Phases of the recurring-query lifecycle a fault can apply to.
enum FaultPhase : unsigned {
  kPhaseProbe = 1u << 0,     ///< similarity probe exchange (§4.2)
  kPhaseMovement = 1u << 1,  ///< pre-query data movement in the lag T
  kPhaseQuery = 1u << 2,     ///< query-time shuffle
  kPhaseAll = kPhaseProbe | kPhaseMovement | kPhaseQuery,
};

/// Site `site` is unreachable in [start, end): it neither sends nor
/// receives, and in-flight flows touching it are interrupted at `start`.
struct OutageWindow {
  SiteId site = 0;
  double start = 0.0;
  double end = 0.0;
  unsigned phases = kPhaseAll;
};

/// The site's access link runs at `factor` of its nominal capacity in
/// [start, end). factor in [0, 1]; 0 behaves like an outage of the link.
struct LinkDegradation {
  SiteId site = 0;
  double start = 0.0;
  double end = 0.0;
  double factor = 1.0;
  bool uplink = true;
  bool downlink = true;
  unsigned phases = kPhaseAll;
};

/// Kill every in-flight flow matching (src, dst) at `time`; kAnySite
/// matches any endpoint. Killed flows retry per the RetryPolicy.
struct FlowKill {
  double time = 0.0;
  SiteId src = kAnySite;
  SiteId dst = kAnySite;
  unsigned phases = kPhaseAll;
};

/// Site `site` computes at 1/factor of its nominal speed in [start, end):
/// map and reduce work there takes `factor`x longer. Models a hot,
/// oversubscribed, or straggling site (churn) without touching its links
/// — the signal the elastic migration controller reacts to.
struct SiteSlowdown {
  SiteId site = 0;
  double start = 0.0;
  double end = 0.0;
  double factor = 4.0;  ///< slowdown multiple, >= 1
  unsigned phases = kPhaseAll;
};

/// How interrupted flows recover. An interrupted flow becomes eligible
/// again at max(interruption + backoff, outage recovery); with `resume`
/// it keeps the bytes already delivered, otherwise it restarts from
/// zero. A flow interrupted more than `max_retries` times is abandoned
/// (recorded as a failure, never a hang).
struct RetryPolicy {
  std::size_t max_retries = 8;
  double backoff_base_seconds = 0.5;  ///< doubles per retry (exponential)
  double backoff_cap_seconds = 60.0;
  bool resume = true;
};

/// Storage-level fault applied to one file written through the
/// checkpoint subsystem's fault hook. Files are counted 0-based in the
/// order they are written across the whole run, so a plan can target
/// e.g. "the first file of the second snapshot" deterministically.
struct StorageFault {
  enum class Kind {
    kTornWrite,  ///< only a prefix of the bytes reaches the disk
    kBitFlip,    ///< one bit is flipped in the on-disk bytes
  };
  Kind kind = Kind::kTornWrite;
  std::size_t file_index = 0;
  double fraction = 0.5;  ///< torn write: fraction of bytes kept, [0,1)
  std::size_t bit = 0;    ///< bit flip: flat bit offset into the file
};

/// A full fault schedule plus the control-plane faults that have no
/// timeline (probe loss probability, forced LP failure) and the
/// process/storage faults used by the checkpoint/recovery tests.
struct FaultPlan {
  std::vector<OutageWindow> outages;
  std::vector<LinkDegradation> degradations;
  std::vector<FlowKill> kills;
  std::vector<SiteSlowdown> slowdowns;
  /// Per-probe-report loss probability in [0, 1]; decided by a stable
  /// hash of (dataset, sender, receiver, seed) — no RNG draws.
  double probe_loss_probability = 0.0;
  /// Force the joint LP to report non-convergence (tests the Iridium
  /// fallback without relying on simplex numerics).
  bool lp_failure = false;
  std::uint64_t seed = 0xB04AFA17u;
  RetryPolicy retry;
  /// Kill the process right after the named prepare phase completes
  /// (empty = never). Honoured by the checkpointed pipeline, which
  /// throws CrashInjected at the phase boundary.
  std::string crash_after_phase;
  /// Storage faults applied by the checkpoint subsystem's write hook.
  std::vector<StorageFault> storage_faults;

  /// True iff the plan injects nothing at all (the inert plan).
  bool empty() const;
  /// True iff no *data-plane* faults exist: WAN events, probe loss, or
  /// forced LP failure. Crash and storage faults do not perturb the
  /// data plane, so a plan carrying only those must not change what the
  /// controller computes — recovery's byte-identity guarantee depends
  /// on this distinction.
  bool data_plane_quiet() const;
  /// True iff no WAN-level events exist (the flow simulator's fast path
  /// even when control-plane faults like lp_failure are set).
  bool wan_quiet() const;
  std::size_t event_count() const {
    return outages.size() + degradations.size() + kills.size() +
           slowdowns.size();
  }

  /// Projection of this plan onto one phase's local clock. Process and
  /// storage faults are deliberately dropped: they belong to the whole
  /// run, not to any simulated transfer phase.
  FaultPlan restricted_to(unsigned phase) const;

  /// Re-bases the timed events onto a clock that starts `offset` seconds
  /// into this plan's clock: window edges and kill times shift earlier by
  /// `offset`, events entirely in the past are dropped, and windows
  /// straddling the new origin are clamped to start at 0. The churn
  /// runner uses this to project one run-clock plan onto each recurring
  /// query's phase-local clock. Untimed faults (probe loss, lp-failure,
  /// retry policy) carry over; process/storage faults are dropped like in
  /// restricted_to.
  FaultPlan shifted_by(double offset) const;

  /// Is `site` inside an outage window at time `t`?
  bool site_dark_at(SiteId site, double t) const;
  /// Earliest time > t at which the end of an outage covering (site, t)
  /// passes; returns `t` when the site is not dark.
  double recovery_time(SiteId site, double t) const;
  /// Capacity multipliers at time `t` (0 while the site is dark).
  double uplink_factor(SiteId site, double t) const;
  double downlink_factor(SiteId site, double t) const;
  /// Compute-slowdown multiple at time `t` (1 when no slow-site window
  /// covers it; the max factor when several overlap).
  double compute_slowdown(SiteId site, double t) const;
  /// Next event edge (window start/end or kill time) strictly after `t`;
  /// +inf when none remain.
  double next_event_after(double t) const;
  /// Stable-hash decision: is the probe report `from` -> `to` for
  /// dataset `dataset_id` lost?
  bool probe_lost(std::size_t dataset_id, SiteId from, SiteId to) const;

  /// Throws ContractViolation unless every window is well-formed
  /// (finite, end > start, factor in [0,1], probability in [0,1]).
  void validate() const;
};

/// Parses the `--faults` mini-language. Clauses are ';'-separated:
///   outage:site=S,start=A,end=B[,phases=P]
///   degrade:site=S,start=A,end=B,factor=F[,link=up|down|both][,phases=P]
///   kill:time=T[,src=S][,dst=S][,phases=P]
///   slow-site:site=S,start=A,end=B[,factor=F][,phases=P]
///   probe-loss:p=F[,seed=N]
///   retry:max=N,base=S[,cap=S][,mode=resume|restart]
///   lp-failure
///   crash:phase=NAME
///   torn-write:file=N[,fraction=F]
///   bit-flip:file=N[,bit=B]
/// where P is '+'-joined phase names from {probe, move, query}.
/// Throws ContractViolation with a message naming the bad clause.
FaultPlan parse_fault_plan(const std::string& spec);

/// Per-flow outcome of a faulted simulation, index-aligned with input.
struct FaultyFlowResult {
  double finish_time = 0.0;  ///< completion, or abandonment time if failed
  double mean_rate = 0.0;    ///< delivered bytes / wall duration
  /// Bytes that reached the destination (== bytes when completed).
  double delivered_bytes = 0.0;
  /// Bytes that had reached the destination by the deadline.
  double delivered_by_deadline = 0.0;
  std::size_t retries = 0;
  bool completed = true;
};

struct FaultSimReport {
  std::vector<FaultyFlowResult> flows;
  std::size_t interruptions = 0;  ///< outage/kill hits on in-flight flows
  std::size_t retries = 0;        ///< re-attempts scheduled
  std::size_t failures = 0;       ///< flows abandoned after max_retries
  double makespan = 0.0;          ///< last finish (or abandonment) time
  /// Deterministic work counters: clock advances of the event loop (a
  /// rate allocation, or a jump to the next arrival or fault edge while
  /// no flow is active) and progressive-filling iterations summed over
  /// every allocation.
  std::size_t events = 0;
  std::size_t fill_iterations = 0;
};

/// Fluid simulation under a fault plan: piecewise-constant link
/// capacities, interrupted flows retrying under exponential backoff.
/// With an empty plan and an infinite deadline this reproduces
/// `simulate_flows` bit for bit; any WAN-quiet plan skips the fault
/// work entirely. `deadline` only affects the delivered_by_deadline
/// bookkeeping, never the dynamics.
FaultSimReport simulate_flows_with_faults(
    const WanTopology& topo, const std::vector<Flow>& flows,
    const FaultPlan& plan,
    double deadline = std::numeric_limits<double>::infinity());

}  // namespace bohr::net

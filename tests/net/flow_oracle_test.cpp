// Differential oracle for the flow simulator. `oracle_simulate` below is
// the event loop and progressive filler the simulator used before its
// per-flow state became compact arrays, copied verbatim apart from the
// two work counters marked "not in the original". It is test code only:
// the library has one simulator. Every comparison is bit for bit, over
// every FaultyFlowResult field and the report's counts, makespan and
// work counters, so the rewrite may neither move a digest nor change
// the event structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "net/faults.h"
#include "net/transfer.h"

namespace bohr::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A "link" is either a site uplink (index s) or downlink (index S + s).
std::size_t uplink_index(SiteId s) { return s; }
std::size_t downlink_index(std::size_t site_count, SiteId s) {
  return site_count + s;
}

/// Progressive filling against explicit per-link capacities (2S entries:
/// uplinks then downlinks). Shared by the pristine and faulted paths so
/// both see the identical allocation arithmetic. The buffers persist
/// across fill() calls, so an event loop allocates nothing per event.
class MaxMinFiller {
 public:
  /// Rates index-aligned with `flows`; valid until the next fill().
  const std::vector<double>& fill(const std::vector<double>& capacity,
                                  const std::vector<Flow>& flows) {
    const std::size_t n_links = capacity.size();
    const std::size_t n_sites = n_links / 2;

    rates_.assign(flows.size(), 0.0);
    fixed_.assign(flows.size(), false);
    // Intra-site flows do not traverse the WAN; fix them at rate 0 up
    // front.
    std::size_t undetermined = 0;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      BOHR_EXPECTS(flows[f].src < n_sites && flows[f].dst < n_sites);
      if (flows[f].src == flows[f].dst) {
        fixed_[f] = true;
      } else {
        ++undetermined;
      }
    }

    // Progressive filling: raise the common rate `level` of all
    // undetermined flows until some link saturates; freeze flows on
    // saturated links; repeat. Each iteration freezes at least one flow,
    // so it terminates. A zero-capacity link (site outage) saturates at
    // level 0, freezing its flows at rate 0.
    double level = 0.0;
    iterations = 0;  // counter: not in the original
    while (undetermined > 0) {
      ++iterations;  // counter: not in the original
      flows_on_link_.assign(n_links, 0);
      fixed_load_.assign(n_links, 0.0);
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (flows[f].src == flows[f].dst) continue;
        const std::size_t up = uplink_index(flows[f].src);
        const std::size_t down = downlink_index(n_sites, flows[f].dst);
        if (fixed_[f]) {
          fixed_load_[up] += rates_[f];
          fixed_load_[down] += rates_[f];
        } else {
          ++flows_on_link_[up];
          ++flows_on_link_[down];
        }
      }
      // For each link carrying an undetermined flow, the level at which
      // it would saturate.
      double next_level = kInf;
      saturation_.assign(n_links, kInf);
      for (std::size_t l = 0; l < n_links; ++l) {
        if (flows_on_link_[l] == 0) continue;
        saturation_[l] = (capacity[l] - fixed_load_[l]) /
                         static_cast<double>(flows_on_link_[l]);
        next_level = std::min(next_level, saturation_[l]);
      }
      BOHR_CHECK(next_level < kInf);
      level = std::max(level, next_level);

      // Freeze flows whose path contains a saturated link at this level.
      bool froze_any = false;
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (fixed_[f] || flows[f].src == flows[f].dst) continue;
        const double up_sat = saturation_[uplink_index(flows[f].src)];
        const double down_sat =
            saturation_[downlink_index(n_sites, flows[f].dst)];
        if (std::min(up_sat, down_sat) <= level * (1.0 + 1e-12)) {
          rates_[f] = level;
          fixed_[f] = true;
          --undetermined;
          froze_any = true;
        }
      }
      BOHR_CHECK(froze_any);
    }
    return rates_;
  }

  std::size_t iterations = 0;  // counter: not in the original

 private:
  std::vector<double> rates_;
  std::vector<bool> fixed_;
  std::vector<std::size_t> flows_on_link_;
  std::vector<double> fixed_load_;
  std::vector<double> saturation_;
};


FaultSimReport oracle_simulate(const WanTopology& topo, std::vector<Flow> flows,
                               const FaultPlan& plan,
                               double deadline = kInf) {
  const std::size_t n_sites = topo.site_count();
  plan.validate();

  FaultSimReport report;
  report.flows.assign(flows.size(), FaultyFlowResult{});
  std::vector<double> remaining(flows.size());
  std::vector<bool> done(flows.size(), false);
  std::vector<bool> failed(flows.size(), false);
  std::vector<std::size_t> attempts(flows.size(), 0);
  // Time from which a flow may (re)transmit: its arrival, then pushed
  // forward by backoff + outage recovery on each interruption.
  std::vector<double> eligible(flows.size(), 0.0);
  std::vector<bool> kill_fired(plan.kills.size(), false);
  std::size_t unfinished = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    BOHR_EXPECTS(flows[f].bytes >= 0.0);
    BOHR_EXPECTS(flows[f].start_time >= 0.0);
    remaining[f] = flows[f].bytes;
    eligible[f] = flows[f].start_time;
    if (flows[f].bytes <= 0.0 || flows[f].src == flows[f].dst) {
      // Local or empty transfers never touch the WAN.
      report.flows[f].finish_time = flows[f].start_time;
      report.flows[f].mean_rate = 0.0;
      report.flows[f].delivered_bytes = flows[f].bytes;
      report.flows[f].delivered_by_deadline = flows[f].bytes;
      done[f] = true;
    } else {
      ++unfinished;
    }
  }

  const bool have_deadline = deadline < kInf;
  bool deadline_recorded = !have_deadline;
  const auto snapshot_deadline = [&] {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (done[f]) {
        report.flows[f].delivered_by_deadline = flows[f].bytes;
      } else if (plan.retry.resume) {
        report.flows[f].delivered_by_deadline =
            std::max(0.0, flows[f].bytes - remaining[f]);
      } else {
        // Restart semantics: an attempt delivers nothing until it
        // completes, so in-flight progress does not count.
        report.flows[f].delivered_by_deadline = 0.0;
      }
    }
    deadline_recorded = true;
  };

  const auto interrupt = [&](std::size_t f, double now) {
    ++report.interruptions;
    if (attempts[f] >= plan.retry.max_retries) {
      failed[f] = true;
      --unfinished;
      ++report.failures;
      report.flows[f].completed = false;
      report.flows[f].finish_time = now;
      report.flows[f].delivered_bytes =
          plan.retry.resume ? std::max(0.0, flows[f].bytes - remaining[f])
                            : 0.0;
      return;
    }
    ++attempts[f];
    ++report.retries;
    ++report.flows[f].retries;
    const double backoff =
        std::min(plan.retry.backoff_base_seconds *
                     std::pow(2.0, static_cast<double>(attempts[f] - 1)),
                 plan.retry.backoff_cap_seconds);
    double resume_at = now + backoff;
    resume_at = std::max(resume_at, plan.recovery_time(flows[f].src, now));
    resume_at = std::max(resume_at, plan.recovery_time(flows[f].dst, now));
    eligible[f] = resume_at;
    if (!plan.retry.resume) remaining[f] = flows[f].bytes;
  };

  // Per-event scratch, reused across events.
  std::vector<std::size_t> active_ids;
  std::vector<Flow> active;
  std::vector<double> capacity(2 * n_sites, 0.0);
  MaxMinFiller filler;
  double now = 0.0;
  while (unfinished > 0) {
    if (!deadline_recorded && now >= deadline - 1e-15) snapshot_deadline();

    // Fire due kill events against in-flight flows.
    for (std::size_t k = 0; k < plan.kills.size(); ++k) {
      if (kill_fired[k] || plan.kills[k].time > now + 1e-15) continue;
      kill_fired[k] = true;
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (done[f] || failed[f] || eligible[f] > now + 1e-15) continue;
        const bool src_match =
            plan.kills[k].src == kAnySite || plan.kills[k].src == flows[f].src;
        const bool dst_match =
            plan.kills[k].dst == kAnySite || plan.kills[k].dst == flows[f].dst;
        if (src_match && dst_match) interrupt(f, now);
      }
    }
    // A flow whose endpoint just went dark is interrupted (connection
    // reset), even if it only became eligible inside the outage.
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (done[f] || failed[f] || eligible[f] > now + 1e-15) continue;
      if (plan.site_dark_at(flows[f].src, now) ||
          plan.site_dark_at(flows[f].dst, now)) {
        interrupt(f, now);
      }
    }
    if (unfinished == 0) break;

    // Active = eligible and not finished. Pending = eligible later.
    active_ids.clear();
    double next_event = kInf;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (done[f] || failed[f]) continue;
      if (eligible[f] <= now + 1e-15) {
        active_ids.push_back(f);
      } else {
        next_event = std::min(next_event, eligible[f]);
      }
    }
    next_event = std::min(next_event, plan.next_event_after(now));
    if (!deadline_recorded && deadline > now + 1e-15) {
      next_event = std::min(next_event, deadline);
    }
    ++report.events;  // counter: not in the original
    if (active_ids.empty()) {
      BOHR_CHECK(next_event < kInf);
      now = next_event;
      continue;
    }

    // Effective capacities for this epoch (piecewise constant between
    // fault boundaries; factor 1 reproduces the nominal value exactly).
    for (SiteId s = 0; s < n_sites; ++s) {
      capacity[uplink_index(s)] =
          topo.uplink(s) * plan.uplink_factor(s, now);
      capacity[downlink_index(n_sites, s)] =
          topo.downlink(s) * plan.downlink_factor(s, now);
    }

    active.clear();
    for (const auto f : active_ids) active.push_back(flows[f]);
    const std::vector<double>& rates = filler.fill(capacity, active);
    report.fill_iterations += filler.iterations;  // counter: not in the original

    // Earliest event: a completion, an arrival/retry, a fault boundary,
    // or the deadline snapshot point.
    double dt = next_event - now;
    for (std::size_t k = 0; k < active_ids.size(); ++k) {
      if (rates[k] > 0.0) {
        dt = std::min(dt, remaining[active_ids[k]] / rates[k]);
      }
    }
    BOHR_CHECK(dt > 0.0 && dt < kInf);

    for (std::size_t k = 0; k < active_ids.size(); ++k) {
      const std::size_t f = active_ids[k];
      remaining[f] -= rates[k] * dt;
      if (remaining[f] <= flows[f].bytes * 1e-12 + 1e-9) {
        remaining[f] = 0.0;
        done[f] = true;
        --unfinished;
        report.flows[f].finish_time = now + dt;
        report.flows[f].delivered_bytes = flows[f].bytes;
        const double duration =
            report.flows[f].finish_time - flows[f].start_time;
        report.flows[f].mean_rate =
            duration > 0.0 ? flows[f].bytes / duration : 0.0;
      }
    }
    now += dt;
  }
  if (!deadline_recorded) snapshot_deadline();

  for (const auto& fr : report.flows) {
    report.makespan = std::max(report.makespan, fr.finish_time);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Comparison.

void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_identical(const FaultSimReport& want, const FaultSimReport& got) {
  ASSERT_EQ(want.flows.size(), got.flows.size());
  for (std::size_t f = 0; f < want.flows.size(); ++f) {
    const std::string at = "flow " + std::to_string(f);
    const FaultyFlowResult& w = want.flows[f];
    const FaultyFlowResult& g = got.flows[f];
    expect_same_bits(w.finish_time, g.finish_time, at + " finish_time");
    expect_same_bits(w.mean_rate, g.mean_rate, at + " mean_rate");
    expect_same_bits(w.delivered_bytes, g.delivered_bytes,
                     at + " delivered_bytes");
    expect_same_bits(w.delivered_by_deadline, g.delivered_by_deadline,
                     at + " delivered_by_deadline");
    EXPECT_EQ(w.retries, g.retries) << at;
    EXPECT_EQ(w.completed, g.completed) << at;
  }
  EXPECT_EQ(want.interruptions, got.interruptions);
  EXPECT_EQ(want.retries, got.retries);
  EXPECT_EQ(want.failures, got.failures);
  expect_same_bits(want.makespan, got.makespan, "makespan");
  EXPECT_EQ(want.events, got.events);
  EXPECT_EQ(want.fill_iterations, got.fill_iterations);
}

/// What the compared runs exercised, so a test can assert that its
/// cases reach the paths it claims to cover.
struct Coverage {
  std::size_t interruptions = 0;
  std::size_t failures = 0;
  std::size_t cut_by_deadline = 0;  ///< WAN flows unfinished at the deadline
};

void expect_matches_oracle(const WanTopology& topo,
                           const std::vector<Flow>& flows,
                           const FaultPlan& plan, Coverage& coverage,
                           double deadline = kInf) {
  const FaultSimReport got =
      simulate_flows_with_faults(topo, flows, plan, deadline);
  expect_identical(oracle_simulate(topo, flows, plan, deadline), got);
  coverage.interruptions += got.interruptions;
  coverage.failures += got.failures;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (got.flows[f].delivered_by_deadline < flows[f].bytes) {
      ++coverage.cut_by_deadline;
    }
  }
}

/// Sites with uneven, tiered access links (bytes/s).
WanTopology random_topology(Rng& rng, std::size_t sites) {
  std::vector<Site> out;
  for (std::size_t s = 0; s < sites; ++s) {
    const double up = 1e6 * static_cast<double>(1 + rng.below(5));
    const double down = up * rng.uniform(0.5, 2.0);
    out.push_back(Site{"s" + std::to_string(s), up, down});
  }
  return WanTopology(std::move(out));
}

/// Flows over random site pairs with staggered starts; about one in
/// eight is zero-byte and one in eight is intra-site.
std::vector<Flow> random_flows(Rng& rng, std::size_t sites, std::size_t n,
                               double mean_bytes, double start_spread) {
  std::vector<Flow> flows;
  for (std::size_t f = 0; f < n; ++f) {
    Flow flow;
    flow.src = static_cast<SiteId>(rng.below(sites));
    flow.dst = static_cast<SiteId>(rng.below(sites));
    if (rng.below(8) == 0) flow.dst = flow.src;
    flow.bytes = rng.below(8) == 0 ? 0.0 : rng.uniform(0.1, 2.0) * mean_bytes;
    flow.start_time =
        rng.below(3) == 0 ? 0.0 : rng.uniform(0.0, start_spread);
    flows.push_back(flow);
  }
  return flows;
}

/// The CI chaos soak's plan: a permanent outage, a slow site, a flow
/// kill and probe loss.
FaultPlan chaos_plan() {
  return parse_fault_plan(
      "outage:site=0,start=30,end=100000;"
      "slow-site:site=2,start=60,end=400,factor=6;kill:time=150;"
      "probe-loss:p=0.2");
}

TEST(FlowOracleTest, RandomFlowSetsOnQuietPlans) {
  Rng rng(2024);
  Coverage coverage;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t sites = 2 + rng.below(11);
    const WanTopology topo = random_topology(rng, sites);
    const auto flows = random_flows(rng, sites, 1 + rng.below(120), 5e6,
                                    rng.uniform(0.0, 20.0));
    expect_matches_oracle(topo, flows, FaultPlan{}, coverage);
    // Control-plane-only faults leave the plan WAN-quiet.
    FaultPlan slow;
    slow.slowdowns.push_back(SiteSlowdown{0, 1.0, 5.0, 3.0});
    slow.lp_failure = true;
    expect_matches_oracle(topo, flows, slow, coverage);
  }
  EXPECT_EQ(coverage.interruptions, 0u);
}

TEST(FlowOracleTest, PaperTopologyShuffles) {
  const WanTopology topo = make_paper_topology(125e6);
  Rng rng(7);
  Coverage coverage;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Flow> flows;
    for (SiteId i = 0; i < topo.site_count(); ++i) {
      const double start = rng.uniform(0.0, 2.0);
      const double volume = rng.uniform(1e8, 1e10);
      for (SiteId j = 0; j < topo.site_count(); ++j) {
        if (i != j) flows.push_back(Flow{i, j, volume * rng.uniform(0, 1), start});
      }
    }
    expect_matches_oracle(topo, flows, FaultPlan{}, coverage);
  }
}

TEST(FlowOracleTest, FiniteDeadlinesUnderResumeAndRestart) {
  Rng rng(99);
  Coverage coverage;
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t sites = 3 + rng.below(8);
    const WanTopology topo = random_topology(rng, sites);
    const auto flows = random_flows(rng, sites, 5 + rng.below(60), 2e7, 10.0);
    FaultPlan plan;
    plan.outages.push_back(OutageWindow{
        static_cast<SiteId>(rng.below(sites)), rng.uniform(0.0, 10.0),
        rng.uniform(11.0, 30.0)});
    plan.kills.push_back(FlowKill{rng.uniform(0.0, 20.0)});
    plan.retry.max_retries = rng.below(4);
    const double deadline = rng.uniform(1.0, 40.0);
    for (const bool resume : {true, false}) {
      plan.retry.resume = resume;
      expect_matches_oracle(topo, flows, plan, coverage, deadline);
      expect_matches_oracle(topo, flows, FaultPlan{}, coverage, deadline);
    }
  }
  EXPECT_GT(coverage.interruptions, 0u);
  EXPECT_GT(coverage.failures, 0u);
  EXPECT_GT(coverage.cut_by_deadline, 0u);
}

TEST(FlowOracleTest, ChaosSoakPlans) {
  const FaultPlan chaos = chaos_plan();
  const FaultPlan query = chaos.restricted_to(kPhaseQuery);
  const WanTopology topo = make_paper_topology(1e6);
  Coverage coverage;
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (int trial = 0; trial < 10; ++trial) {
      const auto flows =
          random_flows(rng, topo.site_count(), 90, 5e7, 100.0);
      expect_matches_oracle(topo, flows, chaos, coverage);
      // The churn runner's per-round projections of the query plan.
      for (const double offset : {0.0, 25.0, 140.0, 500.0}) {
        expect_matches_oracle(topo, flows, query.shifted_by(offset),
                              coverage);
      }
      expect_matches_oracle(topo, flows, chaos, coverage,
                            /*deadline=*/120.0);
    }
  }
  EXPECT_GT(coverage.interruptions, 0u);
  EXPECT_GT(coverage.cut_by_deadline, 0u);
}

TEST(FlowOracleTest, EachClauseKindAlone) {
  const WanTopology topo = make_paper_topology(1e6);
  const char* clauses[] = {
      "outage:site=3,start=5,end=40",
      "degrade:site=1,start=2,end=60,factor=0.25",
      "degrade:site=4,start=0,end=30,factor=0,link=up",
      "kill:time=12",
      "kill:time=3,src=2,dst=5",
      "slow-site:site=6,start=0,end=100,factor=4",
      "retry:max=1,base=2,mode=restart;outage:site=2,start=1,end=9",
  };
  for (const char* clause : clauses) {
    SCOPED_TRACE(clause);
    const FaultPlan plan = parse_fault_plan(clause);
    Rng rng(31);
    Coverage coverage;
    for (int trial = 0; trial < 10; ++trial) {
      auto flows = random_flows(rng, topo.site_count(), 60, 1e7, 15.0);
      // In flight at the pair-targeted kill.
      flows.push_back(Flow{2, 5, 1e7, 0.0});
      expect_matches_oracle(topo, flows, plan, coverage);
      expect_matches_oracle(topo, flows, plan, coverage, /*deadline=*/20.0);
    }
    EXPECT_GT(coverage.cut_by_deadline, 0u);
    // Outages and kills interrupt flows; degradations and slow sites
    // never do.
    if (plan.outages.empty() && plan.kills.empty()) {
      EXPECT_EQ(coverage.interruptions, 0u);
    } else {
      EXPECT_GT(coverage.interruptions, 0u);
    }
  }
}

}  // namespace
}  // namespace bohr::net

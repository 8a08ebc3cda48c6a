#include "net/transfer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "net/faults.h"

namespace bohr::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The WAN flows of one simulation in compact form, in input order. A
/// "link" is either a site uplink (index s) or downlink (index S + s),
/// so each flow is a fluid through exactly two link ids.
struct LinkFlows {
  std::vector<std::uint32_t> up;
  std::vector<std::uint32_t> down;
  std::vector<double> rate;
  std::vector<std::uint8_t> fixed;

  void add(SiteId src, SiteId dst, std::size_t n_sites) {
    BOHR_EXPECTS(src < n_sites && dst < n_sites);
    up.push_back(static_cast<std::uint32_t>(src));
    down.push_back(static_cast<std::uint32_t>(n_sites + dst));
    rate.push_back(0.0);
    fixed.push_back(0);
  }
};

/// Progressive filling against explicit per-link capacities (2S entries:
/// uplinks then downlinks). Shared by `max_min_rates` and the event loop
/// so both see the identical allocation arithmetic. The per-link buffers
/// persist across fill() calls, so an event loop allocates nothing per
/// event.
class MaxMinFiller {
 public:
  explicit MaxMinFiller(std::size_t n_links)
      : count_(n_links), load_(n_links), saturation_(n_links) {}

  /// Sets `flows.rate` for every flow in `active` (ascending ids);
  /// returns the number of filling iterations run.
  std::size_t fill(const std::vector<double>& capacity,
                   const std::vector<std::uint32_t>& active,
                   LinkFlows& flows) {
    for (const std::uint32_t f : active) {
      flows.rate[f] = 0.0;
      flows.fixed[f] = 0;
    }
    // Raise the common rate `level` of all undetermined flows until some
    // link saturates; freeze flows on saturated links; repeat. Each
    // iteration freezes at least one flow, so it terminates. A
    // zero-capacity link (site outage) saturates at level 0, freezing
    // its flows at rate 0. A link's fixed load is re-summed every
    // iteration over its fixed flows in ascending id order: that order
    // is part of the determinism contract (DESIGN §7).
    std::size_t undetermined = active.size();
    std::size_t iterations = 0;
    double level = 0.0;
    while (undetermined > 0) {
      ++iterations;
      std::fill(count_.begin(), count_.end(), 0u);
      std::fill(load_.begin(), load_.end(), 0.0);
      for (const std::uint32_t f : active) {
        if (flows.fixed[f] != 0) {
          load_[flows.up[f]] += flows.rate[f];
          load_[flows.down[f]] += flows.rate[f];
        } else {
          ++count_[flows.up[f]];
          ++count_[flows.down[f]];
        }
      }
      // For each link carrying an undetermined flow, the level at which
      // it would saturate.
      double next_level = kInf;
      for (std::size_t l = 0; l < count_.size(); ++l) {
        if (count_[l] == 0) {
          saturation_[l] = kInf;
          continue;
        }
        saturation_[l] =
            (capacity[l] - load_[l]) / static_cast<double>(count_[l]);
        next_level = std::min(next_level, saturation_[l]);
      }
      BOHR_CHECK(next_level < kInf);
      level = std::max(level, next_level);

      // Freeze flows whose path contains a saturated link at this level.
      const double freeze_at = level * (1.0 + 1e-12);
      std::size_t froze = 0;
      for (const std::uint32_t f : active) {
        if (flows.fixed[f] != 0) continue;
        if (std::min(saturation_[flows.up[f]], saturation_[flows.down[f]]) <=
            freeze_at) {
          flows.rate[f] = level;
          flows.fixed[f] = 1;
          ++froze;
        }
      }
      BOHR_CHECK(froze > 0);
      undetermined -= froze;
    }
    return iterations;
  }

 private:
  std::vector<std::uint32_t> count_;
  std::vector<double> load_;
  std::vector<double> saturation_;
};

/// Nominal link capacities scaled by the plan's factors at time `t`.
void set_capacity(const WanTopology& topo, const FaultPlan& plan, double t,
                  std::vector<double>& capacity) {
  const std::size_t n_sites = topo.site_count();
  for (SiteId s = 0; s < n_sites; ++s) {
    capacity[s] = topo.uplink(s) * plan.uplink_factor(s, t);
    capacity[n_sites + s] = topo.downlink(s) * plan.downlink_factor(s, t);
  }
}

}  // namespace

std::vector<double> max_min_rates(const WanTopology& topo,
                                  const std::vector<Flow>& flows) {
  const std::size_t n_sites = topo.site_count();
  std::vector<double> capacity(2 * n_sites, 0.0);
  set_capacity(topo, FaultPlan{}, 0.0, capacity);
  // Intra-site flows do not traverse the WAN: rate 0.
  LinkFlows wan;
  std::vector<std::uint32_t> active;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    BOHR_EXPECTS(flows[f].src < n_sites && flows[f].dst < n_sites);
    if (flows[f].src == flows[f].dst) continue;
    active.push_back(static_cast<std::uint32_t>(wan.up.size()));
    wan.add(flows[f].src, flows[f].dst, n_sites);
  }
  MaxMinFiller(capacity.size()).fill(capacity, active, wan);
  std::vector<double> rates(flows.size(), 0.0);
  std::size_t w = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].src != flows[f].dst) rates[f] = wan.rate[w++];
  }
  return rates;
}

FaultSimReport simulate_flows_with_faults(const WanTopology& topo,
                                          const std::vector<Flow>& flows,
                                          const FaultPlan& plan,
                                          double deadline) {
  const std::size_t n_sites = topo.site_count();
  plan.validate();
  BOHR_EXPECTS(flows.size() <= std::numeric_limits<std::uint32_t>::max());
  // Without outages, degradations or kills nothing can interrupt a flow
  // and every capacity factor is 1: the event loop below skips the fault
  // steps and sets the capacities once.
  const bool quiet = plan.wan_quiet();

  FaultSimReport report;
  report.flows.assign(flows.size(), FaultyFlowResult{});
  // Per-WAN-flow state, indexed by compact id w (input order).
  LinkFlows wan;
  std::vector<std::uint32_t> input_of;
  std::vector<double> remaining;
  std::vector<double> done_below;  // completion threshold on remaining
  // Time from which a flow may (re)transmit: its arrival, then pushed
  // forward by backoff + outage recovery on each interruption.
  std::vector<double> eligible;
  wan.up.reserve(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Flow& flow = flows[f];
    BOHR_EXPECTS(flow.bytes >= 0.0);
    BOHR_EXPECTS(flow.start_time >= 0.0);
    if (flow.bytes <= 0.0 || flow.src == flow.dst) {
      // Local or empty transfers never touch the WAN.
      report.flows[f].finish_time = flow.start_time;
      report.flows[f].delivered_bytes = flow.bytes;
      report.flows[f].delivered_by_deadline = flow.bytes;
      continue;
    }
    wan.add(flow.src, flow.dst, n_sites);
    input_of.push_back(static_cast<std::uint32_t>(f));
    remaining.push_back(flow.bytes);
    done_below.push_back(flow.bytes * 1e-12 + 1e-9);
    eligible.push_back(flow.start_time);
  }
  const std::size_t n_wan = input_of.size();
  enum : std::uint8_t { kLive, kDone, kFailed };
  std::vector<std::uint8_t> state(n_wan, kLive);
  std::vector<std::size_t> attempts(n_wan, 0);
  // Unfinished flows, ascending; finished ones are compacted out.
  std::vector<std::uint32_t> pending(n_wan);
  std::iota(pending.begin(), pending.end(), 0u);
  const auto drop_finished = [&] {
    std::erase_if(pending,
                  [&](std::uint32_t w) { return state[w] != kLive; });
  };

  const bool have_deadline = deadline < kInf;
  bool deadline_recorded = !have_deadline;
  const auto snapshot_deadline = [&] {
    for (std::size_t w = 0; w < n_wan; ++w) {
      const double bytes = flows[input_of[w]].bytes;
      FaultyFlowResult& out = report.flows[input_of[w]];
      if (state[w] == kDone) {
        out.delivered_by_deadline = bytes;
      } else if (plan.retry.resume) {
        out.delivered_by_deadline = std::max(0.0, bytes - remaining[w]);
      } else {
        // Restart semantics: an attempt delivers nothing until it
        // completes, so in-flight progress does not count.
        out.delivered_by_deadline = 0.0;
      }
    }
    deadline_recorded = true;
  };

  const auto interrupt = [&](std::size_t w, double now) {
    const Flow& flow = flows[input_of[w]];
    FaultyFlowResult& out = report.flows[input_of[w]];
    ++report.interruptions;
    if (attempts[w] >= plan.retry.max_retries) {
      state[w] = kFailed;
      ++report.failures;
      out.completed = false;
      out.finish_time = now;
      out.delivered_bytes =
          plan.retry.resume ? std::max(0.0, flow.bytes - remaining[w]) : 0.0;
      return;
    }
    ++attempts[w];
    ++report.retries;
    ++out.retries;
    const double backoff =
        std::min(plan.retry.backoff_base_seconds *
                     std::pow(2.0, static_cast<double>(attempts[w] - 1)),
                 plan.retry.backoff_cap_seconds);
    double resume_at = now + backoff;
    resume_at = std::max(resume_at, plan.recovery_time(flow.src, now));
    resume_at = std::max(resume_at, plan.recovery_time(flow.dst, now));
    eligible[w] = resume_at;
    if (!plan.retry.resume) remaining[w] = flow.bytes;
  };
  // Interrupts every in-flight flow (live and eligible by `now`) that
  // `hit` selects.
  const auto interrupt_if = [&](double now, const auto& hit) {
    for (const std::uint32_t w : pending) {
      if (state[w] != kLive || eligible[w] > now + 1e-15) continue;
      if (hit(flows[input_of[w]])) interrupt(w, now);
    }
  };

  std::vector<double> capacity(2 * n_sites, 0.0);
  if (quiet) set_capacity(topo, plan, 0.0, capacity);
  std::vector<bool> kill_fired(plan.kills.size(), false);
  std::vector<std::uint32_t> active;
  active.reserve(n_wan);
  MaxMinFiller filler(capacity.size());
  double now = 0.0;
  while (!pending.empty()) {
    if (!deadline_recorded && now >= deadline - 1e-15) snapshot_deadline();

    if (!quiet) {
      // Fire due kill events against in-flight flows.
      for (std::size_t k = 0; k < plan.kills.size(); ++k) {
        const FlowKill& kill = plan.kills[k];
        if (kill_fired[k] || kill.time > now + 1e-15) continue;
        kill_fired[k] = true;
        interrupt_if(now, [&](const Flow& flow) {
          return (kill.src == kAnySite || kill.src == flow.src) &&
                 (kill.dst == kAnySite || kill.dst == flow.dst);
        });
      }
      // A flow whose endpoint just went dark is interrupted (connection
      // reset), even if it only became eligible inside the outage.
      interrupt_if(now, [&](const Flow& flow) {
        return plan.site_dark_at(flow.src, now) ||
               plan.site_dark_at(flow.dst, now);
      });
      drop_finished();
      if (pending.empty()) break;
    }

    // Active = eligible now. Pending but not active = eligible later.
    active.clear();
    double next_event = kInf;
    for (const std::uint32_t w : pending) {
      if (eligible[w] <= now + 1e-15) {
        active.push_back(w);
      } else {
        next_event = std::min(next_event, eligible[w]);
      }
    }
    if (!quiet) next_event = std::min(next_event, plan.next_event_after(now));
    if (!deadline_recorded && deadline > now + 1e-15) {
      next_event = std::min(next_event, deadline);
    }
    ++report.events;
    if (active.empty()) {
      BOHR_CHECK(next_event < kInf);
      now = next_event;
      continue;
    }

    // Effective capacities for this epoch (piecewise constant between
    // fault boundaries; factor 1 reproduces the nominal value exactly).
    if (!quiet) set_capacity(topo, plan, now, capacity);
    report.fill_iterations += filler.fill(capacity, active, wan);

    // Earliest event: a completion, an arrival/retry, a fault boundary,
    // or the deadline snapshot point.
    double dt = next_event - now;
    for (const std::uint32_t w : active) {
      if (wan.rate[w] > 0.0) dt = std::min(dt, remaining[w] / wan.rate[w]);
    }
    BOHR_CHECK(dt > 0.0 && dt < kInf);

    bool finished_any = false;
    for (const std::uint32_t w : active) {
      remaining[w] -= wan.rate[w] * dt;
      if (remaining[w] <= done_below[w]) {
        const Flow& flow = flows[input_of[w]];
        FaultyFlowResult& out = report.flows[input_of[w]];
        remaining[w] = 0.0;
        state[w] = kDone;
        finished_any = true;
        out.finish_time = now + dt;
        out.delivered_bytes = flow.bytes;
        const double duration = out.finish_time - flow.start_time;
        out.mean_rate = duration > 0.0 ? flow.bytes / duration : 0.0;
      }
    }
    if (finished_any) drop_finished();
    now += dt;
  }
  if (!deadline_recorded) snapshot_deadline();

  for (const auto& fr : report.flows) {
    report.makespan = std::max(report.makespan, fr.finish_time);
  }
  return report;
}

std::vector<FlowResult> simulate_flows(const WanTopology& topo,
                                       const std::vector<Flow>& flows) {
  // Delegate to the fault-aware engine with the inert plan: no events,
  // no deadline — the arithmetic is exactly the historical simulator's.
  const FaultSimReport report =
      simulate_flows_with_faults(topo, flows, FaultPlan{});
  std::vector<FlowResult> results(report.flows.size());
  for (std::size_t f = 0; f < results.size(); ++f) {
    results[f].finish_time = report.flows[f].finish_time;
    results[f].mean_rate = report.flows[f].mean_rate;
  }
  return results;
}

double single_flow_seconds(const WanTopology& topo, SiteId src, SiteId dst,
                           double bytes) {
  BOHR_EXPECTS(bytes >= 0.0);
  if (src == dst || bytes == 0.0) return 0.0;
  const double rate = std::min(topo.uplink(src), topo.downlink(dst));
  BOHR_EXPECTS(rate > 0.0);
  return bytes / rate;
}

}  // namespace bohr::net

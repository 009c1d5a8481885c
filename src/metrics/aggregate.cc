#include "metrics/aggregate.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "common/stats.h"

namespace bbrmodel::metrics {
namespace {

/// Linear interpolation of an agent's RTT from the recorded trace.
double rtt_at(const FluidCellView& view, std::size_t agent, double t) {
  const double dt = view.sample_interval_s;
  const double pos = t / dt;
  const auto lo = static_cast<std::size_t>(
      std::clamp(std::floor(pos), 0.0,
                 static_cast<double>(view.num_samples - 1)));
  const std::size_t hi = std::min(lo + 1, view.num_samples - 1);
  const double frac = std::clamp(pos - static_cast<double>(lo), 0.0, 1.0);
  const double a = view.rtt_samples[lo * view.num_agents + agent];
  const double b = view.rtt_samples[hi * view.num_agents + agent];
  return a + (b - a) * frac;
}

}  // namespace

double jitter_of_series_ms(const std::vector<double>& rtt_s) {
  if (rtt_s.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t k = 1; k < rtt_s.size(); ++k) {
    acc += std::abs(rtt_s[k] - rtt_s[k - 1]);
  }
  return acc / static_cast<double>(rtt_s.size() - 1) * 1e3;
}

AggregateMetrics evaluate_fluid_cell(const FluidCellView& view,
                                     double virtual_packet_pkts) {
  const double duration = view.duration_s;
  BBRM_REQUIRE_MSG(duration > 0.0, "simulation has not run");
  AggregateMetrics out;

  // Per-flow mean sending rates and Jain fairness.
  out.mean_rate_pps.resize(view.num_agents);
  for (std::size_t i = 0; i < view.num_agents; ++i) {
    out.mean_rate_pps[i] = view.sent_pkts[i] / duration;
  }
  out.jain = jain_index(out.mean_rate_pps);

  // Loss: all dropped volume over all sent volume.
  double lost = 0.0;
  double sent = 0.0;
  for (std::size_t l = 0; l < view.num_links; ++l) {
    lost += view.link_acct[l].lost_pkts;
  }
  for (std::size_t i = 0; i < view.num_agents; ++i) {
    sent += view.sent_pkts[i];
  }
  out.loss_pct = sent > 0.0 ? 100.0 * lost / sent : 0.0;

  // Occupancy and utilization at the bottleneck.
  if (view.bottleneck_buffer_pkts > 0.0) {
    out.occupancy_pct = 100.0 *
                        (view.bottleneck_acct().queue_time_pkts_s / duration) /
                        view.bottleneck_buffer_pkts;
  }
  out.utilization_pct = 100.0 * view.bottleneck_acct().served_pkts /
                        (view.bottleneck_capacity_pps * duration);

  // Jitter (§4.3.5): sample each agent's RTT at the virtual packet rate
  // g·N/C and average the per-agent jitters.
  if (view.num_samples >= 2) {
    const double spacing = virtual_packet_pkts *
                           static_cast<double>(view.num_agents) /
                           view.bottleneck_capacity_pps;
    RunningStats per_agent;
    for (std::size_t i = 0; i < view.num_agents; ++i) {
      std::vector<double> series;
      for (double t = 0.0; t <= duration; t += spacing) {
        series.push_back(rtt_at(view, i, t));
      }
      per_agent.add(jitter_of_series_ms(series));
    }
    out.jitter_ms = per_agent.mean();
  }
  return out;
}

AggregateMetrics evaluate_fluid(const core::FluidSimulation& sim,
                                std::size_t bottleneck_link,
                                double virtual_packet_pkts) {
  const net::Link& bottleneck = sim.topology().link(bottleneck_link);
  FluidCellView view;
  view.duration_s = sim.now();
  view.num_agents = sim.num_agents();
  view.num_links = sim.topology().num_links();
  view.sent_pkts = sim.sent_volumes().data();
  view.link_acct = sim.link_accounts().data();
  view.bottleneck_link = bottleneck_link;
  view.bottleneck_capacity_pps = bottleneck.capacity_pps;
  view.bottleneck_buffer_pkts = bottleneck.buffer_pkts;
  view.sample_interval_s = sim.trace().sample_interval_s;
  view.num_samples = sim.num_agents() == 0
                         ? 0
                         : sim.rtt_samples().size() / sim.num_agents();
  view.rtt_samples = sim.rtt_samples().data();
  return evaluate_fluid_cell(view, virtual_packet_pkts);
}

}  // namespace bbrmodel::metrics

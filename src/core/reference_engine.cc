#include "core/reference_engine.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace bbrmodel::core {

ReferenceFluidSimulation::ReferenceFluidSimulation(
    net::Topology topology, std::vector<std::unique_ptr<FluidCca>> agents,
    FluidConfig config)
    : topology_(std::move(topology)),
      agents_(std::move(agents)),
      config_(config) {
  BBRM_REQUIRE_MSG(agents_.size() == topology_.num_agents(),
                   "one CCA per topology path required");
  BBRM_REQUIRE_MSG(config_.step_s > 0.0, "step must be positive");
  for (const auto& a : agents_) BBRM_REQUIRE_MSG(a != nullptr, "null CCA");

  const std::size_t n_agents = agents_.size();
  const std::size_t n_links = topology_.num_links();

  loss_params_.rate_sharpness = config_.k_rate;
  loss_params_.fullness_exponent = config_.droptail_exponent;

  // History horizon: the largest propagation RTT plus margin. Queueing delay
  // never appears inside a delay argument in the model (§2: "we neglect
  // queuing delay ... previous to link ℓ"), so propagation bounds suffice.
  const double horizon = std::max(1e-3, 1.25 * topology_.max_rtt_prop_s());

  contexts_.resize(n_agents);
  bottleneck_.resize(n_agents);
  for (std::size_t i = 0; i < n_agents; ++i) {
    bottleneck_[i] = topology_.bottleneck_of(i);
    contexts_[i].id = i;
    contexts_[i].num_agents = n_agents;
    contexts_[i].delays = topology_.path_delays(i);
    contexts_[i].bottleneck_capacity_pps =
        topology_.link(bottleneck_[i]).capacity_pps;
    contexts_[i].config = &config_;
    agents_[i]->init(contexts_[i]);
    // Flows start at t = 0: zero rate pre-history; RTT pre-history is the
    // uncongested path RTT.
    rate_hist_.emplace_back(config_.step_s, horizon, 0.0);
    rtt_hist_.emplace_back(config_.step_s, horizon,
                           contexts_[i].delays.rtt_prop_s);
    // The inflight window looks back one RTT including queuing delay; size
    // generously (queuing delay ≤ B/C of each traversed link).
    double q_horizon = horizon;
    for (std::size_t l : topology_.path(i)) {
      q_horizon += topology_.link(l).buffer_pkts / topology_.link(l).capacity_pps;
    }
    sent_hist_.emplace_back(config_.step_s, q_horizon, 0.0);
  }

  queue_.assign(n_links, 0.0);
  link_acct_.assign(n_links, {});
  for (std::size_t l = 0; l < n_links; ++l) {
    arrival_hist_.emplace_back(config_.step_s, horizon, 0.0);
    queue_hist_.emplace_back(config_.step_s, horizon, 0.0);
    loss_hist_.emplace_back(config_.step_s, horizon, 0.0);
  }

  sent_.assign(n_agents, 0.0);
  delivered_.assign(n_agents, 0.0);

  steps_per_sample_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(config_.record_interval_s /
                                             config_.step_s)));
  trace_.sample_interval_s =
      static_cast<double>(steps_per_sample_) * config_.step_s;
}

void ReferenceFluidSimulation::run(double duration) {
  BBRM_REQUIRE_MSG(duration >= 0.0, "duration must be non-negative");
  const auto steps =
      static_cast<std::size_t>(std::llround(duration / config_.step_s));
  for (std::size_t s = 0; s < steps; ++s) step();
}

void ReferenceFluidSimulation::step() {
  const double t = now();
  const double h = config_.step_s;
  const std::size_t n_agents = agents_.size();
  const std::size_t n_links = topology_.num_links();

  // (1) Link arrival rates y_ℓ(t) from delayed sending rates (Eq. 1).
  std::vector<double> arrivals(n_links, 0.0);
  for (std::size_t i = 0; i < n_agents; ++i) {
    const auto& path = topology_.path(i);
    const auto& d = contexts_[i].delays;
    for (std::size_t k = 0; k < path.size(); ++k) {
      arrivals[path[k]] += rate_hist_[i].at(t - d.forward_to_link_s[k]);
    }
  }

  // (2) Loss probabilities p_ℓ(t) under the configured discipline (Eqs. 4–6).
  std::vector<double> losses(n_links, 0.0);
  for (std::size_t l = 0; l < n_links; ++l) {
    losses[l] = net::link_loss(topology_.link(l), arrivals[l], queue_[l],
                               loss_params_);
  }

  // (3) Per-agent inputs and rates.
  std::vector<AgentInputs> inputs(n_agents);
  std::vector<double> rates(n_agents, 0.0);
  for (std::size_t i = 0; i < n_agents; ++i) {
    const auto& path = topology_.path(i);
    const auto& d = contexts_[i].delays;
    AgentInputs& in = inputs[i];
    in.t = t;

    // Path RTT (Eq. 3): propagation both ways + forward queuing delay.
    double queueing = 0.0;
    for (std::size_t l : path) {
      queueing += queue_[l] / topology_.link(l).capacity_pps;
    }
    in.rtt = d.rtt_prop_s + queueing;
    in.rtt_delayed = rtt_hist_[i].at(t - d.rtt_prop_s);

    // Delivery rate (Eq. 17) at the agent's bottleneck link.
    const std::size_t lb = bottleneck_[i];
    std::size_t lb_pos = 0;
    for (std::size_t k = 0; k < path.size(); ++k) {
      if (path[k] == lb) lb_pos = k;
    }
    const double back = d.backward_from_link_s[lb_pos];
    const double x_del = rate_hist_[i].at(t - d.rtt_prop_s);
    const double y_del = arrival_hist_[lb].at(t - back);
    const double q_del = queue_hist_[lb].at(t - back);
    const double cap = topology_.link(lb).capacity_pps;
    if (q_del > 1e-9 && y_del > 1e-12) {
      in.delivery_rate = x_del / y_del * cap;
    } else {
      in.delivery_rate = x_del;
    }

    // Path loss delayed by one RTT (Eqs. 7, 39): Σ p_ℓ(t − d^b_{i,ℓ}).
    double loss = 0.0;
    for (std::size_t k = 0; k < path.size(); ++k) {
      loss += loss_hist_[path[k]].at(t - d.backward_from_link_s[k]);
    }
    in.loss_delayed = std::min(1.0, loss);
    in.rate_delayed = x_del;

    // Trailing-RTT send integral (DESIGN.md §5.12): volume sent during the
    // last round trip — a drift-free stand-in for the inflight volume.
    in.inflight_window_pkts =
        std::max(0.0, sent_[i] - sent_hist_[i].at(t - in.rtt));

    const double cap_rate =
        config_.max_rate_factor * contexts_[i].bottleneck_capacity_pps;
    rates[i] = std::clamp(agents_[i]->sending_rate(in), 0.0, cap_rate);
  }

  // Record before state advances (sample reflects time t).
  if (step_count_ % steps_per_sample_ == 0) {
    record_sample(t, inputs, rates, arrivals, losses);
  }

  // (4) Advance agent states and histories.
  for (std::size_t i = 0; i < n_agents; ++i) {
    agents_[i]->advance(inputs[i], rates[i], h);
    rate_hist_[i].push(rates[i]);
    rtt_hist_[i].push(inputs[i].rtt);
    sent_hist_[i].push(sent_[i]);  // cumulative volume as of time t
    sent_[i] += h * rates[i];
    delivered_[i] += h * inputs[i].delivery_rate;
  }

  // (5) Advance queues (Eq. 2) and link accounting; push link histories with
  // time-t values.
  for (std::size_t l = 0; l < n_links; ++l) {
    const auto& link = topology_.link(l);
    LinkAccounting& acct = link_acct_[l];
    acct.arrived_pkts += h * arrivals[l];
    acct.lost_pkts += h * losses[l] * arrivals[l];
    acct.served_pkts +=
        h * net::service_rate(arrivals[l], link.capacity_pps, losses[l],
                              queue_[l]);
    acct.queue_time_pkts_s += h * queue_[l];

    arrival_hist_[l].push(arrivals[l]);
    loss_hist_[l].push(losses[l]);
    queue_hist_[l].push(queue_[l]);

    queue_[l] = net::step_queue(queue_[l], arrivals[l], link.capacity_pps,
                                losses[l], link.buffer_pkts, h);
  }

  ++step_count_;
}

void ReferenceFluidSimulation::record_sample(
    double t, const std::vector<AgentInputs>& inputs,
    const std::vector<double>& rates, const std::vector<double>& arrivals,
    const std::vector<double>& losses) {
  FluidSample sample;
  sample.t = t;
  sample.agents.resize(agents_.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    AgentSample& a = sample.agents[i];
    a.rate_pps = rates[i];
    a.delivery_rate_pps = inputs[i].delivery_rate;
    a.rtt_s = inputs[i].rtt;
    a.cca = agents_[i]->telemetry();
  }
  sample.links.resize(topology_.num_links());
  for (std::size_t l = 0; l < topology_.num_links(); ++l) {
    LinkSample& ls = sample.links[l];
    ls.queue_pkts = queue_[l];
    ls.loss_prob = losses[l];
    ls.arrival_pps = arrivals[l];
  }
  trace_.samples.push_back(std::move(sample));
}

double ReferenceFluidSimulation::queue_pkts(std::size_t link) const {
  BBRM_REQUIRE(link < queue_.size());
  return queue_[link];
}

double ReferenceFluidSimulation::sent_pkts(std::size_t agent) const {
  BBRM_REQUIRE(agent < sent_.size());
  return sent_[agent];
}

double ReferenceFluidSimulation::delivered_pkts(std::size_t agent) const {
  BBRM_REQUIRE(agent < delivered_.size());
  return delivered_[agent];
}

const LinkAccounting& ReferenceFluidSimulation::link_accounting(
    std::size_t link) const {
  BBRM_REQUIRE(link < link_acct_.size());
  return link_acct_[link];
}

const FluidCca& ReferenceFluidSimulation::cca(std::size_t agent) const {
  BBRM_REQUIRE(agent < agents_.size());
  return *agents_[agent];
}

metrics::AggregateMetrics evaluate_reference(
    const ReferenceFluidSimulation& sim, std::size_t bottleneck_link,
    double virtual_packet_pkts) {
  std::vector<double> sent(sim.num_agents());
  for (std::size_t i = 0; i < sim.num_agents(); ++i) {
    sent[i] = sim.sent_pkts(i);
  }
  std::vector<LinkAccounting> acct(sim.topology().num_links());
  for (std::size_t l = 0; l < sim.topology().num_links(); ++l) {
    acct[l] = sim.link_accounting(l);
  }
  const auto& trace = sim.trace();
  std::vector<double> rtt(trace.samples.size() * sim.num_agents());
  for (std::size_t s = 0; s < trace.samples.size(); ++s) {
    for (std::size_t i = 0; i < sim.num_agents(); ++i) {
      rtt[s * sim.num_agents() + i] = trace.samples[s].agents[i].rtt_s;
    }
  }

  metrics::FluidCellView view;
  view.duration_s = sim.now();
  view.num_agents = sim.num_agents();
  view.num_links = sim.topology().num_links();
  view.sent_pkts = sent.data();
  view.link_acct = acct.data();
  view.bottleneck_link = bottleneck_link;
  view.bottleneck_capacity_pps =
      sim.topology().link(bottleneck_link).capacity_pps;
  view.bottleneck_buffer_pkts =
      sim.topology().link(bottleneck_link).buffer_pkts;
  view.sample_interval_s = trace.sample_interval_s;
  view.num_samples = trace.samples.size();
  view.rtt_samples = rtt.data();
  return metrics::evaluate_fluid_cell(view, virtual_packet_pkts);
}

}  // namespace bbrmodel::core

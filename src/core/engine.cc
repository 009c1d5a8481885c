#include "core/engine.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace bbrmodel::core {

namespace {

/// DelayHistory's capacity formula (ode/history.cc, constructor).
std::uint32_t ring_capacity(double step, double horizon) {
  BBRM_REQUIRE_MSG(step > 0.0, "history step must be positive");
  BBRM_REQUIRE_MSG(horizon >= 0.0, "history horizon must be non-negative");
  return static_cast<std::uint32_t>(
      static_cast<std::size_t>(std::ceil(horizon / step)) + 2);
}

/// DelayHistory::at, operation for operation (ode/history.cc), over a ring
/// whose newest sample sits one slot behind `head`. The floating-point
/// chain — pos = t / step, the floor/frac split, and the lerp — is at()'s
/// verbatim; only the indexing differs (the clamped sample index always
/// lies within one lap of the write cursor, so a compare-and-add replaces
/// the integer modulo). `stride`/`column` address one column of the
/// time-major history matrix; a plain ring passes 1 and 0.
inline double history_at(const double* ring, std::uint32_t capacity,
                         std::uint32_t head, std::size_t stride,
                         std::size_t column, double initial,
                         std::uint64_t total, double step, double t) {
  if (total == 0 || t < 0.0) return initial;
  const double pos = t / step;
  const auto lo_idx = static_cast<long long>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo_idx);
  const long long newest = static_cast<long long>(total) - 1;
  const long long oldest = std::max<long long>(
      0, static_cast<long long>(total) - static_cast<long long>(capacity));
  const auto sample = [&](long long k) -> double {
    if (k < 0) return initial;
    if (k > newest) k = newest;
    if (k < oldest) k = oldest;
    long long idx = static_cast<long long>(head) - 1 - (newest - k);
    if (idx < 0) idx += capacity;
    return ring[static_cast<std::size_t>(idx) * stride + column];
  };
  const double a = sample(lo_idx);
  const double b = sample(lo_idx + 1);
  return a + (b - a) * frac;
}

}  // namespace

FluidSimulation::FluidSimulation(net::Topology topology,
                                 std::vector<std::unique_ptr<FluidCca>> agents,
                                 FluidConfig config, bool record_trace)
    : topology_(std::move(topology)),
      agents_(std::move(agents)),
      config_(config),
      record_trace_(record_trace) {
  BBRM_REQUIRE_MSG(agents_.size() == topology_.num_agents(),
                   "one CCA per topology path required");
  BBRM_REQUIRE_MSG(config_.step_s > 0.0, "step must be positive");
  for (const auto& a : agents_) BBRM_REQUIRE_MSG(a != nullptr, "null CCA");

  const std::size_t n_agents = agents_.size();
  const std::size_t n_links = topology_.num_links();

  loss_params_.rate_sharpness = config_.k_rate;
  loss_params_.fullness_exponent = config_.droptail_exponent;

  links_.reserve(n_links);
  for (std::size_t l = 0; l < n_links; ++l) links_.push_back(topology_.link(l));

  // History horizon: the largest propagation RTT plus margin. Queueing delay
  // never appears inside a delay argument in the model (§2: "we neglect
  // queuing delay ... previous to link ℓ"), so propagation bounds suffice.
  const double horizon = std::max(1e-3, 1.25 * topology_.max_rtt_prop_s());

  const auto tap_of = [this](double delay) {
    for (std::size_t j = 0; j < tap_delay_.size(); ++j) {
      if (tap_delay_[j] == delay) return static_cast<std::uint32_t>(j);
    }
    tap_delay_.push_back(delay);
    return static_cast<std::uint32_t>(tap_delay_.size() - 1);
  };

  contexts_.resize(n_agents);
  path_off_.push_back(0);
  rtt_prop_.resize(n_agents);
  bottleneck_.resize(n_agents);
  lb_pos_.resize(n_agents);
  cap_rate_.resize(n_agents);
  sent_ring_.resize(n_agents);
  std::uint32_t slots = 0;
  for (std::size_t i = 0; i < n_agents; ++i) {
    const std::size_t lb = topology_.bottleneck_of(i);
    bottleneck_[i] = static_cast<std::uint32_t>(lb);
    AgentContext& ctx = contexts_[i];
    ctx.id = i;
    ctx.num_agents = n_agents;
    ctx.delays = topology_.path_delays(i);
    ctx.bottleneck_capacity_pps = topology_.link(lb).capacity_pps;
    ctx.config = &config_;
    agents_[i]->init(ctx);

    const auto& path = topology_.path(i);
    std::size_t lb_pos = 0;
    for (std::size_t k = 0; k < path.size(); ++k) {
      path_links_.push_back(static_cast<std::uint32_t>(path[k]));
      fwd_delay_.push_back(ctx.delays.forward_to_link_s[k]);
      bwd_delay_.push_back(ctx.delays.backward_from_link_s[k]);
      fwd_tap_.push_back(tap_of(ctx.delays.forward_to_link_s[k]));
      bwd_tap_.push_back(tap_of(ctx.delays.backward_from_link_s[k]));
      if (path[k] == lb) lb_pos = k;
    }
    path_off_.push_back(static_cast<std::uint32_t>(path_links_.size()));
    lb_pos_[i] = static_cast<std::uint32_t>(lb_pos);
    rtt_prop_[i] = ctx.delays.rtt_prop_s;
    rtt_tap_.push_back(tap_of(ctx.delays.rtt_prop_s));
    back_tap_.push_back(tap_of(ctx.delays.backward_from_link_s[lb_pos]));
    cap_rate_[i] = config_.max_rate_factor * ctx.bottleneck_capacity_pps;

    // The inflight window looks back one RTT including queuing delay; size
    // generously (queuing delay ≤ B/C of each traversed link).
    double q_horizon = horizon;
    for (std::size_t l : path) {
      q_horizon += topology_.link(l).buffer_pkts / topology_.link(l).capacity_pps;
    }
    sent_ring_[i].offset = slots;
    sent_ring_[i].capacity = ring_capacity(config_.step_s, q_horizon);
    slots += sent_ring_[i].capacity;
  }
  sent_slab_.assign(slots, 0.0);

  queue_.assign(n_links, 0.0);
  link_acct_.assign(n_links, {});
  sent_.assign(n_agents, 0.0);
  delivered_.assign(n_agents, 0.0);

  // The time-major history matrix, pre-filled with each column's initial
  // value like DelayHistory's constructor. Flows start at t = 0: zero rate
  // pre-history; RTT pre-history is the uncongested path RTT.
  hcap_ = ring_capacity(config_.step_s, horizon);
  link_sig_base_ = static_cast<std::uint32_t>(2 * n_agents);
  n_sig_ = static_cast<std::uint32_t>(2 * n_agents + 3 * n_links);
  sig_initial_.assign(n_sig_, 0.0);
  for (std::size_t i = 0; i < n_agents; ++i) {
    sig_initial_[2 * i + 1] = rtt_prop_[i];
  }
  hist_.resize(static_cast<std::size_t>(hcap_) * n_sig_);
  for (std::uint32_t r = 0; r < hcap_; ++r) {
    std::copy(sig_initial_.begin(), sig_initial_.end(),
              hist_.begin() + static_cast<std::size_t>(r) * n_sig_);
  }

  steps_per_sample_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(config_.record_interval_s /
                                             config_.step_s)));
  trace_.sample_interval_s =
      static_cast<double>(steps_per_sample_) * config_.step_s;

  arrivals_.resize(n_links);
  losses_.resize(n_links);
  qdelay_.resize(n_links);
  rates_.resize(n_agents);
  inputs_.resize(n_agents);
  tap_frac_.resize(tap_delay_.size());
  tap_off_lo_.resize(tap_delay_.size());
  tap_off_hi_.resize(tap_delay_.size());
  tap_ok_.resize(tap_delay_.size());
}

void FluidSimulation::run(double duration) {
  BBRM_REQUIRE_MSG(duration >= 0.0, "duration must be non-negative");
  const auto steps =
      static_cast<std::size_t>(std::llround(duration / config_.step_s));
  rtt_trace_.reserve(rtt_trace_.size() +
                     (steps / steps_per_sample_ + 1) * agents_.size());
  for (std::size_t s = 0; s < steps; ++s) step();
}

// (0) Tap table: the pos/floor/frac split of DelayHistory::at, computed
// once per distinct delay instead of once per read, plus the two matrix
// row offsets every read through this tap shares. The expressions are
// at()'s verbatim — (t - d) first, then the division by the step — so a
// tap read interpolates with exactly the doubles at() would. A tap is
// "ok" exactly when none of at()'s clamps can fire for it: the shifted
// time is non-negative and both interpolation samples lie inside the
// retained window (2 <= lag <= hcap_ rows back).
void FluidSimulation::compute_taps(double t) {
  const double h = config_.step_s;
  for (std::size_t j = 0; j < tap_delay_.size(); ++j) {
    const double td = t - tap_delay_[j];
    const double pos = td / h;
    const double flo = std::floor(pos);
    tap_frac_[j] = pos - flo;
    const long long lag =
        static_cast<long long>(step_count_) - static_cast<long long>(flo);
    const bool ok =
        !(td < 0.0) && lag >= 2 && lag <= static_cast<long long>(hcap_);
    tap_ok_[j] = ok ? 1 : 0;
    if (ok) {
      long long row = static_cast<long long>(head_row_) - lag;
      if (row < 0) row += hcap_;
      std::uint32_t hi = static_cast<std::uint32_t>(row) + 1;
      if (hi == hcap_) hi = 0;
      tap_off_lo_[j] = static_cast<std::uint32_t>(row) * n_sig_;
      tap_off_hi_[j] = hi * n_sig_;
    }
  }
}

void FluidSimulation::step() {
  const double t = now();
  const double h = config_.step_s;
  const std::size_t n_agents = agents_.size();
  const std::size_t n_links = links_.size();
  const double* hist = hist_.data();
  double* arrivals = arrivals_.data();
  double* losses = losses_.data();
  double* rates = rates_.data();
  double* qdelay = qdelay_.data();

  compute_taps(t);
  const double* tfrac = tap_frac_.data();
  const std::uint32_t* toff_lo = tap_off_lo_.data();
  const std::uint32_t* toff_hi = tap_off_hi_.data();
  const unsigned char* tok = tap_ok_.data();
  // One matrix read through tap j: two shared-row loads and the verbatim
  // lerp on the fast path, the full at() otherwise.
  const auto read = [&](std::uint32_t sig, std::uint32_t j, double delay) {
    if (tok[j]) {
      const double a = hist[toff_lo[j] + sig];
      const double b = hist[toff_hi[j] + sig];
      return a + (b - a) * tfrac[j];
    }
    return history_at(hist, hcap_, head_row_, n_sig_, sig, sig_initial_[sig],
                      step_count_, h, t - delay);
  };

  // (1) Link arrival rates y_ℓ(t) from delayed sending rates (Eq. 1).
  std::fill_n(arrivals, n_links, 0.0);
  for (std::size_t i = 0; i < n_agents; ++i) {
    const auto rate_sig = static_cast<std::uint32_t>(2 * i);
    for (std::uint32_t k = path_off_[i]; k < path_off_[i + 1]; ++k) {
      arrivals[path_links_[k]] += read(rate_sig, fwd_tap_[k], fwd_delay_[k]);
    }
  }

  // (2) Loss probabilities p_ℓ(t) under the configured discipline (Eqs.
  // 4–6). The per-link queueing delay q_ℓ/C_ℓ is hoisted here too: every
  // traversing agent's RTT sum divides the same operands.
  for (std::size_t l = 0; l < n_links; ++l) {
    losses[l] = net::link_loss(links_[l], arrivals[l], queue_[l], loss_params_);
    qdelay[l] = queue_[l] / links_[l].capacity_pps;
  }

  // (3) Per-agent inputs and rates.
  for (std::size_t i = 0; i < n_agents; ++i) {
    const std::uint32_t off = path_off_[i];
    const std::uint32_t end = path_off_[i + 1];
    AgentInputs& in = inputs_[i];
    in.t = t;

    // Path RTT (Eq. 3): propagation both ways + forward queuing delay.
    double queueing = 0.0;
    for (std::uint32_t k = off; k < end; ++k) queueing += qdelay[path_links_[k]];
    in.rtt = rtt_prop_[i] + queueing;
    in.rtt_delayed = read(static_cast<std::uint32_t>(2 * i + 1), rtt_tap_[i],
                          rtt_prop_[i]);

    // Delivery rate (Eq. 17) at the agent's bottleneck link.
    const std::uint32_t lb = bottleneck_[i];
    const double back = bwd_delay_[off + lb_pos_[i]];
    const double x_del =
        read(static_cast<std::uint32_t>(2 * i), rtt_tap_[i], rtt_prop_[i]);
    const double y_del = read(link_sig_base_ + 3 * lb, back_tap_[i], back);
    const double q_del = read(link_sig_base_ + 3 * lb + 1, back_tap_[i], back);
    const double cap = links_[lb].capacity_pps;
    if (q_del > 1e-9 && y_del > 1e-12) {
      in.delivery_rate = x_del / y_del * cap;
    } else {
      in.delivery_rate = x_del;
    }

    // Path loss delayed by one RTT (Eqs. 7, 39): Σ p_ℓ(t − d^b_{i,ℓ}).
    double loss = 0.0;
    for (std::uint32_t k = off; k < end; ++k) {
      loss += read(link_sig_base_ + 3 * path_links_[k] + 2, bwd_tap_[k],
                   bwd_delay_[k]);
    }
    in.loss_delayed = std::min(1.0, loss);
    in.rate_delayed = x_del;

    // Trailing-RTT send integral (DESIGN.md §5.12): volume sent during the
    // last round trip — a drift-free stand-in for the inflight volume.
    const Ring& ring = sent_ring_[i];
    in.inflight_window_pkts = std::max(
        0.0, sent_[i] - history_at(sent_slab_.data() + ring.offset,
                                   ring.capacity, ring.head, 1, 0, 0.0,
                                   step_count_, h, t - in.rtt));

    rates[i] = std::clamp(agents_[i]->sending_rate(in), 0.0, cap_rate_[i]);
  }

  // Record before state advances (sample reflects time t).
  if (step_count_ % steps_per_sample_ == 0) record_sample(t);

  // (4) Advance agent states and histories. All fixed-horizon pushes land
  // in the matrix row of grid time t.
  double* row = hist_.data() + static_cast<std::size_t>(head_row_) * n_sig_;
  for (std::size_t i = 0; i < n_agents; ++i) {
    agents_[i]->advance(inputs_[i], rates[i], h);
    row[2 * i] = rates[i];
    row[2 * i + 1] = inputs_[i].rtt;
    Ring& ring = sent_ring_[i];
    sent_slab_[ring.offset + ring.head] = sent_[i];  // cumulative volume at t
    if (++ring.head == ring.capacity) ring.head = 0;
    sent_[i] += h * rates[i];
    delivered_[i] += h * inputs_[i].delivery_rate;
  }

  // (5) Advance queues (Eq. 2) and link accounting; push link histories with
  // time-t values.
  for (std::size_t l = 0; l < n_links; ++l) {
    const net::Link& link = links_[l];
    LinkAccounting& acct = link_acct_[l];
    acct.arrived_pkts += h * arrivals[l];
    acct.lost_pkts += h * losses[l] * arrivals[l];
    acct.served_pkts += h * net::service_rate(arrivals[l], link.capacity_pps,
                                              losses[l], queue_[l]);
    acct.queue_time_pkts_s += h * queue_[l];

    row[link_sig_base_ + 3 * l] = arrivals[l];
    row[link_sig_base_ + 3 * l + 1] = queue_[l];
    row[link_sig_base_ + 3 * l + 2] = losses[l];

    queue_[l] = net::step_queue(queue_[l], arrivals[l], link.capacity_pps,
                                losses[l], link.buffer_pkts, h);
  }

  if (++head_row_ == hcap_) head_row_ = 0;
  ++step_count_;
}

void FluidSimulation::record_sample(double t) {
  const std::size_t n_agents = agents_.size();
  for (std::size_t i = 0; i < n_agents; ++i) {
    rtt_trace_.push_back(inputs_[i].rtt);
  }
  if (!record_trace_) return;
  FluidSample sample;
  sample.t = t;
  sample.agents.resize(n_agents);
  for (std::size_t i = 0; i < n_agents; ++i) {
    AgentSample& a = sample.agents[i];
    a.rate_pps = rates_[i];
    a.delivery_rate_pps = inputs_[i].delivery_rate;
    a.rtt_s = inputs_[i].rtt;
    a.cca = agents_[i]->telemetry();
  }
  sample.links.resize(links_.size());
  for (std::size_t l = 0; l < links_.size(); ++l) {
    LinkSample& ls = sample.links[l];
    ls.queue_pkts = queue_[l];
    ls.loss_prob = losses_[l];
    ls.arrival_pps = arrivals_[l];
  }
  trace_.samples.push_back(std::move(sample));
}

double FluidSimulation::queue_pkts(std::size_t link) const {
  BBRM_REQUIRE(link < queue_.size());
  return queue_[link];
}

double FluidSimulation::sent_pkts(std::size_t agent) const {
  BBRM_REQUIRE(agent < sent_.size());
  return sent_[agent];
}

double FluidSimulation::delivered_pkts(std::size_t agent) const {
  BBRM_REQUIRE(agent < delivered_.size());
  return delivered_[agent];
}

const LinkAccounting& FluidSimulation::link_accounting(std::size_t link) const {
  BBRM_REQUIRE(link < link_acct_.size());
  return link_acct_[link];
}

const FluidCca& FluidSimulation::cca(std::size_t agent) const {
  BBRM_REQUIRE(agent < agents_.size());
  return *agents_[agent];
}

}  // namespace bbrmodel::core

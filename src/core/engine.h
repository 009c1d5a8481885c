// The fluid-model simulation engine (the paper's "model-based computations").
//
// Couples the network fluid model of §2 (delayed arrival rates, queue ODEs,
// loss laws, latencies) with one FluidCca per agent (§3, Appendix B) and
// integrates the resulting delay-differential system with the method of
// steps (§4.1.1).
//
// The stepping kernel keeps every per-step quantity in flat arrays: the
// fixed-horizon histories (rates, RTTs, link arrivals/queues/losses) share
// one time-major matrix read through a per-step tap table, the sent-volume
// histories live in per-agent rings, paths are flattened, and nothing is
// allocated per step. Those are integer-side changes only: every
// floating-point expression and accumulation order is the model's as
// written in core/reference_engine.cc, so results match that reference
// stepper bit for bit (tests/batch_engine_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/fluid_cca.h"
#include "core/fluid_config.h"
#include "core/trace.h"
#include "net/queue_law.h"
#include "net/topology.h"

namespace bbrmodel::core {

/// Cumulative per-link accounting (for utilization/loss/occupancy metrics).
struct LinkAccounting {
  double arrived_pkts = 0.0;  ///< ∫ y dt
  double lost_pkts = 0.0;     ///< ∫ p·y dt
  double served_pkts = 0.0;   ///< ∫ service dt
  double queue_time_pkts_s = 0.0;  ///< ∫ q dt (time-average queue = this / T)
};

/// Coupled network + CCA fluid simulation.
class FluidSimulation {
 public:
  /// One CCA per agent; agents.size() must equal topology.num_agents().
  /// `record_trace` keeps the full FluidTrace (figures, examples, tests);
  /// without it only the RTT samples the aggregate metrics need are kept.
  FluidSimulation(net::Topology topology,
                  std::vector<std::unique_ptr<FluidCca>> agents,
                  FluidConfig config = {}, bool record_trace = true);
  FluidSimulation(const FluidSimulation&) = delete;
  FluidSimulation& operator=(const FluidSimulation&) = delete;

  /// Advance the simulation by `duration` seconds.
  void run(double duration);

  double now() const { return static_cast<double>(step_count_) * config_.step_s; }

  /// Steps taken so far; each step evaluates every agent's rate dynamics
  /// once, so rhs_evals() = steps() × num_agents(). Telemetry spans attach
  /// these so traces show solver work, not just wall time.
  std::size_t steps() const { return static_cast<std::size_t>(step_count_); }
  std::size_t rhs_evals() const { return steps() * agents_.size(); }

  const net::Topology& topology() const { return topology_; }
  const FluidConfig& config() const { return config_; }
  std::size_t num_agents() const { return agents_.size(); }

  /// Current queue length of a link (packets).
  double queue_pkts(std::size_t link) const;

  /// Cumulative volume sent / delivered per agent (packets).
  double sent_pkts(std::size_t agent) const;
  double delivered_pkts(std::size_t agent) const;

  const LinkAccounting& link_accounting(std::size_t link) const;

  /// The recorded trace (sampled every config.record_interval_s). Holds no
  /// samples unless the simulation was built with record_trace.
  const FluidTrace& trace() const { return trace_; }

  /// The CCA driving an agent (for test inspection).
  const FluidCca& cca(std::size_t agent) const;

  /// Flat state for the aggregate metrics (metrics::evaluate_fluid): sent
  /// volume per agent, accounting per link, and every agent's RTT on the
  /// trace's sampling grid, sample-major — rtt_samples()[s·N + i] equals
  /// trace().samples[s].agents[i].rtt_s whenever the trace is recorded.
  const std::vector<double>& sent_volumes() const { return sent_; }
  const std::vector<LinkAccounting>& link_accounts() const { return link_acct_; }
  const std::vector<double>& rtt_samples() const { return rtt_trace_; }

 private:
  void step();
  void compute_taps(double t);
  void record_sample(double t);

  net::Topology topology_;
  std::vector<std::unique_ptr<FluidCca>> agents_;
  FluidConfig config_;
  bool record_trace_ = true;
  net::LossLawParams loss_params_;
  std::vector<AgentContext> contexts_;  // contexts_[i].config == &config_
  std::vector<net::Link> links_;

  // Flattened path structure: agent i's links/delays occupy positions
  // [path_off_[i], path_off_[i + 1]) of path_links_ / fwd_delay_ / bwd_delay_.
  std::vector<std::uint32_t> path_links_;
  std::vector<std::uint32_t> path_off_;
  std::vector<double> fwd_delay_;
  std::vector<double> bwd_delay_;
  std::vector<double> rtt_prop_;           // per agent
  std::vector<std::uint32_t> bottleneck_;  // per agent: bottleneck link id
  std::vector<std::uint32_t> lb_pos_;      // its (last) position on the path
  std::vector<double> cap_rate_;           // per agent: engine rate clamp

  // Constant-delay taps: every history read except the inflight window
  // uses a delay fixed at construction, and distinct delays are few (path
  // delays repeat across agents and call sites). Each read site stores the
  // index of its delay in tap_delay_; compute_taps does the pos/floor/frac
  // split and the matrix row offsets once per tap per step.
  std::vector<double> tap_delay_;        // distinct delays, bit-deduped
  std::vector<std::uint32_t> fwd_tap_;   // parallel to fwd_delay_
  std::vector<std::uint32_t> bwd_tap_;   // parallel to bwd_delay_
  std::vector<std::uint32_t> rtt_tap_;   // per agent: tap of rtt_prop_
  std::vector<std::uint32_t> back_tap_;  // per agent: tap of the back delay

  // Dynamic state.
  std::vector<double> queue_;  // q_ℓ(t)
  std::vector<double> sent_;   // ∫x_i (cumulative volume)
  std::vector<double> delivered_;
  std::vector<LinkAccounting> link_acct_;

  // Fixed-horizon histories, time-major: row r holds every signal's sample
  // for grid time r (modulo hcap_ rows), so one step writes one contiguous
  // row and a delayed read addresses two rows whose offsets are shared by
  // every signal through the tap table. Columns: rate_i at 2i, rtt_i at
  // 2i + 1, then arrival/queue/loss of link l at link_sig_base_ + 3l + 0/1/2.
  std::vector<double> hist_;        // hcap_ rows × n_sig_ columns
  std::vector<double> sig_initial_;  // per-column pre-history value
  std::uint32_t hcap_ = 0;
  std::uint32_t n_sig_ = 0;
  std::uint32_t link_sig_base_ = 0;
  std::uint32_t head_row_ = 0;  // row of the next push, == step_count_ % hcap_

  // Sent-volume histories: their lookback includes queueing delay, so each
  // agent has its own ring length, carved from one slab.
  struct Ring {
    std::uint32_t offset = 0;    // first slot in sent_slab_
    std::uint32_t capacity = 0;  // ring length (DelayHistory's capacity)
    std::uint32_t head = 0;      // next write slot, == step_count_ % capacity
  };
  std::vector<double> sent_slab_;
  std::vector<Ring> sent_ring_;  // per agent
  std::uint64_t step_count_ = 0;

  // Sampling: RTTs always (the metrics read them), the full trace on demand.
  std::size_t steps_per_sample_ = 1;
  std::vector<double> rtt_trace_;  // samples × agents
  FluidTrace trace_;

  // Per-step scratch, sized once.
  std::vector<double> arrivals_, losses_, rates_, qdelay_;
  std::vector<AgentInputs> inputs_;
  std::vector<double> tap_frac_;
  std::vector<std::uint32_t> tap_off_lo_, tap_off_hi_;
  std::vector<unsigned char> tap_ok_;
};

}  // namespace bbrmodel::core

// The reference fluid stepper: a direct transcription of the model, kept
// as a test oracle.
//
// ReferenceFluidSimulation integrates the same delay-differential system as
// FluidSimulation (core/engine.h) through one DelayHistory per delayed
// signal, out-of-line topology lookups, and fresh scratch vectors every
// step — the model written down as plainly as possible. FluidSimulation
// performs exactly the same floating-point operations per cell, so the two
// agree bit for bit; tests/batch_engine_test.cc holds them to that, and
// bench/perf_sweep.cc prices the production kernel against this one. No
// production path runs it.
#pragma once

#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/fluid_cca.h"
#include "core/fluid_config.h"
#include "core/trace.h"
#include "metrics/aggregate.h"
#include "net/queue_law.h"
#include "net/topology.h"
#include "ode/history.h"

namespace bbrmodel::core {

/// Coupled network + CCA fluid simulation, reference implementation.
class ReferenceFluidSimulation {
 public:
  /// One CCA per agent; agents_.size() must equal topology.num_agents().
  ReferenceFluidSimulation(net::Topology topology,
                           std::vector<std::unique_ptr<FluidCca>> agents,
                           FluidConfig config = {});

  /// Advance the simulation by `duration` seconds.
  void run(double duration);

  double now() const { return static_cast<double>(step_count_) * config_.step_s; }

  std::size_t steps() const { return step_count_; }
  std::size_t rhs_evals() const { return step_count_ * agents_.size(); }

  const net::Topology& topology() const { return topology_; }
  const FluidConfig& config() const { return config_; }
  std::size_t num_agents() const { return agents_.size(); }

  /// Current queue length of a link (packets).
  double queue_pkts(std::size_t link) const;

  /// Cumulative volume sent / delivered per agent (packets).
  double sent_pkts(std::size_t agent) const;
  double delivered_pkts(std::size_t agent) const;

  const LinkAccounting& link_accounting(std::size_t link) const;

  /// The recorded trace (sampled every config.record_interval_s).
  const FluidTrace& trace() const { return trace_; }

  /// The CCA driving an agent (for test inspection).
  const FluidCca& cca(std::size_t agent) const;

 private:
  void step();
  void record_sample(double t,
                     const std::vector<AgentInputs>& inputs,
                     const std::vector<double>& rates,
                     const std::vector<double>& arrivals,
                     const std::vector<double>& losses);

  net::Topology topology_;
  std::vector<std::unique_ptr<FluidCca>> agents_;
  FluidConfig config_;

  // Precomputed per-agent structure.
  std::vector<AgentContext> contexts_;
  std::vector<std::size_t> bottleneck_;

  // Dynamic link state.
  std::vector<double> queue_;  // q_ℓ(t)

  // Histories (method of steps).
  std::vector<ode::DelayHistory> rate_hist_;   // x_i
  std::vector<ode::DelayHistory> rtt_hist_;    // τ_i
  std::vector<ode::DelayHistory> sent_hist_;   // ∫x_i (cumulative volume)
  std::vector<ode::DelayHistory> arrival_hist_;  // y_ℓ
  std::vector<ode::DelayHistory> queue_hist_;    // q_ℓ
  std::vector<ode::DelayHistory> loss_hist_;     // p_ℓ

  // Accounting.
  std::vector<double> sent_;
  std::vector<double> delivered_;
  std::vector<LinkAccounting> link_acct_;

  FluidTrace trace_;
  std::size_t step_count_ = 0;
  std::size_t steps_per_sample_ = 1;
  net::LossLawParams loss_params_;
};

/// The paper's five aggregate metrics of a finished reference run, through
/// the same metrics::evaluate_fluid_cell arithmetic as evaluate_fluid: the
/// trace's RTTs and the accounting are copied into a FluidCellView.
metrics::AggregateMetrics evaluate_reference(
    const ReferenceFluidSimulation& sim, std::size_t bottleneck_link,
    double virtual_packet_pkts = 1.0);

}  // namespace bbrmodel::core

// The fluid kernel's one promise: the reference stepper's bits.
//
// core::FluidSimulation (core/engine.h) integrates the model through flat
// arrays, a tap table and preallocated rings; core::ReferenceFluidSimulation
// (core/reference_engine.h) is the same model written down plainly. Every
// cross-check here compares the two with exact double equality (EXPECT_EQ,
// never EXPECT_NEAR) — a single ULP of drift is a bug, because each cell
// must perform the reference's floating-point operations unchanged.
//
// The step-halving check at the end is the one tolerance test: it asks the
// integrator to be converged, not identical.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/engine.h"
#include "core/reference_engine.h"
#include "metrics/aggregate.h"
#include "net/topology.h"
#include "scenario/scenario.h"

namespace bbrmodel::core {
namespace {

scenario::ExperimentSpec spec_of(scenario::CcaMix mix, double buffer_bdp,
                                 double min_rtt, double max_rtt,
                                 net::Discipline discipline =
                                     net::Discipline::kDropTail) {
  scenario::ExperimentSpec spec;
  spec.mix = std::move(mix);
  spec.buffer_bdp = buffer_bdp;
  spec.min_rtt_s = min_rtt;
  spec.max_rtt_s = max_rtt;
  spec.discipline = discipline;
  spec.duration_s = 0.5;  // ~10k steps: long enough to diverge if broken
  return spec;
}

/// A mixed bag of cells: different flow counts, mixes, buffers, RTT
/// spreads, and disciplines.
std::vector<scenario::ExperimentSpec> mixed_specs() {
  using scenario::CcaKind;
  return {
      spec_of(scenario::homogeneous(CcaKind::kBbrv1, 2), 1.0, 0.030, 0.040),
      spec_of(scenario::half_half(CcaKind::kBbrv1, CcaKind::kCubic, 4), 0.5,
              0.030, 0.040),
      spec_of(scenario::homogeneous(CcaKind::kBbrv2, 3), 4.0, 0.020, 0.060),
      spec_of(scenario::half_half(CcaKind::kBbrv2, CcaKind::kReno, 2), 2.0,
              0.025, 0.035, net::Discipline::kRed),
  };
}

/// An Insight 5 cell: BBR flows started from unequal initial estimates.
scenario::ExperimentSpec bbr_init_spec() {
  auto spec = spec_of(
      scenario::half_half(scenario::CcaKind::kBbrv1, scenario::CcaKind::kBbrv2,
                          4),
      2.0, 0.030, 0.040);
  spec.bbr_init = [](std::size_t flow) {
    BbrInit init;
    init.btl_estimate_pps = 500.0 * static_cast<double>(flow + 1);
    init.inflight_pkts = 10.0 * static_cast<double>(flow);
    init.inflight_hi_pkts = 40.0 + 20.0 * static_cast<double>(flow);
    return init;
  };
  return spec;
}

std::vector<scenario::ExperimentSpec> cross_check_specs() {
  auto specs = mixed_specs();
  specs.push_back(bbr_init_spec());
  return specs;
}

void expect_same_metrics(const metrics::AggregateMetrics& a,
                         const metrics::AggregateMetrics& b) {
  EXPECT_EQ(a.jain, b.jain);
  EXPECT_EQ(a.loss_pct, b.loss_pct);
  EXPECT_EQ(a.occupancy_pct, b.occupancy_pct);
  EXPECT_EQ(a.utilization_pct, b.utilization_pct);
  EXPECT_EQ(a.jitter_ms, b.jitter_ms);
  EXPECT_EQ(a.mean_rate_pps, b.mean_rate_pps);
}

/// Every field of every sample, stopping at the first differing sample.
void expect_same_trace(const FluidTrace& a, const FluidTrace& b) {
  EXPECT_EQ(a.sample_interval_s, b.sample_interval_s);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t s = 0; s < a.samples.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "sample " << s);
    const FluidSample& x = a.samples[s];
    const FluidSample& y = b.samples[s];
    EXPECT_EQ(x.t, y.t);
    ASSERT_EQ(x.agents.size(), y.agents.size());
    ASSERT_EQ(x.links.size(), y.links.size());
    for (std::size_t i = 0; i < x.agents.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "agent " << i);
      const AgentSample& p = x.agents[i];
      const AgentSample& q = y.agents[i];
      EXPECT_EQ(p.rate_pps, q.rate_pps);
      EXPECT_EQ(p.delivery_rate_pps, q.delivery_rate_pps);
      EXPECT_EQ(p.rtt_s, q.rtt_s);
      EXPECT_EQ(p.cca.btl_estimate_pps, q.cca.btl_estimate_pps);
      EXPECT_EQ(p.cca.max_measurement_pps, q.cca.max_measurement_pps);
      EXPECT_EQ(p.cca.cwnd_pkts, q.cca.cwnd_pkts);
      EXPECT_EQ(p.cca.inflight_pkts, q.cca.inflight_pkts);
      EXPECT_EQ(p.cca.min_rtt_estimate_s, q.cca.min_rtt_estimate_s);
      EXPECT_EQ(p.cca.inflight_hi_pkts, q.cca.inflight_hi_pkts);
      EXPECT_EQ(p.cca.inflight_lo_pkts, q.cca.inflight_lo_pkts);
      EXPECT_EQ(p.cca.probe_rtt, q.cca.probe_rtt);
      EXPECT_EQ(p.cca.probe_down, q.cca.probe_down);
      EXPECT_EQ(p.cca.cruising, q.cca.cruising);
    }
    for (std::size_t l = 0; l < x.links.size(); ++l) {
      SCOPED_TRACE(::testing::Message() << "link " << l);
      EXPECT_EQ(x.links[l].queue_pkts, y.links[l].queue_pkts);
      EXPECT_EQ(x.links[l].loss_prob, y.links[l].loss_prob);
      EXPECT_EQ(x.links[l].arrival_pps, y.links[l].arrival_pps);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

/// Compare every observable of a finished kernel run against the
/// reference stepper driven from identical inputs.
void expect_same_state(const FluidSimulation& sim,
                       const ReferenceFluidSimulation& ref) {
  ASSERT_EQ(sim.num_agents(), ref.num_agents());
  ASSERT_EQ(sim.topology().num_links(), ref.topology().num_links());
  EXPECT_EQ(sim.now(), ref.now());
  EXPECT_EQ(sim.steps(), ref.steps());
  EXPECT_EQ(sim.rhs_evals(), ref.rhs_evals());
  for (std::size_t i = 0; i < sim.num_agents(); ++i) {
    EXPECT_EQ(sim.sent_pkts(i), ref.sent_pkts(i)) << "sent of agent " << i;
    EXPECT_EQ(sim.delivered_pkts(i), ref.delivered_pkts(i))
        << "delivered of agent " << i;
  }
  for (std::size_t l = 0; l < sim.topology().num_links(); ++l) {
    EXPECT_EQ(sim.queue_pkts(l), ref.queue_pkts(l)) << "queue of link " << l;
    const auto& a = sim.link_accounting(l);
    const auto& b = ref.link_accounting(l);
    EXPECT_EQ(a.arrived_pkts, b.arrived_pkts) << "link " << l;
    EXPECT_EQ(a.lost_pkts, b.lost_pkts) << "link " << l;
    EXPECT_EQ(a.served_pkts, b.served_pkts) << "link " << l;
    EXPECT_EQ(a.queue_time_pkts_s, b.queue_time_pkts_s) << "link " << l;
  }
  expect_same_trace(sim.trace(), ref.trace());

  // The flat RTT samples the metrics read are the trace's RTTs.
  const auto& trace = ref.trace();
  ASSERT_EQ(sim.rtt_samples().size(),
            trace.samples.size() * sim.num_agents());
  for (std::size_t s = 0; s < trace.samples.size(); ++s) {
    for (std::size_t i = 0; i < sim.num_agents(); ++i) {
      ASSERT_EQ(sim.rtt_samples()[s * sim.num_agents() + i],
                trace.samples[s].agents[i].rtt_s)
          << "rtt sample " << s << " agent " << i;
    }
  }
}

TEST(BatchEngine, SingleCellMatchesScalarBitwise) {
  for (const auto& spec : cross_check_specs()) {
    SCOPED_TRACE(spec.mix.label);
    expect_same_metrics(scenario::run_fluid(spec),
                        scenario::run_fluid_reference(spec));
  }
}

TEST(BatchEngine, MixedTopologyBatchMatchesScalarBitwise) {
  const auto specs = cross_check_specs();
  std::vector<const scenario::ExperimentSpec*> ptrs;
  for (const auto& spec : specs) ptrs.push_back(&spec);
  const auto batched = scenario::run_fluid_batch(ptrs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "cell " << k);
    expect_same_metrics(batched[k], scenario::run_fluid_reference(specs[k]));
  }
}

TEST(BatchEngine, MixedStepsAndDurationsBatchMatchesSoloRuns) {
  // Cells no longer share a time grid: one call may mix step sizes and
  // durations, and every cell must still equal its own solo run.
  auto specs = mixed_specs();
  specs[0].fluid.step_s = 25e-6;
  specs[1].duration_s = 0.3;
  specs[2].fluid.step_s = 100e-6;
  specs[2].duration_s = 0.7;
  std::vector<const scenario::ExperimentSpec*> ptrs;
  for (const auto& spec : specs) ptrs.push_back(&spec);
  const auto batched = scenario::run_fluid_batch(ptrs);
  ASSERT_EQ(batched.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "cell " << k);
    expect_same_metrics(batched[k], scenario::run_fluid(specs[k]));
  }
}

TEST(BatchEngine, RawStateMatchesScalarEngine) {
  // Bypass the metrics layer: compare every engine observable directly.
  for (const auto& spec : cross_check_specs()) {
    SCOPED_TRACE(spec.mix.label);
    auto setup = scenario::build_fluid(spec);
    ReferenceFluidSimulation ref(setup.sim->topology(),
                                 scenario::make_fluid_agents(spec),
                                 spec.fluid);
    setup.sim->run(spec.duration_s);
    ref.run(spec.duration_s);
    expect_same_state(*setup.sim, ref);

    // Recording the trace is bookkeeping only: an untraced run keeps the
    // same state and the same RTT samples.
    auto untraced = scenario::build_fluid(spec, /*record_trace=*/false);
    untraced.sim->run(spec.duration_s);
    EXPECT_TRUE(untraced.sim->trace().empty());
    EXPECT_EQ(untraced.sim->sent_volumes(), setup.sim->sent_volumes());
    EXPECT_EQ(untraced.sim->rtt_samples(), setup.sim->rtt_samples());
    EXPECT_EQ(untraced.sim->queue_pkts(setup.bottleneck_link),
              setup.sim->queue_pkts(setup.bottleneck_link));
  }
}

TEST(BatchEngine, ParkingLotMatchesReferenceBitwise) {
  // Three hops: agents cross different link sets, so path flattening,
  // per-hop delay taps and multi-link loss sums all get exercised.
  net::ParkingLotSpec lot_spec;
  lot_spec.num_hops = 3;
  lot_spec.cross_flows_per_hop = 1;
  lot_spec.hop_capacity_pps = mbps_to_pps(100.0);
  lot_spec.cross_access_delays_s = {0.002, 0.005, 0.011};
  const auto lot = net::make_parking_lot(lot_spec);
  const auto agents = [] {
    using scenario::CcaKind;
    std::vector<std::unique_ptr<FluidCca>> out;
    for (const auto kind : {CcaKind::kBbrv1, CcaKind::kCubic, CcaKind::kBbrv2,
                            CcaKind::kReno}) {
      out.push_back(scenario::make_fluid_cca(kind));
    }
    return out;
  };
  FluidSimulation sim(lot.topology, agents(), {});
  ReferenceFluidSimulation ref(lot.topology, agents(), {});
  sim.run(0.5);
  ref.run(0.5);
  expect_same_state(sim, ref);
}

TEST(BatchEngine, EmptyBatchIsANoop) {
  const std::vector<const scenario::ExperimentSpec*> none;
  EXPECT_TRUE(scenario::run_fluid_batch(none).empty());
}

// ---- Convergence: halving the step ----------------------------------------

/// |a − b| within `rel` of the larger magnitude, or within `abs_floor`.
::testing::AssertionResult within(double a, double b, double rel,
                                  double abs_floor) {
  const double diff = std::abs(a - b);
  if (diff <= abs_floor || diff <= rel * std::max(std::abs(a), std::abs(b))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (relative drift "
         << diff / std::max(std::abs(a), std::abs(b)) << ")";
}

TEST(FluidConvergence, HalvingTheStepKeepsTheAggregateMetrics) {
  std::vector<scenario::ExperimentSpec> specs = mixed_specs();
  // One cell of the paper's validation set-up (§4.3): ten BBRv1 flows,
  // a 1-BDP drop-tail buffer, 30–40 ms RTTs.
  specs.push_back(spec_of(scenario::homogeneous(scenario::CcaKind::kBbrv1, 10),
                          1.0, 0.030, 0.040));
  for (auto& spec : specs) spec.duration_s = 1.0;

  // Bounds from the measured 50 -> 25 us drift of exactly these cells: the
  // largest relative change is 0.36 % (BBRv2/RENO jitter); loss moves at
  // most 0.16 %, occupancy 0.15 %, utilization 0.03 %, Jain 0.007 %.
  // kRel = 1 % leaves a ~2.8x margin over the worst of them, so the test
  // only trips when the default step stops being converged. kAbsFloor
  // covers values at integration residue (the lossless BBRv2 cell reports
  // loss_pct ~ 5e-35), where a relative comparison means nothing.
  constexpr double kRel = 0.01;
  constexpr double kAbsFloor = 1e-9;
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.mix.label);
    auto fine_spec = spec;
    fine_spec.fluid.step_s = spec.fluid.step_s / 2.0;
    const auto coarse = scenario::run_fluid(spec);
    const auto fine = scenario::run_fluid(fine_spec);
    EXPECT_TRUE(within(coarse.jain, fine.jain, kRel, kAbsFloor)) << "jain";
    EXPECT_TRUE(within(coarse.loss_pct, fine.loss_pct, kRel, kAbsFloor))
        << "loss";
    EXPECT_TRUE(
        within(coarse.occupancy_pct, fine.occupancy_pct, kRel, kAbsFloor))
        << "occupancy";
    EXPECT_TRUE(within(coarse.utilization_pct, fine.utilization_pct, kRel,
                       kAbsFloor))
        << "utilization";
    EXPECT_TRUE(within(coarse.jitter_ms, fine.jitter_ms, kRel, kAbsFloor))
        << "jitter";
  }
}

}  // namespace
}  // namespace bbrmodel::core

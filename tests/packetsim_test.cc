// Tests of the packet-level substrate: events, AQMs, link, filters, flows.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "packetsim/aqm.h"
#include "packetsim/event_queue.h"
#include "packetsim/link.h"
#include "packetsim/network.h"
#include "packetsim/reno_cca.h"
#include "packetsim/windowed_filter.h"

namespace bbrmodel::packetsim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(0.3, [&] { order.push_back(3); });
  q.schedule_at(0.1, [&] { order.push_back(1); });
  q.schedule_at(0.2, [&] { order.push_back(2); });
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.executed(), 3u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueue, TieBreaksFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(0.5, [&order, i] { order.push_back(i); });
  }
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule_in(0.1, chain);
  };
  q.schedule_at(0.0, chain);
  q.run_until(1.0);
  EXPECT_EQ(fired, 5);
}

TEST(EventQueue, StopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(2.0, [&] { ++fired; });
  q.run_until(1.0);
  EXPECT_EQ(fired, 0);
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule_at(1.0, [] {});
  q.run_until(1.0);
  EXPECT_THROW(q.schedule_at(0.5, [] {}), PreconditionError);
}

TEST(EventQueue, ReservedSequenceKeepsItsPlaceAmongTies) {
  // An event scheduled late under an early reserved sequence number runs
  // where it would have run had it been scheduled at reservation time.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(0.5, [&order] { order.push_back(0); });
  const std::uint64_t reserved = q.reserve_seq();
  q.schedule_at(0.5, [&order] { order.push_back(2); });
  q.schedule_at_seq(0.5, reserved, [&order] { order.push_back(1); });
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_THROW(q.schedule_at_seq(2.0, reserved + 100, [] {}),
               PreconditionError);
}

TEST(DropTail, DropsOnlyWhenFull) {
  DropTailAqm aqm(10.0);
  Rng rng(1);
  EXPECT_FALSE(aqm.should_drop(0.0, 0.0, rng));
  EXPECT_FALSE(aqm.should_drop(0.0, 9.0, rng));
  EXPECT_TRUE(aqm.should_drop(0.0, 10.0, rng));
}

TEST(DropTail, RejectsDegenerateBuffer) {
  EXPECT_THROW(DropTailAqm(0.5), PreconditionError);
}

TEST(RedLinear, AverageFollowsQueue) {
  RedAqm aqm(100.0, 0.5);
  Rng rng(1);
  aqm.should_drop(0.0, 40.0, rng);
  EXPECT_NEAR(aqm.average_queue(), 20.0, 1e-12);
  aqm.should_drop(0.0, 40.0, rng);
  EXPECT_NEAR(aqm.average_queue(), 30.0, 1e-12);
}

TEST(RedLinear, AlwaysDropsAtFullBuffer) {
  RedAqm aqm(10.0);
  Rng rng(1);
  EXPECT_TRUE(aqm.should_drop(0.0, 10.0, rng));
}

TEST(RedLinear, DropFrequencyGrowsWithQueue) {
  Rng rng(1);
  auto drop_fraction = [&](double q) {
    RedAqm aqm(100.0, 1.0);  // EWMA weight 1: avg = q instantly
    int drops = 0;
    for (int i = 0; i < 5000; ++i) {
      if (aqm.should_drop(0.0, q, rng)) ++drops;
    }
    return drops / 5000.0;
  };
  const double low = drop_fraction(10.0);
  const double high = drop_fraction(70.0);
  EXPECT_NEAR(low, 0.10, 0.03);
  EXPECT_NEAR(high, 0.70, 0.03);
}

TEST(FloydRed, NoDropsBelowMinThreshold) {
  FloydRedAqm aqm(100.0, 20.0, 60.0, 0.1, 1.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(aqm.should_drop(0.0, 10.0, rng));
  }
}

TEST(FloydRed, RampsBetweenThresholds) {
  Rng rng(2);
  FloydRedAqm aqm(100.0, 20.0, 60.0, 0.1, 1.0);
  int drops = 0;
  for (int i = 0; i < 20000; ++i) {
    if (aqm.should_drop(0.0, 40.0, rng)) ++drops;  // midway: p ≈ max_p/2
  }
  EXPECT_NEAR(drops / 20000.0, 0.05, 0.01);
}

TEST(FloydRed, GentleModeAboveMaxThreshold) {
  Rng rng(3);
  FloydRedAqm aqm(200.0, 20.0, 60.0, 0.1, 1.0);
  int drops = 0;
  for (int i = 0; i < 5000; ++i) {
    if (aqm.should_drop(0.0, 90.0, rng)) ++drops;  // half-way into gentle band
  }
  EXPECT_NEAR(drops / 5000.0, 0.1 + 0.9 * 0.5, 0.05);
}

TEST(FloydRed, ValidatesThresholds) {
  EXPECT_THROW(FloydRedAqm(100.0, 60.0, 20.0), PreconditionError);
  EXPECT_THROW(FloydRedAqm(100.0, 20.0, 60.0, 0.0), PreconditionError);
}

TEST(Link, SinglePacketTiming) {
  EventQueue events;
  Rng rng(1);
  std::vector<double> arrivals;
  BottleneckLink link(events, 1000.0, 0.010,
                      std::make_unique<DropTailAqm>(100.0), rng,
                      [&](const Packet&) { arrivals.push_back(events.now()); });
  Packet p;
  p.flow = 0;
  p.seq = 0;
  events.schedule_at(0.0, [&] { link.offer(p); });
  events.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 1u);
  // Service 1 ms + propagation 10 ms.
  EXPECT_NEAR(arrivals[0], 0.011, 1e-12);
}

TEST(Link, SerializesBackToBack) {
  EventQueue events;
  Rng rng(1);
  std::vector<double> arrivals;
  BottleneckLink link(events, 1000.0, 0.0,
                      std::make_unique<DropTailAqm>(100.0), rng,
                      [&](const Packet&) { arrivals.push_back(events.now()); });
  events.schedule_at(0.0, [&] {
    for (int i = 0; i < 3; ++i) {
      Packet p;
      p.flow = 0;
      p.seq = i;
      link.offer(p);
    }
  });
  events.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], 0.001, 1e-12);
  EXPECT_NEAR(arrivals[2] - arrivals[1], 0.001, 1e-12);
  EXPECT_EQ(link.stats().served, 3);
  EXPECT_NEAR(link.stats().busy_time_s, 0.003, 1e-12);
}

TEST(Link, DropsWhenBufferFull) {
  EventQueue events;
  Rng rng(1);
  int delivered = 0;
  BottleneckLink link(events, 1000.0, 0.0,
                      std::make_unique<DropTailAqm>(2.0), rng,
                      [&](const Packet&) { ++delivered; });
  events.schedule_at(0.0, [&] {
    for (int i = 0; i < 10; ++i) {
      Packet p;
      p.flow = 0;
      p.seq = i;
      link.offer(p);
    }
  });
  events.run_until(1.0);
  // One in service + 2 buffered survive the burst.
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().dropped, 7);
  EXPECT_EQ(link.stats().arrived, 10);
}

TEST(Link, QueueTimeAccounting) {
  EventQueue events;
  Rng rng(1);
  BottleneckLink link(events, 1000.0, 0.0,
                      std::make_unique<DropTailAqm>(100.0), rng,
                      [](const Packet&) {});
  events.schedule_at(0.0, [&] {
    for (int i = 0; i < 2; ++i) {
      Packet p;
      p.flow = 0;
      p.seq = i;
      link.offer(p);
    }
  });
  events.run_until(1.0);
  link.flush_accounting();
  // Second packet waits 1 ms in the queue → ∫q dt = 1 pkt·ms.
  EXPECT_NEAR(link.stats().queue_time_pkts_s, 0.001, 1e-9);
  EXPECT_DOUBLE_EQ(link.stats().max_queue_pkts, 1.0);
}

TEST(WindowedFilter, MaxTracksAndExpires) {
  WindowedMax f(10.0);
  f.reset(0.0, 5.0);
  f.update(1.0, 3.0);
  EXPECT_DOUBLE_EQ(f.best(), 5.0);
  f.update(2.0, 8.0);
  EXPECT_DOUBLE_EQ(f.best(), 8.0);
  // The old best ages out of the window; newer values take over.
  f.update(13.0, 4.0);
  f.update(14.0, 4.5);
  EXPECT_LE(f.best(), 8.0);
  f.update(25.0, 1.0);
  EXPECT_LE(f.best(), 4.5);
}

TEST(WindowedFilter, MinVariant) {
  WindowedMin f(10.0);
  f.reset(0.0, 5.0);
  f.update(1.0, 7.0);
  EXPECT_DOUBLE_EQ(f.best(), 5.0);
  f.update(2.0, 2.0);
  EXPECT_DOUBLE_EQ(f.best(), 2.0);
}

/// A trivial CCA with a constant window (transport-layer test fixture).
class FixedWindowCca : public PacketCca {
 public:
  explicit FixedWindowCca(double cwnd) : cwnd_(cwnd) {}
  void on_ack(const AckEvent&) override {}
  void on_loss(const LossEvent&) override {}
  double cwnd_pkts() const override { return cwnd_; }
  std::string name() const override { return "fixed"; }

 private:
  double cwnd_;
};

TEST(DumbbellNet, LosslessConservationWithFixedWindow) {
  // Window 20 ≪ buffer: no drops; every sent packet is delivered or in
  // flight at the end.
  DumbbellNet net(1000.0, 0.010, 1000.0, AqmKind::kDropTail, 7);
  net.add_flow(0.005, std::make_unique<FixedWindowCca>(20.0));
  net.run(3.0);
  const auto s = net.flow(0).stats();
  EXPECT_GT(s.delivered, 100);
  EXPECT_EQ(s.lost_marked, 0);
  EXPECT_EQ(net.bottleneck().stats().dropped, 0);
  EXPECT_NEAR(static_cast<double>(s.data_sent),
              static_cast<double>(s.delivered) + net.flow(0).inflight_pkts(),
              1.0);
  // RTT sanity: smoothed RTT at least the propagation delay.
  EXPECT_GE(s.srtt_s, 0.030 - 1e-9);
  EXPECT_GE(s.min_rtt_s, 0.030 - 1e-9);
}

TEST(DumbbellNet, FixedWindowThroughputMatchesLittlesLaw) {
  // cwnd 20 over a ~31 ms RTT (30 ms propagation + 1 ms service) ≈ 645 pps,
  // below the 1000 pps bottleneck.
  DumbbellNet net(1000.0, 0.010, 1000.0, AqmKind::kDropTail, 7);
  net.add_flow(0.005, std::make_unique<FixedWindowCca>(20.0));
  net.run(5.0);
  const auto m = net.aggregate_metrics();
  EXPECT_NEAR(m.mean_rate_pps[0], 20.0 / 0.031, 40.0);
}

TEST(DumbbellNet, ConservationUnderLoss) {
  DumbbellNet net(1000.0, 0.010, 20.0, AqmKind::kDropTail, 7);
  net.add_flow(0.005, std::make_unique<RenoCca>());
  net.run(3.0);
  const auto s = net.flow(0).stats();
  const auto& ls = net.bottleneck().stats();
  EXPECT_GT(ls.dropped, 0);
  // Receiver cannot see more than was served.
  EXPECT_LE(s.received, ls.served);
  // Sender-side accounting: sent ≥ delivered + marked-lost − retransmits.
  EXPECT_GE(s.data_sent + 1,
            s.delivered + (s.lost_marked - s.retransmits));
}

TEST(DumbbellNet, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    DumbbellNet net(1000.0, 0.010, 50.0, AqmKind::kRed, seed);
    net.add_flow(0.005, std::make_unique<RenoCca>());
    net.add_flow(0.007, std::make_unique<RenoCca>());
    net.run(2.0);
    return std::make_pair(net.flow(0).stats().data_sent,
                          net.bottleneck().stats().dropped);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  // Different seeds: RED randomness differs (drops almost surely diverge).
  EXPECT_NE(run_once(42).second, run_once(43).second);
}

TEST(DumbbellNet, TraceRowsCoverTheRun) {
  DumbbellNet net(1000.0, 0.010, 100.0, AqmKind::kDropTail, 7, 0.05);
  net.add_flow(0.005, std::make_unique<RenoCca>());
  net.run(2.0);
  const auto& trace = net.trace();
  EXPECT_NEAR(static_cast<double>(trace.rows.size()), 40.0, 2.0);
  for (const auto& row : trace.rows) {
    ASSERT_EQ(row.flow_rate_pps.size(), 1u);
    EXPECT_GE(row.queue_pkts, 0.0);
    EXPECT_GE(row.loss_fraction, 0.0);
    EXPECT_LE(row.loss_fraction, 1.0);
  }
}

TEST(DumbbellNet, AggregateMetricsSanity) {
  DumbbellNet net(1000.0, 0.010, 30.0, AqmKind::kDropTail, 7);
  net.add_flow(0.005, std::make_unique<RenoCca>());
  net.add_flow(0.006, std::make_unique<RenoCca>());
  net.run(4.0);
  const auto m = net.aggregate_metrics();
  EXPECT_GT(m.jain, 0.5);
  EXPECT_LE(m.jain, 1.0);
  EXPECT_GE(m.loss_pct, 0.0);
  EXPECT_GE(m.occupancy_pct, 0.0);
  EXPECT_LE(m.occupancy_pct, 100.0);
  EXPECT_GT(m.utilization_pct, 50.0);
  EXPECT_LE(m.utilization_pct, 100.1);
  EXPECT_EQ(m.mean_rate_pps.size(), 2u);
}

TEST(DumbbellNet, ValidatesUsage) {
  DumbbellNet net(1000.0, 0.01, 10.0, AqmKind::kDropTail);
  EXPECT_THROW(net.run(1.0), PreconditionError);  // no flows
  net.add_flow(0.005, std::make_unique<RenoCca>());
  net.run(0.5);
  EXPECT_THROW(net.add_flow(0.005, std::make_unique<RenoCca>()),
               PreconditionError);  // after start
}

TEST(WindowedFilter, TracksBruteForceMaxWithinWindowBounds) {
  // Property check against a brute-force windowed maximum: the streaming
  // filter's best() is never above the max over the last 2·W of samples and
  // never below the max over the most recent W/4 (its freshest estimate).
  Rng rng(99);
  WindowedMax filter(10.0);
  std::vector<std::pair<double, double>> samples;  // (time, value)
  filter.reset(0.0, 0.0);
  double t = 0.0;
  for (int k = 0; k < 2000; ++k) {
    t += rng.uniform(0.05, 0.5);
    const double v = rng.uniform(0.0, 100.0);
    filter.update(t, v);
    samples.emplace_back(t, v);

    double max_2w = 0.0, max_quarter = 0.0;
    for (const auto& [ts, vs] : samples) {
      if (ts >= t - 20.0) max_2w = std::max(max_2w, vs);
      if (ts >= t - 2.5) max_quarter = std::max(max_quarter, vs);
    }
    ASSERT_LE(filter.best(), max_2w + 1e-9) << "t=" << t;
    ASSERT_GE(filter.best(), max_quarter - 1e-9) << "t=" << t;
  }
}

TEST(DumbbellNet, InOrderDeliveryWithoutLoss) {
  // FIFO property: with no drops, a single flow's packets reach the
  // receiver in send order, so the receiver never buffers out-of-order
  // data and delivered == received.
  DumbbellNet net(1000.0, 0.010, 10000.0, AqmKind::kDropTail, 7);
  net.add_flow(0.005, std::make_unique<FixedWindowCca>(15.0));
  net.run(2.0);
  const auto s = net.flow(0).stats();
  EXPECT_EQ(net.bottleneck().stats().dropped, 0);
  EXPECT_EQ(s.retransmits, 0);
  EXPECT_EQ(s.delivered + static_cast<std::int64_t>(
                              net.flow(0).inflight_pkts()),
            s.data_sent);
}

TEST(DumbbellNet, TwoFixedWindowFlowsShareByWindowRatio) {
  // With both flows window-limited far below capacity, throughput follows
  // w/RTT: double the window → double the rate.
  DumbbellNet net(10000.0, 0.010, 10000.0, AqmKind::kDropTail, 7);
  net.add_flow(0.005, std::make_unique<FixedWindowCca>(10.0));
  net.add_flow(0.005, std::make_unique<FixedWindowCca>(20.0));
  net.run(5.0);
  const auto m = net.aggregate_metrics();
  EXPECT_NEAR(m.mean_rate_pps[1] / m.mean_rate_pps[0], 2.0, 0.15);
}

TEST(DumbbellNet, StaggeredStartTimes) {
  DumbbellNet net(1000.0, 0.010, 100.0, AqmKind::kDropTail, 7);
  net.add_flow(0.005, std::make_unique<RenoCca>(), 0.0);
  net.add_flow(0.005, std::make_unique<RenoCca>(), 1.0);
  net.run(2.0);
  // The late flow had half the time → it must have sent notably less.
  EXPECT_LT(net.flow(1).stats().data_sent, net.flow(0).stats().data_sent);
  EXPECT_GT(net.flow(1).stats().data_sent, 0);
}

TEST(Flow, ReArmingTheTimeoutQueuesOneTimerEvent) {
  // A loss-free path whose egress hands packets straight to the receiver:
  // every send and every ACK re-arms the retransmission timer. All other
  // events are countable — start, SYN egress and SYN-ACK, then one send,
  // one egress (received) and one ACK (delivered) per data packet — so
  // what is left is the timer's own events. Before the timer kept one
  // queued event, each arm queued its own, ~1000 in this run.
  EventQueue events;
  Flow* self = nullptr;
  Flow flow(
      events, 0, 0.010,
      [&self](const Packet& packet) { self->deliver_to_receiver(packet); },
      0.010, std::make_unique<FixedWindowCca>(20.0));
  self = &flow;
  flow.start();
  events.run_until(0.99);  // before the SYN retry timer at 1 s
  const auto s = flow.stats();
  EXPECT_EQ(s.rtos, 0);
  EXPECT_EQ(s.retransmits, 0);
  const auto transport =
      static_cast<std::uint64_t>(3 + s.data_sent + s.received + s.delivered);
  ASSERT_GE(events.executed(), transport);
  const std::uint64_t timer_events = events.executed() - transport;
  const auto arms = static_cast<std::uint64_t>(s.data_sent + s.delivered);
  EXPECT_GT(arms, 1000u);
  // About one pop per 200 ms RTO floor, however many arms.
  EXPECT_LE(timer_events, 6u);
}

TEST(DumbbellNet, TimeoutsFireAsWithOneTimerEventPerArm) {
  // A two-packet buffer shared by four Reno flows: retransmission timeouts
  // do fire. The counts are the ones recorded when every arm queued its
  // own timer event; one queued event per flow must keep them exactly.
  DumbbellNet net(1000.0, 0.010, 2.0, AqmKind::kDropTail, 7);
  for (int i = 0; i < 4; ++i) {
    net.add_flow(0.005 + 0.001 * i, std::make_unique<RenoCca>());
  }
  net.run(5.0);
  struct Expected {
    std::int64_t rtos, retransmits, delivered, data_sent;
  };
  const Expected expected[] = {
      {7, 58, 309, 373}, {2, 60, 586, 650}, {4, 58, 410, 472},
      {2, 52, 470, 525}};
  for (int i = 0; i < 4; ++i) {
    const auto s = net.flow(static_cast<std::size_t>(i)).stats();
    EXPECT_EQ(s.rtos, expected[i].rtos) << "flow " << i;
    EXPECT_EQ(s.retransmits, expected[i].retransmits) << "flow " << i;
    EXPECT_EQ(s.delivered, expected[i].delivered) << "flow " << i;
    EXPECT_EQ(s.data_sent, expected[i].data_sent) << "flow " << i;
  }
}

}  // namespace
}  // namespace bbrmodel::packetsim

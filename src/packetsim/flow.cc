#include "packetsim/flow.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace bbrmodel::packetsim {

namespace {
constexpr double kMinRto = 0.2;   // conventional 200 ms floor
constexpr double kMaxRto = 60.0;
}  // namespace

Flow::Flow(EventQueue& events, int id, double access_delay_s,
           BottleneckLink& link, std::unique_ptr<PacketCca> cca,
           double start_time_s)
    : Flow(events, id, access_delay_s,
           [&link](const Packet& pkt) { link.offer(pkt); },
           link.prop_delay_s(), std::move(cca), start_time_s) {}

Flow::Flow(EventQueue& events, int id, double access_delay_s, Egress egress,
           double path_prop_delay_s, std::unique_ptr<PacketCca> cca,
           double start_time_s)
    : events_(events),
      id_(id),
      access_delay_s_(access_delay_s),
      egress_(std::move(egress)),
      cca_(std::move(cca)),
      start_time_s_(start_time_s) {
  BBRM_REQUIRE_MSG(cca_ != nullptr, "a congestion controller is required");
  BBRM_REQUIRE_MSG(egress_ != nullptr, "an egress is required");
  BBRM_REQUIRE_MSG(access_delay_s >= 0.0, "delay must be non-negative");
  BBRM_REQUIRE_MSG(path_prop_delay_s >= 0.0, "delay must be non-negative");
  return_delay_s_ = path_prop_delay_s + access_delay_s_;
}

void Flow::start() {
  events_.schedule_at(start_time_s_, [this] {
    cca_->on_start(events_.now());
    // Connection setup: a SYN-analogue probe measures the first RTT before
    // any data flows (real TCP does exactly this; BBR derives its initial
    // pacing from the handshake RTT).
    Packet syn;
    syn.flow = id_;
    syn.handshake = true;
    syn.sent_time = events_.now();
    events_.schedule_in(access_delay_s_, [this, syn] { egress_(syn); });
    // If the SYN is dropped (full buffer at start), retry like a SYN timer.
    events_.schedule_in(1.0, [this] {
      if (!handshake_done_) {
        handshake_done_ = true;  // give up on a clean sample, just start
        try_send();
      }
    });
  });
}

void Flow::try_send() {
  if (!handshake_done_) return;  // data waits for the connection handshake
  if (send_scheduled_) return;
  if (inflight_pkts() + 1.0 > cca_->cwnd_pkts() + 1e-9) return;
  const double at = std::max(events_.now(), next_send_time_);
  send_scheduled_ = true;
  events_.schedule_at(at, [this] {
    send_scheduled_ = false;
    send_one();
    try_send();
  });
}

void Flow::send_one() {
  if (inflight_pkts() + 1.0 > cca_->cwnd_pkts() + 1e-9) return;

  // Prefer retransmissions; skip entries the receiver already has.
  std::int64_t seq = -1;
  bool retx = false;
  while (!retx_queue_.empty()) {
    const std::int64_t cand = *retx_queue_.begin();
    retx_queue_.erase(retx_queue_.begin());
    if (cand >= cum_acked_) {
      seq = cand;
      retx = true;
      break;
    }
  }
  if (seq < 0) seq = next_seq_++;

  const double now = events_.now();
  if (outstanding_.empty()) {
    // Pipe was empty: a fresh rate-sample window starts here (tcp_rate.c).
    first_tx_mstamp_ = now;
    delivered_time_ = now;
  }
  Packet pkt;
  pkt.flow = id_;
  pkt.seq = seq;
  pkt.retransmit = retx;
  pkt.sent_time = now;
  pkt.delivered_at_send = delivered_;
  pkt.delivered_time_at_send = delivered_time_;
  pkt.first_tx_at_send = first_tx_mstamp_;

  outstanding_[seq] = TxRecord{now, retx};
  ++data_sent_;
  if (retx) ++retransmits_;

  const double pace = cca_->pacing_pps();
  if (pace > 0.0) {
    next_send_time_ = std::max(now, next_send_time_) + 1.0 / pace;
  } else {
    next_send_time_ = now;
  }

  events_.schedule_in(access_delay_s_, [this, pkt] { egress_(pkt); });
  arm_rto();
}

void Flow::deliver_to_receiver(const Packet& packet) {
  const double now = events_.now();
  if (packet.handshake) {
    const Packet echo = packet;
    events_.schedule_in(return_delay_s_, [this, echo] {
      if (handshake_done_) return;
      handshake_done_ = true;
      update_rtt(events_.now() - echo.sent_time);
      AckEvent ack;
      ack.now = events_.now();
      ack.rtt_s = events_.now() - echo.sent_time;
      cca_->on_ack(ack);  // hand the clean RTT sample to the CCA
      try_send();
    });
    return;
  }
  ++received_;

  // Receiver-side jitter: |Δ one-way delay| of consecutive arrivals.
  const double delay = now - packet.sent_time;
  if (has_last_delay_) jitter_abs_delta_s_.add(std::abs(delay - last_delay_s_));
  last_delay_s_ = delay;
  has_last_delay_ = true;

  // Reassembly state → cumulative ACK value.
  if (packet.seq == rcv_next_) {
    ++rcv_next_;
    while (!rcv_out_of_order_.empty() &&
           *rcv_out_of_order_.begin() == rcv_next_) {
      rcv_out_of_order_.erase(rcv_out_of_order_.begin());
      ++rcv_next_;
    }
  } else if (packet.seq > rcv_next_) {
    rcv_out_of_order_.insert(packet.seq);
  }  // duplicates below rcv_next_ are ignored

  const std::int64_t cum = rcv_next_;
  const Packet echo = packet;  // the ACK echoes the packet's snapshots
  events_.schedule_in(return_delay_s_,
                      [this, cum, echo] { handle_ack(cum, echo); });
}

void Flow::handle_ack(std::int64_t cum, Packet echo) {
  const double now = events_.now();
  int newly = 0;

  // Cumulative part: everything below `cum` is delivered.
  cum_acked_ = std::max(cum_acked_, cum);
  for (auto it = outstanding_.begin();
       it != outstanding_.end() && it->first < cum;) {
    it = outstanding_.erase(it);
    ++newly;
  }
  // Selective part: the echoed packet itself.
  if (auto it = outstanding_.find(echo.seq); it != outstanding_.end()) {
    outstanding_.erase(it);
    ++newly;
  }

  if (newly > 0) {
    delivered_ += newly;
    delivered_time_ = now;
    rto_backoff_ = 0;
    arm_rto();
  }

  // RTT (Karn's rule: never from retransmitted segments).
  double rtt_sample = 0.0;
  if (!echo.retransmit) {
    rtt_sample = now - echo.sent_time;
    update_rtt(rtt_sample);
  }

  // Delivery-rate sample from the delivered-counter snapshots. The interval
  // is the larger of the send-side span and the ACK-side span (tcp_rate.c),
  // so neither ACK compression nor send bursts inflate the estimate.
  double rate_sample = 0.0;
  const double ack_span = now - echo.delivered_time_at_send;
  const double send_span = echo.sent_time - echo.first_tx_at_send;
  const double interval = std::max(ack_span, send_span);
  if (interval > 1e-12 && delivered_ > echo.delivered_at_send) {
    rate_sample = (delivered_ - echo.delivered_at_send) / interval;
  }
  // Advance the send-side sampling window (tcp_rate_skb_delivered).
  if (newly > 0) first_tx_mstamp_ = std::max(first_tx_mstamp_, echo.sent_time);

  // Loss marking: sequence gap beyond the reorder window AND the echoed
  // packet left the sender after the candidate did (shields fresh
  // retransmissions carrying old sequence numbers).
  highest_sacked_ = std::max(highest_sacked_, echo.seq);
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    const bool gap = it->first + kReorderWindowPkts <= highest_sacked_;
    if (!gap) break;  // map is ordered; later seqs have smaller gaps
    if (it->second.sent_time < echo.sent_time) {
      const std::int64_t seq = it->first;
      it = outstanding_.erase(it);
      retx_queue_.insert(seq);
      ++lost_marked_;
      LossEvent ev;
      ev.now = now;
      ev.seq = seq;
      ev.inflight_pkts = inflight_pkts();
      ev.delivered_total = delivered_;
      cca_->on_loss(ev);
    } else {
      ++it;
    }
  }

  AckEvent ack;
  ack.now = now;
  ack.rtt_s = rtt_sample;
  ack.delivery_rate_pps = rate_sample;
  ack.newly_acked = newly;
  ack.delivered_total = delivered_;
  ack.acked_delivered_at_send = echo.delivered_at_send;
  ack.inflight_pkts = inflight_pkts();
  ack.ecn_ce = echo.ecn_ce;  // ECN echo (RFC 3168)
  cca_->on_ack(ack);

  try_send();
}

void Flow::update_rtt(double sample_s) {
  if (sample_s <= 0.0) return;
  min_rtt_ = min_rtt_ == 0.0 ? sample_s : std::min(min_rtt_, sample_s);
  if (srtt_ == 0.0) {
    srtt_ = sample_s;
    rttvar_ = sample_s / 2.0;
  } else {
    const double err = sample_s - srtt_;
    srtt_ += 0.125 * err;
    rttvar_ += 0.25 * (std::abs(err) - rttvar_);
  }
  rto_ = std::clamp(srtt_ + 4.0 * rttvar_, kMinRto, kMaxRto);
}

void Flow::arm_rto() {
  rto_deadline_ =
      events_.now() + rto_ * std::exp2(static_cast<double>(rto_backoff_));
  rto_seq_ = events_.reserve_seq();
  // A queued timer event that pops first re-pushes itself at the live
  // key; only a deadline that moved earlier needs an event of its own
  // (the queued one is then orphaned and ignored when it pops).
  if (timer_pending_ && timer_at_ <= rto_deadline_) return;
  schedule_timer();
}

void Flow::schedule_timer() {
  timer_pending_ = true;
  timer_at_ = rto_deadline_;
  timer_seq_ = rto_seq_;
  events_.schedule_at_seq(rto_deadline_, rto_seq_,
                          [this, seq = rto_seq_] { on_timer(seq); });
}

void Flow::on_timer(std::uint64_t seq) {
  if (!timer_pending_ || seq != timer_seq_) return;  // orphaned
  timer_pending_ = false;
  if (seq == rto_seq_) {
    fire_rto();
  } else {
    schedule_timer();  // re-armed since it was queued
  }
}

void Flow::fire_rto() {
  if (outstanding_.empty()) return;

  ++rtos_;
  rto_backoff_ = std::min(rto_backoff_ + 1, 6);
  // Everything outstanding is presumed lost.
  for (const auto& [seq, rec] : outstanding_) {
    (void)rec;
    retx_queue_.insert(seq);
  }
  lost_marked_ += static_cast<std::int64_t>(outstanding_.size());
  outstanding_.clear();
  cca_->on_rto(events_.now());
  arm_rto();
  try_send();
}

FlowStats Flow::stats() const {
  FlowStats s;
  s.data_sent = data_sent_;
  s.retransmits = retransmits_;
  s.delivered = static_cast<std::int64_t>(delivered_);
  s.lost_marked = lost_marked_;
  s.rtos = rtos_;
  s.received = received_;
  s.srtt_s = srtt_;
  s.min_rtt_s = min_rtt_;
  s.jitter_ms = jitter_abs_delta_s_.mean() * 1e3;
  return s;
}

}  // namespace bbrmodel::packetsim

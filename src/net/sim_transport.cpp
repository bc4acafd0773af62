#include "net/sim_transport.hpp"

#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace p2panon::net {

namespace {

/// Instant trace event for a vanished datagram, on the sender's causal
/// chain. Only reached behind an enabled() check.
void trace_drop(const char* cause, NodeId from, NodeId to) {
  obs::TraceArgs args;
  args.add("cause", cause)
      .add("from", static_cast<std::uint64_t>(from))
      .add("to", static_cast<std::uint64_t>(to));
  obs::Tracer::instance().instant("net", "drop", obs::current_correlation(),
                                  args);
}

/// Wire-observer metadata at the current tap point. The channel byte is
/// the demux framing prefix — link-layer headers a passive observer
/// reads legitimately; payload bytes past it are never surfaced.
LinkTapMeta tap_meta(std::uint64_t now_us, const Bytes& payload) {
  LinkTapMeta meta;
  meta.when_us = now_us;
  meta.correlation = obs::current_correlation();
  meta.protocol = payload.empty() ? 0 : payload[0];
  return meta;
}

}  // namespace

SimTransport::SimTransport(sim::Simulator& simulator,
                           const LatencyMatrix& latency,
                           LivenessOracle liveness,
                           std::size_t per_hop_overhead,
                           LinkFaultConfig faults, obs::Registry* metrics)
    : simulator_(simulator),
      latency_(latency),
      liveness_(std::move(liveness)),
      per_hop_overhead_(per_hop_overhead),
      faults_(faults),
      fault_rng_(faults.seed),
      handlers_(latency.num_nodes()),
      metrics_(metrics != nullptr ? metrics : &obs::Registry::global()),
      messages_sent_(metrics_->counter("net_messages_sent_total")),
      bytes_sent_(metrics_->counter("net_bytes_sent_total")),
      drop_sender_dead_(
          metrics_->counter("net_drops_total", {{"cause", "sender_dead"}})),
      drop_receiver_dead_(
          metrics_->counter("net_drops_total", {{"cause", "receiver_dead"}})),
      drop_link_loss_(
          metrics_->counter("net_drops_total", {{"cause", "link_loss"}})),
      drop_no_handler_(
          metrics_->counter("net_drops_total", {{"cause", "no_handler"}})),
      delay_us_(metrics_->histogram("net_delay_us")) {
  if (faults_.loss_rate < 0.0 || faults_.loss_rate >= 1.0 ||
      faults_.jitter_fraction < 0.0 || faults_.jitter_fraction >= 1.0) {
    throw std::invalid_argument("SimTransport: fault rates must be in [0, 1)");
  }
}

void SimTransport::send(NodeId from, NodeId to, Bytes payload) {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("SimTransport::send: node id out of range");
  }
  messages_sent_->inc();
  bytes_sent_->inc(payload.size() + per_hop_overhead_);
  if (!liveness_(from)) {
    drop_sender_dead_->inc();
    if (obs::Tracer::instance().enabled()) trace_drop("sender_dead", from, to);
    return;
  }
  // The wire observer sees every datagram that leaves a live sender —
  // including ones link loss or a dead receiver will eat in flight, which
  // is exactly what makes drops observable as unmatched sends.
  if (tap_ != nullptr) {
    tap_->on_send(from, to, payload.size() + per_hop_overhead_,
                  tap_meta(simulator_.now(), payload));
  }
  // Link faults: i.i.d. datagram loss and per-packet latency jitter.
  // Guarded so the default configuration draws nothing and stays
  // bit-identical to the fault-free transport.
  if (faults_.loss_rate > 0.0 && fault_rng_.bernoulli(faults_.loss_rate)) {
    drop_link_loss_->inc();
    if (obs::Tracer::instance().enabled()) trace_drop("link_loss", from, to);
    return;
  }
  SimDuration delay = latency_.one_way(from, to);
  if (faults_.jitter_fraction > 0.0) {
    const double factor = fault_rng_.uniform(1.0 - faults_.jitter_fraction,
                                             1.0 + faults_.jitter_fraction);
    delay = static_cast<SimDuration>(static_cast<double>(delay) * factor);
  }
  delay_us_->record(static_cast<std::uint64_t>(delay));
  static const auto kDeliverEvent = obs::capacity::event_type("net.deliver");
  simulator_.schedule_after(
      delay,
      [this, from, to, data = std::move(payload)]() {
        if (!liveness_(to)) {
          drop_receiver_dead_->inc();
          if (obs::Tracer::instance().enabled()) {
            trace_drop("receiver_dead", from, to);
          }
          return;
        }
        const Handler& handler = handlers_[to];
        if (handler) {
          // Tap before dispatch: a relay forwards synchronously inside the
          // handler, so tapping here keeps "delivery into x" ahead of
          // "forward send from x" in the flow log at equal sim time.
          if (tap_ != nullptr) {
            tap_->on_deliver(from, to, data.size() + per_hop_overhead_,
                             tap_meta(simulator_.now(), data));
          }
          handler(from, to, data);
        } else {
          drop_no_handler_->inc();
          if (obs::Tracer::instance().enabled()) {
            trace_drop("no_handler", from, to);
          }
        }
      },
      kDeliverEvent);
}

void SimTransport::register_handler(NodeId node, Handler handler) {
  handlers_.at(node) = std::move(handler);
}

}  // namespace p2panon::net

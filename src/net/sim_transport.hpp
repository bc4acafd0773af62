// Simulator-backed transport.
//
// send() schedules a delivery event after the LatencyMatrix one-way delay.
// A message is dropped when the sender is already dead at send time, or the
// receiver is dead at *delivery* time — so a node that dies while a message
// is in flight loses it, exactly the failure mode churn induces.
//
// Link-failure knobs (the paper's goals cover "node/link failures"; the
// evaluation only exercises node churn, so these default off and leave
// behavior and RNG streams untouched at 0):
//   - loss_rate: each datagram is dropped i.i.d. with this probability;
//   - jitter_fraction: per-packet multiplicative latency noise, uniform in
//     [1 - j, 1 + j] around the matrix delay.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "net/latency_matrix.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace p2panon::net {

struct LinkFaultConfig {
  double loss_rate = 0.0;        // in [0, 1)
  double jitter_fraction = 0.0;  // in [0, 1)
  std::uint64_t seed = 0x10552;  // stream for loss/jitter draws
};

class SimTransport final : public Transport {
 public:
  using LivenessOracle = std::function<bool(NodeId)>;

  /// `liveness` is consulted at send and delivery time; pass the churn
  /// model's is_up. `per_hop_overhead` bytes are added to each datagram's
  /// bandwidth accounting (packet headers); 0 reproduces the paper's
  /// payload-only numbers. All counters live in `metrics` (nullptr =
  /// the process-global registry) as `net_messages_sent_total`,
  /// `net_bytes_sent_total`, `net_drops_total{cause=...}` and the
  /// `net_delay_us` delivery-delay histogram — the single source of truth
  /// for per-cause drop accounting.
  SimTransport(sim::Simulator& simulator, const LatencyMatrix& latency,
               LivenessOracle liveness, std::size_t per_hop_overhead = 0,
               LinkFaultConfig faults = {}, obs::Registry* metrics = nullptr);

  void send(NodeId from, NodeId to, Bytes payload) override;
  void register_handler(NodeId node, Handler handler) override;

  std::uint64_t bytes_sent() const override { return bytes_sent_->value(); }
  std::uint64_t messages_sent() const override {
    return messages_sent_->value();
  }

  /// Per-cause drop accounting, read back from the registry series.
  std::uint64_t drops_sender_dead() const {   // sender down at send time
    return drop_sender_dead_->value();
  }
  std::uint64_t drops_receiver_dead() const {  // receiver down at delivery
    return drop_receiver_dead_->value();
  }
  std::uint64_t drops_link_loss() const {  // i.i.d. loss_rate drop
    return drop_link_loss_->value();
  }
  std::uint64_t drops_no_handler() const {  // no handler registered
    return drop_no_handler_->value();
  }
  std::uint64_t messages_dropped() const {
    return drops_sender_dead() + drops_receiver_dead() + drops_link_loss() +
           drops_no_handler();
  }

  /// The registry this transport records into.
  obs::Registry& metrics() const { return *metrics_; }

  /// Installs a passive wire observer (nullptr detaches). The default —
  /// no tap — adds zero work per datagram and keeps runs byte-identical
  /// to a tapless transport; the pointer is not owned.
  void set_tap(LinkTap* tap) { tap_ = tap; }

 private:
  sim::Simulator& simulator_;
  const LatencyMatrix& latency_;
  LivenessOracle liveness_;
  std::size_t per_hop_overhead_;
  LinkFaultConfig faults_;
  Rng fault_rng_;
  std::vector<Handler> handlers_;
  obs::Registry* metrics_;
  LinkTap* tap_ = nullptr;
  obs::Counter* messages_sent_;
  obs::Counter* bytes_sent_;
  obs::Counter* drop_sender_dead_;
  obs::Counter* drop_receiver_dead_;
  obs::Counter* drop_link_loss_;
  obs::Counter* drop_no_handler_;
  obs::HdrHistogram* delay_us_;
};

}  // namespace p2panon::net

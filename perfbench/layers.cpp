#include "layers.hpp"

#include <stdexcept>

#include "churn/distributions.hpp"
#include "membership/gossip.hpp"

namespace perfbench {

namespace {

Layer receive_layer(const Bytes& datagram) {
  if (datagram.empty()) return Layer::kOtherRx;
  switch (static_cast<net::Channel>(datagram[0])) {
    case net::Channel::kGossip: return Layer::kMembershipRx;
    case net::Channel::kAnonForward: return Layer::kRelayFwdRx;
    case net::Channel::kAnonReverse: return Layer::kRelayRevRx;
    default: return Layer::kOtherRx;
  }
}

}  // namespace

void TimedTransport::send(NodeId from, NodeId to, Bytes payload) {
  const std::uint8_t channel = payload.empty() ? 0 : payload[0];
  recorder_.bytes_by_channel[channel] += payload.size();
  Span span(recorder_,
            channel == static_cast<std::uint8_t>(net::Channel::kGossip)
                ? Layer::kNetSendGossip
                : Layer::kNetSendAnon);
  inner_.send(from, to, std::move(payload));
}

void TimedTransport::register_handler(NodeId node, Handler handler) {
  inner_.register_handler(
      node, [this, handler = std::move(handler)](NodeId from, NodeId to,
                                                 const Bytes& payload) {
        Span span(recorder_, receive_layer(payload));
        handler(from, to, payload);
      });
}

Bytes TimedCodec::build_path_onion(const std::vector<NodeId>& relays,
                                   const std::vector<anon::RelayKey>& keys,
                                   NodeId responder,
                                   const crypto::KeyDirectory& directory,
                                   Rng& rng) const {
  Span span(recorder_, Layer::kBuildPathOnion);
  return inner_->build_path_onion(relays, keys, responder, directory, rng);
}

std::optional<anon::OnionCodec::PeeledPath> TimedCodec::peel_path_onion(
    const crypto::KeyPair& self, ByteView onion) const {
  Span span(recorder_, Layer::kPeelPathOnion);
  return inner_->peel_path_onion(self, onion);
}

Bytes TimedCodec::seal_payload_core(const anon::PayloadCore& core,
                                    const crypto::X25519Key& responder_public,
                                    Rng& rng) const {
  Span span(recorder_, Layer::kSealPayloadCore);
  return inner_->seal_payload_core(core, responder_public, rng);
}

std::optional<anon::PayloadCore> TimedCodec::open_payload_core(
    const crypto::KeyPair& responder, ByteView sealed) const {
  Span span(recorder_, Layer::kOpenPayloadCore);
  return inner_->open_payload_core(responder, sealed);
}

Bytes TimedCodec::wrap_layer(const anon::RelayKey& key, std::uint64_t seq,
                             ByteView inner) const {
  Span span(recorder_, Layer::kWrapLayer);
  return inner_->wrap_layer(key, seq, inner);
}

std::optional<Bytes> TimedCodec::unwrap_layer(const anon::RelayKey& key,
                                              std::uint64_t seq,
                                              ByteView outer) const {
  Span span(recorder_, Layer::kUnwrapLayer);
  return inner_->unwrap_layer(key, seq, outer);
}

void TimedCodec::wrap_layer_in_place(const anon::RelayKey& key,
                                     std::uint64_t seq, Bytes& buf) const {
  Span span(recorder_, Layer::kWrapLayer);
  inner_->wrap_layer_in_place(key, seq, buf);
}

bool TimedCodec::unwrap_layer_in_place(const anon::RelayKey& key,
                                       std::uint64_t seq, Bytes& buf) const {
  Span span(recorder_, Layer::kUnwrapLayer);
  return inner_->unwrap_layer_in_place(key, seq, buf);
}

// Mirrors Environment::Environment step for step: the RNG forks happen in
// the same order, so every stream (latency, churn, keys, membership,
// router) and everything the benchmark forks afterwards match the untraced
// run. Only the gossip membership and a configured fault plan are
// supported — the benchmark's workloads use nothing else.
TracedStack::TracedStack(harness::EnvironmentConfig config,
                         SpanRecorder& recorder)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.fault_plan == nullptr ||
      config_.membership_kind != harness::MembershipKind::kGossip) {
    throw std::invalid_argument(
        "TracedStack needs a fault plan and gossip membership");
  }
  simulator_.set_profiler(config_.loop_profiler);
  latency_ = std::make_unique<net::LatencyMatrix>(net::LatencyMatrix::synthetic(
      config_.num_nodes, rng_.fork(), config_.mean_rtt));
  const auto session_dist =
      churn::parse_distribution(config_.session_distribution);
  churn_ = std::make_unique<churn::ChurnModel>(
      simulator_, config_.num_nodes, *session_dist, rng_.fork());
  transport_ = std::make_unique<net::SimTransport>(
      simulator_, *latency_,
      [this](NodeId node) {
        return churn_->is_up(node) &&
               !config_.fault_plan->is_crashed(node, simulator_.now());
      },
      /*per_hop_overhead=*/0, net::LinkFaultConfig{}, &metrics_);
  faulty_ = std::make_unique<fault::FaultyTransport>(
      *transport_, *config_.fault_plan, config_.fault_seed, &simulator_,
      &metrics_);
  timed_ = std::make_unique<TimedTransport>(*faulty_, recorder);
  demux_ = std::make_unique<net::Demux>(*timed_, config_.num_nodes);

  Rng key_rng = rng_.fork();
  auto node_keys = directory_.provision(config_.num_nodes, key_rng);
  membership_ = std::make_unique<membership::GossipMembership>(
      simulator_, *demux_, *churn_, config_.gossip, rng_.fork());

  std::unique_ptr<anon::OnionCodec> codec;
  if (config_.fast_crypto) {
    codec = std::make_unique<anon::FastOnionCodec>();
  } else {
    codec = std::make_unique<anon::RealOnionCodec>();
  }
  onion_ = std::make_unique<TimedCodec>(std::move(codec), recorder);
  anon::RouterConfig router_config = config_.router;
  if (router_config.metrics == nullptr) router_config.metrics = &metrics_;
  router_ = std::make_unique<anon::AnonRouter>(
      simulator_, *demux_, *onion_, directory_, std::move(node_keys),
      [this](NodeId node) { return churn_->is_up(node); }, router_config,
      rng_.fork());
}

void TracedStack::start() {
  membership_->start();
  router_->start();
  churn_->start();
}

}  // namespace perfbench

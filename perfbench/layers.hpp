// Per-layer attribution for the end-to-end benchmark's traced run.
//
// The traced run times the public calls into each module from outside the
// program: a span is opened around every call that crosses a layer seam
// (transport send and receive, every OnionCodec method, the benchmark's
// Session calls). Spans nest on one stack, so a span's self time is its
// duration minus the time its child spans cover — a relay's self time
// excludes the crypto and transport work it triggers.
//
// Environment does not expose the transport or codec seams, so TracedStack
// assembles the same components through the same public constructors, in
// the same RNG-fork order, with pass-through timing decorators inserted.
// The decorators never draw randomness or schedule events, so a traced run
// executes exactly the events of an untraced Environment run with the same
// configuration; e2e_bench checks that by comparing fingerprints.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "anon/onion.hpp"
#include "anon/router.hpp"
#include "churn/churn_model.hpp"
#include "crypto/keys.hpp"
#include "fault/faulty_transport.hpp"
#include "harness/environment.hpp"
#include "membership/provider.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace p2panon;

/// The seams a span can sit on. Transport sends are split by channel so
/// top-level gossip sends can be charged to the gossip round that made them.
enum class Layer : std::uint8_t {
  kNetSendGossip,
  kNetSendAnon,
  kMembershipRx,
  kRelayFwdRx,
  kRelayRevRx,
  kOtherRx,
  kSessionSend,
  kSessionConstruct,
  kBuildPathOnion,
  kPeelPathOnion,
  kSealPayloadCore,
  kOpenPayloadCore,
  kWrapLayer,
  kUnwrapLayer,
  kCount
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t inclusive_ns = 0;
    std::uint64_t self_ns = 0;
    /// Inclusive time of the spans opened with no span around them, i.e.
    /// directly under an event callback.
    std::uint64_t top_level_ns = 0;
  };

  void begin(Layer layer) {
    stack_.push_back(Open{layer, Clock::now(), 0});
  }

  void end() {
    const Open open = stack_.back();
    stack_.pop_back();
    const auto duration = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             open.start)
            .count());
    Totals& totals = totals_[static_cast<std::size_t>(open.layer)];
    ++totals.calls;
    totals.inclusive_ns += duration;
    totals.self_ns += duration - std::min(duration, open.child_ns);
    if (stack_.empty()) {
      totals.top_level_ns += duration;
    } else {
      stack_.back().child_ns += duration;
    }
  }

  const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }

  /// Zeroes every total (at the start of the measured window).
  void reset() {
    totals_ = {};
    bytes_by_channel = {};
  }

  /// Per-channel payload bytes handed to the transport.
  std::array<std::uint64_t, 256> bytes_by_channel{};

 private:
  using Clock = std::chrono::steady_clock;
  struct Open {
    Layer layer;
    Clock::time_point start;
    std::uint64_t child_ns;
  };
  std::vector<Open> stack_;
  std::array<Totals, kLayerCount> totals_{};
};

class Span {
 public:
  Span(SpanRecorder& recorder, Layer layer) : recorder_(recorder) {
    recorder_.begin(layer);
  }
  ~Span() { recorder_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
};

/// Pass-through Transport decorator: times each send, and wraps each
/// registered receive handler so a delivery is timed under the layer its
/// demux channel byte names.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  void send(NodeId from, NodeId to, Bytes payload) override;
  void register_handler(NodeId node, Handler handler) override;
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  std::uint64_t messages_sent() const override {
    return inner_.messages_sent();
  }

 private:
  net::Transport& inner_;
  SpanRecorder& recorder_;
};

/// Pass-through OnionCodec decorator timing every codec operation.
class TimedCodec final : public anon::OnionCodec {
 public:
  TimedCodec(std::unique_ptr<anon::OnionCodec> inner, SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  Bytes build_path_onion(const std::vector<NodeId>& relays,
                         const std::vector<anon::RelayKey>& relay_keys,
                         NodeId responder,
                         const crypto::KeyDirectory& directory,
                         Rng& rng) const override;
  std::optional<PeeledPath> peel_path_onion(const crypto::KeyPair& self,
                                            ByteView onion) const override;
  Bytes seal_payload_core(const anon::PayloadCore& core,
                          const crypto::X25519Key& responder_public,
                          Rng& rng) const override;
  std::optional<anon::PayloadCore> open_payload_core(
      const crypto::KeyPair& responder, ByteView sealed) const override;
  Bytes wrap_layer(const anon::RelayKey& key, std::uint64_t seq,
                   ByteView inner) const override;
  std::optional<Bytes> unwrap_layer(const anon::RelayKey& key,
                                    std::uint64_t seq,
                                    ByteView outer) const override;
  void wrap_layer_in_place(const anon::RelayKey& key, std::uint64_t seq,
                           Bytes& buf) const override;
  bool unwrap_layer_in_place(const anon::RelayKey& key, std::uint64_t seq,
                             Bytes& buf) const override;
  std::size_t layer_overhead() const override {
    return inner_->layer_overhead();
  }
  std::size_t core_overhead() const override {
    return inner_->core_overhead();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<anon::OnionCodec> inner_;
  SpanRecorder& recorder_;
};

/// Environment's component graph with the timing decorators inserted at
/// the transport (between the fault decorator and the demux) and the codec.
/// Exposes the accessors e2e_bench uses on Environment, so one episode
/// template runs on either stack.
class TracedStack {
 public:
  TracedStack(harness::EnvironmentConfig config, SpanRecorder& recorder);
  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  void start();

  sim::Simulator& simulator() { return simulator_; }
  churn::ChurnModel& churn() { return *churn_; }
  fault::FaultyTransport* faulty_transport() { return faulty_.get(); }
  membership::MembershipProvider& membership() { return *membership_; }
  anon::AnonRouter& router() { return *router_; }
  obs::Registry& metrics() { return metrics_; }
  Rng& rng() { return rng_; }

 private:
  harness::EnvironmentConfig config_;
  Rng rng_;
  obs::Registry metrics_;
  sim::Simulator simulator_;
  std::unique_ptr<net::LatencyMatrix> latency_;
  std::unique_ptr<churn::ChurnModel> churn_;
  std::unique_ptr<net::SimTransport> transport_;
  std::unique_ptr<fault::FaultyTransport> faulty_;
  std::unique_ptr<TimedTransport> timed_;
  std::unique_ptr<net::Demux> demux_;
  crypto::KeyDirectory directory_;
  std::unique_ptr<membership::MembershipProvider> membership_;
  std::unique_ptr<anon::OnionCodec> onion_;
  std::unique_ptr<anon::AnonRouter> router_;
};

}  // namespace perfbench

// Cover traffic (paper §4.6).
//
// Each participating node periodically builds k paths of random relays to
// a randomly chosen destination and sends a dummy message that is
// byte-indistinguishable from a real one (same Session machinery, same
// channels, same framing — only the source and the destination could tell,
// and the destination simply reconstructs bytes it discards).
//
// The paper lets each node pick its own k ("k is unnecessary [a]
// system-wide parameter and each node may pick a value corresponding to its
// bandwidth constraints"); every run here gives all participants the same
// config, so the generator takes one.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "anon/session.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace p2panon::anon {

struct CoverTrafficConfig {
  SimDuration interval = 30 * kSecond;  // per-node dummy-message cadence
  std::size_t k = 2;                    // paths per cover message
  std::size_t message_size = 1024;      // bytes per dummy message
  std::size_t path_length = 3;          // L
};

class CoverTrafficGenerator {
 public:
  using LivenessOracle = std::function<bool(NodeId)>;
  using CacheProvider = std::function<const membership::NodeCache&(NodeId)>;

  /// `nodes` lists the participants, which all send under `config`. When a
  /// registry is supplied, dummy sends are counted as
  /// `anon_cover_messages_total` (registered lazily here, so runs without
  /// cover traffic keep their registry snapshots untouched).
  CoverTrafficGenerator(AnonRouter& router, CacheProvider caches,
                        LivenessOracle is_up, std::vector<NodeId> nodes,
                        CoverTrafficConfig config, Rng rng,
                        obs::Registry* metrics = nullptr);
  ~CoverTrafficGenerator();
  CoverTrafficGenerator(const CoverTrafficGenerator&) = delete;
  CoverTrafficGenerator& operator=(const CoverTrafficGenerator&) = delete;

  void start();
  void stop();

  std::uint64_t cover_messages_sent() const { return messages_sent_; }

 private:
  void tick(std::size_t index);

  AnonRouter& router_;
  CacheProvider caches_;
  LivenessOracle is_up_;
  std::vector<NodeId> nodes_;
  CoverTrafficConfig config_;
  Rng rng_;

  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  // Ephemeral sessions kept alive until their message round completes.
  std::vector<std::unique_ptr<Session>> in_flight_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::uint64_t messages_sent_ = 0;
  obs::Counter* cover_messages_ = nullptr;  // null without a registry
};

}  // namespace p2panon::anon

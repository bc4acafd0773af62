#include "anon/cover_traffic.hpp"

#include <algorithm>

namespace p2panon::anon {

CoverTrafficGenerator::CoverTrafficGenerator(AnonRouter& router,
                                             CacheProvider caches,
                                             LivenessOracle is_up,
                                             std::vector<NodeId> nodes,
                                             CoverTrafficConfig config, Rng rng,
                                             obs::Registry* metrics)
    : router_(router),
      caches_(std::move(caches)),
      is_up_(std::move(is_up)),
      nodes_(std::move(nodes)),
      config_(config),
      rng_(rng),
      cover_messages_(metrics != nullptr
                          ? metrics->counter("anon_cover_messages_total")
                          : nullptr) {}

CoverTrafficGenerator::~CoverTrafficGenerator() {
  *alive_ = false;
  stop();
}

void CoverTrafficGenerator::start() {
  tasks_.clear();
  tasks_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto task = std::make_unique<sim::PeriodicTask>(
        router_.simulator(), config_.interval, [this, i] { tick(i); });
    task->start_at(router_.simulator().now() +
                   static_cast<SimDuration>(rng_.next_below(
                       static_cast<std::uint64_t>(config_.interval))));
    tasks_.push_back(std::move(task));
  }
}

void CoverTrafficGenerator::stop() {
  tasks_.clear();
  in_flight_.clear();
}

void CoverTrafficGenerator::tick(std::size_t index) {
  const NodeId node = nodes_[index];
  if (!is_up_(node)) return;

  // Random destination distinct from the sender.
  const std::size_t n = router_.directory().size();
  NodeId destination;
  do {
    destination = static_cast<NodeId>(rng_.next_below(n));
  } while (destination == node);

  SessionConfig session_config;
  session_config.path_length = config_.path_length;
  session_config.erasure =
      ErasureParams::simrep(std::max<std::size_t>(1, config_.k));
  session_config.mix_choice = MixChoice::kRandom;  // cover paths are random

  auto session = std::make_unique<Session>(router_, caches_(node), node,
                                           destination, session_config,
                                           rng_.fork());
  Session* raw = session.get();
  in_flight_.push_back(std::move(session));

  Bytes dummy(config_.message_size);
  rng_.fill(dummy.data(), dummy.size());

  raw->construct([this, raw, dummy = std::move(dummy)](bool ok,
                                                       std::size_t) {
    if (ok) {
      raw->send_message(dummy);
      ++messages_sent_;
      if (cover_messages_ != nullptr) cover_messages_->inc();
    }
    // Retire the session shortly after: one dummy round per tick. The
    // relay states it created expire via TTL like any other path.
    static const auto kCoverEvent = obs::capacity::event_type("cover.retire");
    router_.simulator().schedule_after(
        10 * kSecond,
        [this, raw, alive = alive_] {
          if (!*alive) return;
          in_flight_.erase(
              std::remove_if(in_flight_.begin(), in_flight_.end(),
                             [raw](const std::unique_ptr<Session>& s) {
                               return s.get() == raw;
                             }),
              in_flight_.end());
        },
        kCoverEvent);
  });
}

}  // namespace p2panon::anon

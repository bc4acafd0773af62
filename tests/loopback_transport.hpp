// In-process transport with synchronous-queue delivery, for tests.
//
// Messages are enqueued and drained in FIFO order by deliver_all(), so
// re-entrancy is bounded and protocol unit tests can single-step message
// exchange without a simulator. Nodes can be taken down to inject failures.
#pragma once

#include <deque>
#include <vector>

#include "net/transport.hpp"

namespace p2panon::net {

class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(std::size_t num_nodes);

  void send(NodeId from, NodeId to, Bytes payload) override;
  void register_handler(NodeId node, Handler handler) override;

  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  std::uint64_t messages_sent() const override { return messages_sent_; }

  /// Marks a node dead: future sends from/to it are dropped.
  void set_up(NodeId node, bool up);
  bool is_up(NodeId node) const { return up_.at(node); }

  /// Delivers queued messages until the queue drains (messages sent during
  /// delivery are also delivered). Returns the number delivered.
  std::size_t deliver_all();

  /// Delivers at most one queued message; returns false when queue empty.
  bool deliver_one();

  std::size_t queued() const { return queue_.size(); }

 private:
  struct Pending {
    NodeId from;
    NodeId to;
    Bytes payload;
  };
  std::vector<Handler> handlers_;
  std::vector<bool> up_;
  std::deque<Pending> queue_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace p2panon::net

#include "loopback_transport.hpp"

#include <stdexcept>
#include <utility>

namespace p2panon::net {

LoopbackTransport::LoopbackTransport(std::size_t num_nodes)
    : handlers_(num_nodes), up_(num_nodes, true) {}

void LoopbackTransport::send(NodeId from, NodeId to, Bytes payload) {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("LoopbackTransport::send: node id out of range");
  }
  ++messages_sent_;
  bytes_sent_ += payload.size();
  if (!up_[from]) return;
  queue_.push_back(Pending{from, to, std::move(payload)});
}

void LoopbackTransport::register_handler(NodeId node, Handler handler) {
  handlers_.at(node) = std::move(handler);
}

void LoopbackTransport::set_up(NodeId node, bool up) {
  up_.at(node) = up;
}

bool LoopbackTransport::deliver_one() {
  if (queue_.empty()) return false;
  Pending msg = std::move(queue_.front());
  queue_.pop_front();
  if (up_[msg.to] && handlers_[msg.to]) {
    handlers_[msg.to](msg.from, msg.to, msg.payload);
  }
  return true;
}

std::size_t LoopbackTransport::deliver_all() {
  std::size_t delivered = 0;
  while (deliver_one()) ++delivered;
  return delivered;
}

}  // namespace p2panon::net

// Channel demultiplexer over a Transport.
//
// Several services (gossip membership, anonymity protocols, cover traffic)
// share one datagram endpoint per node. Demux prefixes each datagram with a
// one-byte channel id and dispatches received datagrams to the channel's
// handler. It installs itself as the Transport handler for every node it is
// given.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "net/transport.hpp"

namespace p2panon::net {

enum class Channel : std::uint8_t {
  kGossip = 1,
  kAnonForward = 2,
  kAnonReverse = 3,
  kControl = 4,
  kCover = 5,
};

class Demux {
 public:
  /// The channel byte in front of every datagram.
  static constexpr std::size_t kChannelByteSize = 1;

  using Handler =
      std::function<void(NodeId from, NodeId to, ByteView payload)>;

  /// Installs receive handlers for nodes [0, num_nodes) on `transport`.
  Demux(Transport& transport, std::size_t num_nodes);

  /// Sends `payload` on `channel` (prepends the channel byte).
  void send(Channel channel, NodeId from, NodeId to, ByteView payload);

  /// Registers the handler for a channel across all nodes. One handler per
  /// channel; later registrations replace earlier ones.
  void set_handler(Channel channel, Handler handler);

  Transport& transport() { return transport_; }

 private:
  void dispatch(NodeId from, NodeId to, const Bytes& datagram);

  Transport& transport_;
  std::array<Handler, 256> handlers_;
};

}  // namespace p2panon::net

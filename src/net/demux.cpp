#include "net/demux.hpp"

namespace p2panon::net {

Demux::Demux(Transport& transport, std::size_t num_nodes)
    : transport_(transport) {
  for (NodeId node = 0; node < num_nodes; ++node) {
    transport_.register_handler(
        node, [this](NodeId from, NodeId to, const Bytes& datagram) {
          dispatch(from, to, datagram);
        });
  }
}

void Demux::send(Channel channel, NodeId from, NodeId to, ByteView payload) {
  Bytes datagram;
  datagram.reserve(kChannelByteSize + payload.size());
  datagram.push_back(static_cast<std::uint8_t>(channel));
  append(datagram, payload);
  transport_.send(from, to, std::move(datagram));
}

void Demux::set_handler(Channel channel, Handler handler) {
  handlers_[static_cast<std::uint8_t>(channel)] = std::move(handler);
}

void Demux::dispatch(NodeId from, NodeId to, const Bytes& datagram) {
  if (datagram.empty()) return;
  const Handler& handler = handlers_[datagram[0]];
  if (handler) {
    handler(from, to, ByteView(datagram).subspan(kChannelByteSize));
  }
}

}  // namespace p2panon::net

// Transport abstraction the protocol layer is written against.
//
// A Transport delivers opaque datagrams between node ids. Delivery is
// best-effort: messages to (or from) dead nodes vanish, like UDP to a host
// that left the network. SimTransport is the one implementation under
// src/: virtual-time delivery through the simulator, with delays from a
// LatencyMatrix and liveness from the churn oracle. Decorators
// (FaultyTransport, perfbench's TimedTransport) and the tests' in-process
// transport implement the same interface.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace p2panon::net {

/// Link-level metadata handed to a LinkTap alongside each observed
/// datagram. `protocol` is the demux channel byte (the first payload
/// byte) — the "port number" analog a wire observer legitimately sees;
/// 0 for empty payloads. `correlation` is the obs causal chain id active
/// at the tap point (deliveries inherit the send's chain via the event
/// queue), so flow records can be cross-referenced with span traces.
struct LinkTapMeta {
  std::uint64_t when_us = 0;     // simulator time at the tap point
  std::uint64_t correlation = 0;  // obs::current_correlation()
  std::uint8_t protocol = 0;      // demux channel byte, 0 if unframed
};

/// Passive wire observer: sees link endpoints, sizes and timing — never
/// payload plaintext (the onion layer's job is to make that useless
/// anyway, but the observer API should not even offer it). Install with
/// SimTransport::set_tap. on_send fires when a datagram is handed to the
/// wire; on_deliver when it reaches a live receiver with a handler. Drops
/// are visible as a send without a matching delivery.
class LinkTap {
 public:
  virtual ~LinkTap() = default;
  virtual void on_send(NodeId from, NodeId to, std::size_t bytes,
                       const LinkTapMeta& meta) = 0;
  virtual void on_deliver(NodeId from, NodeId to, std::size_t bytes,
                          const LinkTapMeta& meta) = 0;
};

class Transport {
 public:
  /// Invoked at the destination when a datagram arrives.
  using Handler =
      std::function<void(NodeId from, NodeId to, const Bytes& payload)>;

  virtual ~Transport() = default;

  /// Sends a datagram. Never fails synchronously; undeliverable messages
  /// are silently dropped (the anonymity layer detects loss end-to-end).
  virtual void send(NodeId from, NodeId to, Bytes payload) = 0;

  /// Installs the receive handler for a node (one per node; later
  /// registrations replace earlier ones).
  virtual void register_handler(NodeId node, Handler handler) = 0;

  /// Cumulative payload bytes handed to send() (bandwidth accounting; each
  /// relay hop counts separately, which matches the paper's per-hop
  /// bandwidth cost).
  virtual std::uint64_t bytes_sent() const = 0;

  /// Cumulative datagrams handed to send().
  virtual std::uint64_t messages_sent() const = 0;
};

}  // namespace p2panon::net

// Passive global-observer capture layer (DESIGN §10).
//
// A LinkObserver implements net::LinkTap and records one flow record per
// observed datagram — link endpoints, simulator time, wire size, direction
// (send vs deliver), the demux channel byte, and the obs correlation id.
// It never sees payload bytes past the channel prefix: the API surface is
// exactly what a wire-level global passive adversary gets, so attacks
// built on the log cannot accidentally cheat.
//
// Records land in a FlowLog: a columnar (structure-of-arrays) ring buffer
// with a hard capacity bound, so a multi-hour run with millions of
// datagrams holds memory constant and simply forgets the oldest traffic.
// Sampling (keep each record i.i.d. with probability sample_rate) models a
// partial-coverage observer and bounds log growth further; the observer
// draws from its own RNG stream so enabling it never perturbs protocol
// randomness.
//
// Everything here defaults OFF in the harness: no LinkObserver is
// constructed unless an experiment asks for one, and a null tap on
// SimTransport is zero work per datagram.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace p2panon::adversary {

/// Direction of an observed datagram relative to the wire.
enum class FlowDir : std::uint8_t {
  kSend = 0,     // handed to the wire by a live sender
  kDeliver = 1,  // arrived at a live receiver with a handler
};

/// One observed datagram, materialized from the columnar log for reading.
struct FlowRecord {
  FlowDir dir = FlowDir::kSend;
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t bytes = 0;
  std::uint64_t time_us = 0;
  std::uint64_t corr = 0;       // obs correlation id at the tap point
  std::uint8_t channel = 0;     // demux channel byte (wire framing prefix)
};

/// Bounded columnar flow log. Append is O(1); once `capacity` records are
/// held the ring evicts the oldest. Readers index records oldest-first.
class FlowLog {
 public:
  explicit FlowLog(std::size_t capacity);

  void append(const FlowRecord& record);

  /// Records currently held (<= capacity).
  std::size_t size() const;
  /// i-th record, oldest first; i must be < size().
  FlowRecord at(std::size_t i) const;

  /// Total records ever appended / evicted by the ring bound. When
  /// evicted() > 0 the earliest traffic is gone — attacks report trials
  /// that fall before earliest_us() as skipped instead of mis-scoring.
  std::uint64_t appended() const { return appended_; }
  std::uint64_t evicted() const { return evicted_; }

  /// Time of the oldest held record (0 when empty).
  std::uint64_t earliest_us() const;

  /// One JSON object per record, newline-separated, oldest first — the
  /// link-record JSONL format tools/trace_analyze ingests via --flows.
  /// Example line:
  ///   {"flow":"send","sim_us":120,"from":4,"to":9,"bytes":512,
  ///    "chan":2,"corr":7}
  std::string to_jsonl() const;
  /// Writes to_jsonl() to `path`; returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

  /// Heap footprint of the columnar ring (all columns, at capacity) for
  /// the capacity byte census.
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(time_us_.capacity()) * sizeof(std::uint64_t) +
           static_cast<std::uint64_t>(corr_.capacity()) * sizeof(std::uint64_t) +
           static_cast<std::uint64_t>(from_.capacity()) * sizeof(NodeId) +
           static_cast<std::uint64_t>(to_.capacity()) * sizeof(NodeId) +
           static_cast<std::uint64_t>(bytes_.capacity()) * sizeof(std::uint32_t) +
           static_cast<std::uint64_t>(channel_.capacity()) +
           static_cast<std::uint64_t>(dir_.capacity());
  }

 private:
  std::size_t slot(std::size_t i) const;

  std::size_t capacity_;
  std::size_t head_ = 0;  // next write slot
  std::uint64_t appended_ = 0;
  std::uint64_t evicted_ = 0;
  // Structure-of-arrays columns, all sized together.
  std::vector<std::uint64_t> time_us_;
  std::vector<std::uint64_t> corr_;
  std::vector<NodeId> from_;
  std::vector<NodeId> to_;
  std::vector<std::uint32_t> bytes_;
  std::vector<std::uint8_t> channel_;
  std::vector<std::uint8_t> dir_;
};

/// Observer knobs. The defaults describe a full-coverage observer; the
/// harness-level default is that no observer exists at all.
struct ObserverConfig {
  double sample_rate = 1.0;        // keep each record with this probability
  std::size_t max_records = 1u << 18;  // ring capacity (flow records)
  bool record_delivers = true;     // also log the deliver edge of each hop
  std::uint64_t seed = 0xad5e1;    // sampling stream (only drawn when < 1.0)
};

/// The capture layer: tap callbacks append to the owned FlowLog, with
/// optional registry counters (adversary_flows_total{dir=...},
/// adversary_flow_bytes_total, adversary_flows_sampled_out_total,
/// adversary_flows_evicted_total). Counters are only registered when a
/// registry is passed, and an observer is only constructed when enabled —
/// so disabled runs keep registry snapshots untouched.
class LinkObserver final : public net::LinkTap {
 public:
  explicit LinkObserver(ObserverConfig config = {},
                        obs::Registry* metrics = nullptr);

  void on_send(NodeId from, NodeId to, std::size_t bytes,
               const net::LinkTapMeta& meta) override;
  void on_deliver(NodeId from, NodeId to, std::size_t bytes,
                  const net::LinkTapMeta& meta) override;

  const FlowLog& log() const { return log_; }
  FlowLog& log() { return log_; }
  const ObserverConfig& config() const { return config_; }

  /// Records dropped by the sampling draw (not appended anywhere).
  std::uint64_t sampled_out() const { return sampled_out_; }

 private:
  void record(FlowDir dir, NodeId from, NodeId to, std::size_t bytes,
              const net::LinkTapMeta& meta);

  ObserverConfig config_;
  FlowLog log_;
  Rng rng_;
  std::uint64_t sampled_out_ = 0;
  // Lazily-absent metrics: null unless a registry was supplied.
  obs::Counter* flows_send_ = nullptr;
  obs::Counter* flows_deliver_ = nullptr;
  obs::Counter* flow_bytes_ = nullptr;
  obs::Counter* flows_sampled_out_ = nullptr;
};

}  // namespace p2panon::adversary

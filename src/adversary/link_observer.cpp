#include "adversary/link_observer.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace p2panon::adversary {

FlowLog::FlowLog(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("FlowLog: capacity must be >= 1");
  }
  // Columns grow to capacity on demand; a short run never pays the full
  // ring footprint.
}

void FlowLog::append(const FlowRecord& record) {
  if (time_us_.size() < capacity_) {
    time_us_.push_back(record.time_us);
    corr_.push_back(record.corr);
    from_.push_back(record.from);
    to_.push_back(record.to);
    bytes_.push_back(record.bytes);
    channel_.push_back(record.channel);
    dir_.push_back(static_cast<std::uint8_t>(record.dir));
  } else {
    time_us_[head_] = record.time_us;
    corr_[head_] = record.corr;
    from_[head_] = record.from;
    to_[head_] = record.to;
    bytes_[head_] = record.bytes;
    channel_[head_] = record.channel;
    dir_[head_] = static_cast<std::uint8_t>(record.dir);
    ++evicted_;
  }
  head_ = (head_ + 1) % capacity_;
  ++appended_;
}

std::size_t FlowLog::size() const { return time_us_.size(); }

std::size_t FlowLog::slot(std::size_t i) const {
  // Once full, head_ is the oldest slot; before that, slot 0 is.
  if (time_us_.size() < capacity_ || evicted_ == 0) return i;
  return (head_ + i) % capacity_;
}

FlowRecord FlowLog::at(std::size_t i) const {
  const std::size_t s = slot(i);
  FlowRecord record;
  record.dir = static_cast<FlowDir>(dir_[s]);
  record.from = from_[s];
  record.to = to_[s];
  record.bytes = bytes_[s];
  record.time_us = time_us_[s];
  record.corr = corr_[s];
  record.channel = channel_[s];
  return record;
}

std::uint64_t FlowLog::earliest_us() const {
  return size() == 0 ? 0 : time_us_[slot(0)];
}

std::string FlowLog::to_jsonl() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < size(); ++i) {
    const FlowRecord r = at(i);
    out << "{\"flow\":\"" << (r.dir == FlowDir::kSend ? "send" : "deliver")
        << "\",\"sim_us\":" << r.time_us << ",\"from\":" << r.from
        << ",\"to\":" << r.to << ",\"bytes\":" << r.bytes
        << ",\"chan\":" << static_cast<unsigned>(r.channel)
        << ",\"corr\":" << r.corr << "}\n";
  }
  return out.str();
}

bool FlowLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_jsonl();
  return static_cast<bool>(out);
}

LinkObserver::LinkObserver(ObserverConfig config, obs::Registry* metrics)
    : config_(config), log_(config.max_records), rng_(config.seed) {
  if (config_.sample_rate < 0.0 || config_.sample_rate > 1.0) {
    throw std::invalid_argument(
        "LinkObserver: sample_rate must be in [0, 1]");
  }
  if (metrics != nullptr) {
    flows_send_ =
        metrics->counter("adversary_flows_total", {{"dir", "send"}});
    flows_deliver_ =
        metrics->counter("adversary_flows_total", {{"dir", "deliver"}});
    flow_bytes_ = metrics->counter("adversary_flow_bytes_total");
    flows_sampled_out_ =
        metrics->counter("adversary_flows_sampled_out_total");
  }
}

void LinkObserver::record(FlowDir dir, NodeId from, NodeId to,
                          std::size_t bytes,
                          const net::LinkTapMeta& meta) {
  // Only draw when partial coverage is configured, so a full-coverage
  // observer consumes no randomness at all.
  if (config_.sample_rate < 1.0 &&
      !rng_.bernoulli(config_.sample_rate)) {
    ++sampled_out_;
    if (flows_sampled_out_ != nullptr) flows_sampled_out_->inc();
    return;
  }
  FlowRecord r;
  r.dir = dir;
  r.from = from;
  r.to = to;
  r.bytes = static_cast<std::uint32_t>(bytes);
  r.time_us = meta.when_us;
  r.corr = meta.correlation;
  r.channel = meta.protocol;
  log_.append(r);
  if (flow_bytes_ != nullptr) flow_bytes_->inc(bytes);
  if (dir == FlowDir::kSend) {
    if (flows_send_ != nullptr) flows_send_->inc();
  } else {
    if (flows_deliver_ != nullptr) flows_deliver_->inc();
  }
}

void LinkObserver::on_send(NodeId from, NodeId to, std::size_t bytes,
                           const net::LinkTapMeta& meta) {
  record(FlowDir::kSend, from, to, bytes, meta);
}

void LinkObserver::on_deliver(NodeId from, NodeId to, std::size_t bytes,
                              const net::LinkTapMeta& meta) {
  if (!config_.record_delivers) return;
  record(FlowDir::kDeliver, from, to, bytes, meta);
}

}  // namespace p2panon::adversary

#include "harness/health.hpp"

#include <algorithm>
#include <sstream>

#include "metrics/table.hpp"

namespace p2panon::harness {

namespace {

constexpr const char* kDropCauses[] = {"sender_dead", "receiver_dead",
                                       "link_loss", "no_handler"};
constexpr std::size_t kDropCauseCount =
    sizeof(kDropCauses) / sizeof(kDropCauses[0]);

// Membership-plane injection kinds mirrored by FaultyTransport
// (fault_injections_total{kind=...}).
constexpr const char* kMembershipKinds[] = {"gossip_blackout", "gossip_loss",
                                            "stale_injected",
                                            "claim_inflated"};
constexpr std::size_t kMembershipKindCount =
    sizeof(kMembershipKinds) / sizeof(kMembershipKinds[0]);

// Consecutive zero-ack windows (with traffic) before an established path
// counts as stalled.
constexpr std::size_t kStallWindows = 3;
// Consecutive corruption windows (segment-auth rejections or corrupt nacks
// observed) before the attribution verdict escalates from "transient" to
// "sustained".
constexpr std::size_t kCorruptionVerdictWindows = 3;

std::string format_rate(double v) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << v;
  return out.str();
}

}  // namespace

HealthScoreboard::HealthScoreboard(
    sim::Simulator& simulator, churn::ChurnModel& churn,
    const membership::MembershipProvider& membership, obs::Registry& registry)
    : simulator_(simulator),
      churn_(churn),
      membership_(membership),
      registry_(registry),
      storm_transitions_(std::max<std::uint64_t>(
          8, static_cast<std::uint64_t>(churn.num_nodes()) / 8)),
      cause_stats_(kDropCauseCount),
      membership_stats_(kMembershipKindCount) {}

void HealthScoreboard::attach_session(const anon::Session& session) {
  session_ = &session;
  path_watch_.assign(session.paths().size(), PathWatch{});
}

void HealthScoreboard::sample() {
  const SimTime now = simulator_.now();
  const double window_s =
      now > last_sample_us_
          ? static_cast<double>(now - last_sample_us_) /
                static_cast<double>(kSecond)
          : 0.0;
  ++summary_.windows;

  // Churn storm detection.
  const std::uint64_t transitions = churn_.total_transitions();
  const std::uint64_t transition_delta = transitions - prev_transitions_;
  prev_transitions_ = transitions;
  summary_.max_transitions_per_window =
      std::max(summary_.max_transitions_per_window, transition_delta);
  const bool storm = transition_delta >= storm_transitions_;
  if (storm) ++summary_.churn_storm_windows;
  registry_.gauge("health_churn_transitions_window")
      ->set(static_cast<std::int64_t>(transition_delta));
  registry_.gauge("health_churn_storm")->set(storm ? 1 : 0);

  // Per-cause drop-rate windows.
  for (std::size_t i = 0; i < kDropCauseCount; ++i) {
    CauseStats& stats = cause_stats_[i];
    const std::uint64_t total = registry_.counter_value(
        "net_drops_total", {{"cause", kDropCauses[i]}});
    const std::uint64_t delta = total - stats.prev;
    stats.prev = total;
    stats.window_total += delta;
    summary_.total_window_drops += delta;
    const double rate =
        window_s > 0.0 ? static_cast<double>(delta) / window_s : 0.0;
    stats.max_rate_per_s = std::max(stats.max_rate_per_s, rate);
    summary_.max_drop_rate_per_s =
        std::max(summary_.max_drop_rate_per_s, rate);
    registry_.gauge("health_window_drops", {{"cause", kDropCauses[i]}})
        ->set(static_cast<std::int64_t>(delta));
  }

  // Membership-plane fault windows: injections the fault layer applied to
  // gossip traffic this window, plus the provider's leader re-elections.
  std::uint64_t membership_delta = 0;
  for (std::size_t i = 0; i < kMembershipKindCount; ++i) {
    CauseStats& stats = membership_stats_[i];
    const std::uint64_t total = registry_.counter_value(
        "fault_injections_total", {{"kind", kMembershipKinds[i]}});
    const std::uint64_t delta = total - stats.prev;
    stats.prev = total;
    stats.window_total += delta;
    membership_delta += delta;
    const double rate =
        window_s > 0.0 ? static_cast<double>(delta) / window_s : 0.0;
    stats.max_rate_per_s = std::max(stats.max_rate_per_s, rate);
    registry_.gauge("health_window_membership_faults",
                    {{"kind", kMembershipKinds[i]}})
        ->set(static_cast<std::int64_t>(delta));
  }
  summary_.total_membership_faults += membership_delta;
  summary_.max_membership_faults_per_window =
      std::max(summary_.max_membership_faults_per_window, membership_delta);
  if (membership_delta > 0) ++summary_.membership_fault_windows;
  const std::uint64_t elections = membership_.control_stats().elections;
  const std::uint64_t election_delta = elections - prev_elections_;
  prev_elections_ = elections;
  summary_.elections_observed += election_delta;
  registry_.gauge("health_window_elections")
      ->set(static_cast<std::int64_t>(election_delta));

  // Corruption attribution: windows are scored by the evidence both ends
  // produce — responder-side segment-auth rejections and the corrupt-nack
  // verdicts that reached the initiator. Both series sit at zero unless a
  // session opted into the auth trailer, so legacy runs never see a
  // corruption window.
  const std::uint64_t rejections = registry_.counter_value(
      "anon_segment_auth_total", {{"result", "rejected"}});
  const std::uint64_t rejection_delta = rejections - prev_auth_rejections_;
  prev_auth_rejections_ = rejections;
  const std::uint64_t nacks =
      registry_.counter_value("session_corrupt_nacks_total");
  const std::uint64_t nack_delta = nacks - prev_corrupt_nacks_;
  prev_corrupt_nacks_ = nacks;
  summary_.total_auth_rejections += rejection_delta;
  summary_.total_corrupt_nacks += nack_delta;
  summary_.max_rejections_per_window =
      std::max(summary_.max_rejections_per_window, rejection_delta);
  const bool corruption = rejection_delta + nack_delta > 0;
  if (corruption) {
    ++summary_.corruption_windows;
    ++corruption_streak_;
  } else {
    corruption_streak_ = 0;
  }
  summary_.max_corruption_streak =
      std::max(summary_.max_corruption_streak, corruption_streak_);
  registry_.gauge("health_window_auth_rejections")
      ->set(static_cast<std::int64_t>(rejection_delta));
  registry_.gauge("health_corruption_window")->set(corruption ? 1 : 0);

  // Stalled-path detection: established, traffic sent, nothing acked for
  // kStallWindows consecutive windows.
  std::int64_t stalled_now = 0;
  if (session_ != nullptr) {
    const auto& paths = session_->paths();
    if (path_watch_.size() < paths.size()) {
      path_watch_.resize(paths.size());
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      PathWatch& watch = path_watch_[i];
      const std::uint64_t send_delta = paths[i].sends - watch.prev_sends;
      const std::uint64_t ack_delta = paths[i].acks - watch.prev_acks;
      watch.prev_sends = paths[i].sends;
      watch.prev_acks = paths[i].acks;
      if (paths[i].state == anon::PathState::kEstablished &&
          send_delta > 0 && ack_delta == 0) {
        ++watch.zero_ack_windows;
      } else {
        watch.zero_ack_windows = 0;
      }
      if (watch.zero_ack_windows >= kStallWindows) {
        ++stalled_now;
        ++summary_.stalled_path_windows;
      }
    }
  }
  registry_.gauge("health_stalled_paths")->set(stalled_now);

  last_sample_us_ = now;
}

const char* HealthScoreboard::corruption_verdict() const {
  if (summary_.corruption_windows == 0) return "clean";
  return summary_.max_corruption_streak >= kCorruptionVerdictWindows
             ? "sustained"
             : "transient";
}

std::string HealthScoreboard::table() const {
  metrics::Table table({"health signal", "value"});
  table.add_row({"windows", std::to_string(summary_.windows)});
  table.add_row({"churn storm windows",
                 std::to_string(summary_.churn_storm_windows)});
  table.add_row({"max transitions/window",
                 std::to_string(summary_.max_transitions_per_window)});
  table.add_row({"stalled path-windows",
                 std::to_string(summary_.stalled_path_windows)});
  table.add_row({"max drop rate (/s)",
                 format_rate(summary_.max_drop_rate_per_s)});
  table.add_row({"corruption verdict", corruption_verdict()});
  table.add_row({"corruption windows",
                 std::to_string(summary_.corruption_windows) + " (streak " +
                     std::to_string(summary_.max_corruption_streak) + ")"});
  table.add_row({"auth rejections / corrupt nacks",
                 std::to_string(summary_.total_auth_rejections) + " / " +
                     std::to_string(summary_.total_corrupt_nacks)});
  for (std::size_t i = 0; i < kDropCauseCount; ++i) {
    table.add_row({std::string("drops ") + kDropCauses[i],
                   std::to_string(cause_stats_[i].window_total) +
                       " (peak " + format_rate(cause_stats_[i].max_rate_per_s) +
                       "/s)"});
  }
  table.add_row({"membership fault windows",
                 std::to_string(summary_.membership_fault_windows) +
                     " (max/window " +
                     std::to_string(summary_.max_membership_faults_per_window) +
                     ")"});
  for (std::size_t i = 0; i < kMembershipKindCount; ++i) {
    table.add_row({std::string("membership ") + kMembershipKinds[i],
                   std::to_string(membership_stats_[i].window_total) +
                       " (peak " +
                       format_rate(membership_stats_[i].max_rate_per_s) +
                       "/s)"});
  }
  table.add_row({"leader elections", std::to_string(summary_.elections_observed)});
  return table.render();
}

}  // namespace p2panon::harness

// Node liveness prediction (paper §4.9).
//
// Under Pareto(alpha, beta) lifetimes, the probability that a node alive
// for dt_alive is still alive dt_since later is
//
//   p = (dt_alive / (dt_alive + dt_since))^alpha            (Eq. 1)
//
// Since p is monotone in q = dt_alive / (dt_alive + dt_since) (Eq. 2),
// mix selection ranks by q directly and never needs alpha. When a cached
// record is (t_now - t_last) old, the staleness is added to dt_since:
//
//   q = dt_alive / (dt_alive + dt_since + (t_now - t_last))  (Eq. 3)
//
// NodeCache applies Eq. 3 by passing Eq. 2 the age since the record's
// origin, t_now - t_origin.
#pragma once

#include "common/time.hpp"

namespace p2panon::membership {

/// A liveness observation as gossiped between nodes: how long the subject
/// had been up when observed, and how stale that observation was at the
/// moment of sending.
struct LivenessInfo {
  SimDuration dt_alive = 0;  // observed uptime
  SimDuration dt_since = 0;  // age of the observation when recorded
  bool alive = true;         // false: the subject was observed leaving
};

/// Eq. 2: q in [0, 1]; 0 when the node was never seen alive.
double liveness_predictor(SimDuration dt_alive, SimDuration dt_since);

}  // namespace p2panon::membership

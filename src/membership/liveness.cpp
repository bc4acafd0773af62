#include "membership/liveness.hpp"

namespace p2panon::membership {

double liveness_predictor(SimDuration dt_alive, SimDuration dt_since) {
  if (dt_alive <= 0) return 0.0;
  if (dt_since < 0) dt_since = 0;
  return static_cast<double>(dt_alive) /
         static_cast<double>(dt_alive + dt_since);
}

}  // namespace p2panon::membership

// Common interface over the membership dissemination substrates.
//
// The paper's protocols (biased/random mix choice, Eq. 3 predictor) only
// need a per-node NodeCache and the node's own uptime; they are agnostic to
// *how* liveness records travel. GossipMembership (epidemic) and
// OneHopMembership (hierarchical, leader-based) both implement this
// interface so the harness can swap substrates per scenario — the
// membership-chaos leader-crash scenario runs the durability experiment
// over OneHop, everything else over gossip.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "common/types.hpp"
#include "membership/node_cache.hpp"

namespace p2panon::obs::capacity {
class ByteCensus;
}  // namespace p2panon::obs::capacity

namespace p2panon::membership {

/// Control-plane activity tallies, uniform across substrates (fields a
/// substrate doesn't implement stay 0). Exported by the harness as
/// membership_control_* series and aggregated in the membership sweep's
/// repair-convergence tables.
struct ControlStats {
  std::uint64_t anti_entropy_rounds = 0;    // digest exchanges initiated
  std::uint64_t digests_sent = 0;           // digest + digest-reply messages
  std::uint64_t repair_records_sent = 0;    // records pushed to heal a diff
  std::uint64_t repair_records_accepted = 0;  // pushed records that merged
  std::uint64_t elections = 0;              // leader failovers performed
  std::uint64_t leader_announcements = 0;   // announce messages sent
};

class MembershipProvider {
 public:
  virtual ~MembershipProvider() = default;

  /// Seeds caches and starts periodic dissemination tasks.
  virtual void start() = 0;

  virtual NodeCache& cache(NodeId node) = 0;
  virtual const NodeCache& cache(NodeId node) const = 0;

  /// The node's own uptime (what it reports in its packets).
  virtual SimDuration own_uptime(NodeId node) const = 0;

  virtual std::size_t num_nodes() const = 0;

  /// Fraction of (live observer, subject) pairs whose alive/dead belief
  /// matches ground truth — dissemination quality metric.
  virtual double belief_accuracy() const = 0;

  virtual std::uint64_t messages_sent() const = 0;
  virtual std::uint64_t bytes_sent() const = 0;

  virtual ControlStats control_stats() const = 0;

  /// Reports this substrate's container footprints into the capacity byte
  /// census under the "membership" subsystem (caches, rumor queues,
  /// dissemination tasks). Read-only; never perturbs the run.
  virtual void byte_census(obs::capacity::ByteCensus& census) const = 0;
};

}  // namespace p2panon::membership

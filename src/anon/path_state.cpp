#include "anon/path_state.hpp"

namespace p2panon::anon {

StreamId PathStateTable::fresh_sid() {
  while (true) {
    const StreamId sid = rng_.next_u64();
    if (sid != 0 && by_upstream_.count(sid) == 0 &&
        downstream_to_upstream_.count(sid) == 0) {
      return sid;
    }
  }
}

StreamId PathStateTable::install(RelayEntry entry, SimTime now,
                                 SimDuration ttl) {
  entry.downstream_sid = fresh_sid();
  entry.expires = now + ttl;
  const StreamId down = entry.downstream_sid;
  downstream_to_upstream_[down] = entry.upstream_sid;
  by_upstream_[entry.upstream_sid] = std::move(entry);
  return down;
}

void PathStateTable::install_terminal(RelayEntry entry, SimTime now,
                                      SimDuration ttl) {
  entry.downstream = kInvalidNode;
  entry.downstream_sid = 0;
  entry.at_responder = true;
  entry.expires = now + ttl;
  by_upstream_[entry.upstream_sid] = std::move(entry);
}

RelayEntry* PathStateTable::find_by_upstream(StreamId upstream_sid) {
  const auto it = by_upstream_.find(upstream_sid);
  return it == by_upstream_.end() ? nullptr : &it->second;
}

RelayEntry* PathStateTable::find_by_downstream(StreamId downstream_sid) {
  const auto it = downstream_to_upstream_.find(downstream_sid);
  if (it == downstream_to_upstream_.end()) return nullptr;
  return find_by_upstream(it->second);
}

void PathStateTable::refresh(RelayEntry& entry, SimTime now,
                             SimDuration ttl) {
  entry.expires = now + ttl;
}

bool PathStateTable::release_by_upstream(StreamId upstream_sid) {
  const auto it = by_upstream_.find(upstream_sid);
  if (it == by_upstream_.end()) return false;
  if (it->second.downstream_sid != 0) {
    downstream_to_upstream_.erase(it->second.downstream_sid);
  }
  by_upstream_.erase(it);
  return true;
}

std::size_t PathStateTable::expire(SimTime now) {
  std::size_t removed = 0;
  for (auto it = by_upstream_.begin(); it != by_upstream_.end();) {
    if (it->second.expires <= now) {
      if (it->second.downstream_sid != 0) {
        downstream_to_upstream_.erase(it->second.downstream_sid);
      }
      it = by_upstream_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace p2panon::anon

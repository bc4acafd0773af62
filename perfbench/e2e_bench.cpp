// End-to-end delivered-message benchmark.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs SimEra(4,2) with biased mix choice over the full simulated stack:
// several pinned initiator -> responder sessions, each fed by a workload
// engine (bulk / interactive / streaming Poisson arrivals), under a chaos
// fault plan. Arrivals are an open loop in simulated time: they never wait
// for deliveries. The simulator runs single-threaded, as fast as it can.
//
// One episode simulates one network: set-up (build the stack, provision
// keys, simulate the gossip warm-up), then the measured window (the send
// window plus a quiesce that drains in-flight traffic). A run covers a
// fixed set of independent networks, with seeds derived from --seed, so
// the simulated results of a run are deterministic for its seed. After
// that first pass the untraced run keeps re-running the same networks
// until --seconds of wall time have passed; a re-run must reproduce its
// network's fingerprint exactly, and adds timing samples.
//
// --trace 0 reports the end-to-end metrics from untraced
// harness::Environment episodes. Their timings are scaled by a host-speed
// probe taken between episodes (host_probe_ms), so that the shared host's
// drift cancels in part. --trace 1 runs each network twice,
// untraced and then traced (TracedStack: the same components with timing
// decorators at each layer seam), and reports per-layer metrics summed
// over the traced episodes, plus whether every traced fingerprint matched
// its untraced twin.
//
// Every message carries content derived from its session and sequence
// number; each delivery is checked byte for byte. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A wrong
// delivery, a delivery of an unknown id, an open ledger or a fingerprint
// mismatch makes the run incorrect and the exit code 1.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "anon/protocols.hpp"
#include "anon/session.hpp"
#include "common/config.hpp"
#include "harness/chaos_experiment.hpp"
#include "harness/environment.hpp"
#include "layers.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/capacity/rusage.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  const char* name;
  std::size_t nodes;
  bool fast_crypto;
  std::size_t sessions;
  SimDuration mean_interarrival;  // per session
  const char* session_distribution;
  harness::ChaosScenario scenario;
  SimDuration send_window;  // arrivals run from warm-up end for this long
  std::size_t networks;     // independent networks (seeds) per run
};

constexpr SimDuration kWarmup = 10 * kMinute;      // gossip convergence
constexpr SimDuration kFaultGrace = 30 * kSecond;  // first paths build first
constexpr SimDuration kQuiesce = 2 * kMinute;      // drain in-flight traffic

const Workload kWorkloads[] = {
    {"real-steady", 256, false, 4, 1 * kSecond, "pareto:median=3600",
     harness::ChaosScenario::kMildLossDrizzle, 3 * kMinute, 10},
    {"real-churn", 256, false, 8, 5 * kSecond, "pareto:median=600",
     harness::ChaosScenario::kFlashCrowdCrash, 3 * kMinute, 16},
    {"fast-n1024", 1024, true, 8, 1 * kSecond, "pareto:median=3600",
     harness::ChaosScenario::kMildLossDrizzle, 8 * kMinute, 6},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Seed of the run's i-th network. Distinct run seeds give disjoint sets.
std::uint64_t network_seed(std::uint64_t seed, std::size_t i) {
  return seed * 16 + i;
}

/// Message content, derived from (session, sequence) so every message is
/// distinct and a delivery can be checked byte for byte.
void fill_payload(Bytes& out, std::size_t session, std::uint64_t seq,
                  std::size_t size) {
  out.resize(size);
  std::uint64_t state = (static_cast<std::uint64_t>(session) << 40) ^ seq ^
                        0x5eedf00dcafe1234ULL;
  for (std::size_t i = 0; i < size; i += 8) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    std::memcpy(out.data() + i, &z, std::min<std::size_t>(8, size - i));
  }
}

/// Initiator/responder pairs: nodes the fault plan never crashes (nodes 0
/// and 1 are exempt by construction), so every session's endpoints stay up.
std::vector<std::pair<NodeId, NodeId>> pick_endpoints(
    const fault::FaultPlan& plan, std::size_t nodes, std::size_t sessions) {
  std::vector<NodeId> clean;
  for (NodeId node = 0; node < nodes && clean.size() < 2 * sessions;
       ++node) {
    const bool crashed = std::any_of(
        plan.crashes().begin(), plan.crashes().end(),
        [node](const fault::CrashEvent& c) { return c.node == node; });
    if (!crashed) clean.push_back(node);
  }
  if (clean.size() < 2 * sessions) {
    throw std::runtime_error("not enough crash-free nodes for the sessions");
  }
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t s = 0; s < sessions; ++s) {
    pairs.emplace_back(clean[2 * s], clean[2 * s + 1]);
  }
  return pairs;
}

/// Deterministic counts of one episode; equal fingerprints mean the same
/// simulated run.
struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t segments = 0;
  std::uint64_t delivered = 0;
  bool operator==(const Fingerprint&) const = default;
};

const char* const kDropCauses[] = {"sender_dead", "receiver_dead",
                                   "link_loss", "no_handler"};
constexpr std::size_t kDropCauseCount = std::size(kDropCauses);

/// Counters over the measured window. Summable, so a run's traced
/// episodes add up to one set of per-layer readings.
struct Window {
  double wall_s = 0;
  std::uint64_t attempts = 0;
  std::uint64_t delivered = 0;
  std::array<std::uint64_t, 3> arrivals{};  // by workload::TrafficClass
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t acks_matched = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t segments_expired = 0;
  std::uint64_t path_rebuilds = 0;
  std::uint64_t construct_attempts = 0;
  std::uint64_t peel_failures = 0;
  std::array<std::uint64_t, kDropCauseCount> drops{};
  std::uint64_t fault_dropped_loss = 0;
  std::uint64_t fault_dropped_crash = 0;
  // Traced episodes only.
  std::array<SpanRecorder::Totals, kLayerCount> spans{};
  std::array<std::uint64_t, 256> bytes_by_channel{};
  std::map<std::string, double> loop_ns;  // profiler time by event type
  double loop_busy_ns = 0;

  void add(const Window& o) {
    wall_s += o.wall_s;
    attempts += o.attempts;
    delivered += o.delivered;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      arrivals[i] += o.arrivals[i];
    }
    events += o.events;
    datagrams += o.datagrams;
    segments_sent += o.segments_sent;
    acks_matched += o.acks_matched;
    segments_retransmitted += o.segments_retransmitted;
    segments_expired += o.segments_expired;
    path_rebuilds += o.path_rebuilds;
    construct_attempts += o.construct_attempts;
    peel_failures += o.peel_failures;
    for (std::size_t i = 0; i < drops.size(); ++i) drops[i] += o.drops[i];
    fault_dropped_loss += o.fault_dropped_loss;
    fault_dropped_crash += o.fault_dropped_crash;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      spans[i].calls += o.spans[i].calls;
      spans[i].inclusive_ns += o.spans[i].inclusive_ns;
      spans[i].self_ns += o.spans[i].self_ns;
      spans[i].top_level_ns += o.spans[i].top_level_ns;
    }
    for (std::size_t i = 0; i < bytes_by_channel.size(); ++i) {
      bytes_by_channel[i] += o.bytes_by_channel[i];
    }
    for (const auto& [type, ns] : o.loop_ns) loop_ns[type] += ns;
    loop_busy_ns += o.loop_busy_ns;
  }
};

struct Episode {
  double setup_s = 0;
  std::uint64_t peak_rss_kb = 0;  // untraced episodes only
  double probe_ms = 0;            // host probe around the episode
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;    // wrong bytes or wrong responder
  std::uint64_t unknown = 0;  // delivery of an id never sent
  std::uint64_t duplicates = 0;
  std::uint64_t id_collisions = 0;
  std::uint64_t construct_failures = 0;
  // Accepted but undelivered messages: misses the faults explain, and
  // messages with m acknowledged segments that the responder never
  // delivered although its reassembly did not expire.
  std::uint64_t lost_explained = 0;
  std::uint64_t lost_unexplained = 0;
  bool ledger_closed = true;
  std::vector<double> send_us;
  std::vector<SimDuration> latency;
  Fingerprint fingerprint;
  Window window;

  /// Operations that went wrong without an explanation. Refused sends and
  /// fault-explained losses are misses, counted by delivery_ratio instead.
  std::uint64_t failed() const { return wrong + unknown + lost_unexplained; }

  bool correct() const {
    return wrong == 0 && unknown == 0 && id_collisions == 0 &&
           construct_failures == 0 && ledger_closed &&
           window.attempts == accepted + refused &&
           window.delivered <= accepted;
  }
};

struct WindowStart {
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t constructs = 0;
  std::uint64_t peel_failures = 0;
  std::array<std::uint64_t, kDropCauseCount> drops{};
  fault::FaultyTransport::Counters faults;
};

/// Runs one episode on the stack `make_stack(config)` builds. `profiler`
/// and `recorder` are null for untraced episodes.
template <class MakeStack>
Episode run_episode(const Workload& w, std::uint64_t seed,
                    MakeStack make_stack,
                    obs::capacity::LoopProfiler* profiler,
                    SpanRecorder* recorder) {
  static const auto kSendEvent = obs::capacity::event_type("perfbench.send");
  Episode ep;
  Window& win = ep.window;
  const auto setup_start = Clock::now();

  const SimTime measure_end = kWarmup + w.send_window;
  const SimTime fault_start = kWarmup + kFaultGrace;
  const fault::FaultPlan plan = harness::make_scenario_plan(
      w.scenario, w.nodes, fault_start, measure_end, seed);
  harness::EnvironmentConfig config;
  config.num_nodes = w.nodes;
  config.seed = seed;
  config.session_distribution = w.session_distribution;
  config.fast_crypto = w.fast_crypto;
  config.fault_plan = &plan;
  config.loop_profiler = profiler;
  auto stack = make_stack(config);
  sim::Simulator& simulator = stack->simulator();

  const auto pairs = pick_endpoints(plan, w.nodes, w.sessions);
  for (const auto& [initiator, responder] : pairs) {
    stack->churn().pin_up(initiator);
    stack->churn().pin_up(responder);
  }

  anon::SessionConfig base;
  base.path_length = config.path_length;
  base.construct_timeout = 5 * kSecond;
  base.ack_timeout = 5 * kSecond;
  base.max_construct_attempts = 500;
  base.auto_reconstruct = true;
  const anon::SessionConfig session_config =
      anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kBiased)
          .session_config(base);
  // Interactive-heavy mix: the median send lands well inside the
  // interactive class and p99 inside the bulk class, not on a class edge.
  workload::WorkloadConfig load;
  load.enabled = true;
  load.shape = workload::LoadShape::kSteady;
  load.mean_interarrival = w.mean_interarrival;
  load.bulk_weight = 0.2;
  load.interactive_weight = 0.6;
  load.streaming_weight = 0.2;

  std::vector<std::unique_ptr<anon::Session>> sessions;
  std::vector<std::unique_ptr<workload::WorkloadEngine>> engines;
  for (const auto& [initiator, responder] : pairs) {
    sessions.push_back(std::make_unique<anon::Session>(
        stack->router(), stack->membership().cache(initiator), initiator,
        responder, session_config, stack->rng().fork()));
    engines.push_back(std::make_unique<workload::WorkloadEngine>(
        load, fault_start, measure_end - fault_start, stack->rng().fork()));
  }

  struct Track {
    std::size_t session = 0;
    std::uint64_t seq = 0;
    std::size_t size = 0;
    SimTime sent_at = 0;
    std::uint64_t segments_placed = 0;
    std::uint64_t acked_segments = 0;  // bit per segment index
    bool delivered = false;
    bool segment_expired = false;
    bool reassembly_expired = false;
  };
  std::unordered_map<MessageId, Track> tracks;
  std::vector<std::uint64_t> next_seq(w.sessions, 0);
  Bytes payload;
  Bytes expected;

  stack->router().set_message_handler([&](const anon::ReceivedMessage& msg) {
    const auto it = tracks.find(msg.message_id);
    if (it == tracks.end()) {
      ++ep.unknown;
      return;
    }
    Track& track = it->second;
    fill_payload(expected, track.session, track.seq, track.size);
    if (msg.responder != pairs[track.session].second ||
        msg.data != expected) {
      ++ep.wrong;
      return;
    }
    if (track.delivered) {
      ++ep.duplicates;
      return;
    }
    track.delivered = true;
    ++win.delivered;
    ep.latency.push_back(simulator.now() - track.sent_at);
  });
  for (auto& session : sessions) {
    session->set_ack_handler([&](MessageId id, std::uint32_t segment,
                                 std::size_t) {
      const auto it = tracks.find(id);
      if (it != tracks.end() && segment < 64) {
        it->second.acked_segments |= std::uint64_t{1} << segment;
      }
    });
    session->set_segment_expiry_handler(
        [&](MessageId id, std::uint32_t, std::size_t) {
          const auto it = tracks.find(id);
          if (it != tracks.end()) it->second.segment_expired = true;
        });
  }
  stack->router().set_reassembly_expiry_handler([&](NodeId, MessageId id) {
    const auto it = tracks.find(id);
    if (it != tracks.end()) it->second.reassembly_expired = true;
  });

  // The self-rescheduling pump lives in this frame, which outlives every
  // run_until below; scheduled copies capture it by reference.
  std::function<void(std::size_t, workload::Arrival)> pump;
  pump = [&](std::size_t s, workload::Arrival arrival) {
    simulator.schedule_after(
        arrival.wait,
        [&, s, arrival] {
          const SimTime now = simulator.now();
          if (now > measure_end) return;
          const std::uint64_t seq = next_seq[s]++;
          fill_payload(payload, s, seq, arrival.size);
          anon::SegmentPriority priority = anon::SegmentPriority::kInteractive;
          if (arrival.cls == workload::TrafficClass::kBulk) {
            priority = anon::SegmentPriority::kBulk;
          } else if (arrival.cls == workload::TrafficClass::kStreaming) {
            priority = anon::SegmentPriority::kStreaming;
          }
          ++win.attempts;
          ++win.arrivals[static_cast<std::size_t>(arrival.cls)];
          MessageId id = 0;
          const std::uint64_t segments_before = sessions[s]->segments_sent();
          const auto t0 = Clock::now();
          if (recorder != nullptr) {
            Span span(*recorder, Layer::kSessionSend);
            id = sessions[s]->send_message(payload, priority);
          } else {
            id = sessions[s]->send_message(payload, priority);
          }
          ep.send_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count());
          if (id == 0) {
            ++ep.refused;
          } else {
            ++ep.accepted;
            Track track;
            track.session = s;
            track.seq = seq;
            track.size = arrival.size;
            track.sent_at = now;
            track.segments_placed =
                sessions[s]->segments_sent() - segments_before;
            if (!tracks.emplace(id, track).second) ++ep.id_collisions;
          }
          pump(s, engines[s]->next(now));
        },
        kSendEvent);
  };
  simulator.schedule_at(
      kWarmup,
      [&] {
        for (std::size_t s = 0; s < sessions.size(); ++s) {
          auto on_built = [&, s](bool ok, std::size_t) {
            if (!ok) {
              ++ep.construct_failures;
              return;
            }
            pump(s, engines[s]->next(simulator.now()));
          };
          if (recorder != nullptr) {
            Span span(*recorder, Layer::kSessionConstruct);
            sessions[s]->construct(on_built);
          } else {
            sessions[s]->construct(on_built);
          }
        }
      },
      kSendEvent);

  stack->start();
  simulator.run_until(kWarmup - 1);
  ep.setup_s = seconds_since(setup_start);

  obs::Registry& registry = stack->metrics();
  fault::FaultyTransport& faulty = *stack->faulty_transport();
  const auto constructs_started = [&] {
    return registry.counter_value("anon_path_constructs_total",
                                  {{"result", "started"}});
  };
  const auto drops = [&](std::size_t cause) {
    return registry.counter_value("net_drops_total",
                                  {{"cause", kDropCauses[cause]}});
  };
  WindowStart start;
  start.events = simulator.executed_events();
  start.datagrams = faulty.messages_sent();
  start.constructs = constructs_started();
  start.peel_failures = stack->router().peel_failures();
  for (std::size_t c = 0; c < kDropCauseCount; ++c) start.drops[c] = drops(c);
  start.faults = faulty.counters();
  if (profiler != nullptr) profiler->reset();
  if (recorder != nullptr) recorder->reset();

  const auto window_start = Clock::now();
  simulator.run_until(measure_end + kQuiesce);
  win.wall_s = seconds_since(window_start);

  if (recorder != nullptr) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      win.spans[i] = recorder->totals(static_cast<Layer>(i));
    }
    win.bytes_by_channel = recorder->bytes_by_channel;
  }
  if (profiler != nullptr) {
    const auto report = profiler->report();
    for (const auto& type : report.types) win.loop_ns[type.name] = type.est_total_ns;
    win.loop_busy_ns = report.est_busy_ns_total;
  }

  for (const auto& session : sessions) {
    win.segments_sent += session->segments_sent();
    win.acks_matched += session->acks_matched();
    win.segments_retransmitted += session->segments_retransmitted();
    win.segments_expired += session->segments_expired();
    for (const auto& info : session->paths()) {
      win.path_rebuilds += info.rebuilds;
    }
    ep.ledger_closed =
        ep.ledger_closed &&
        session->segments_sent() ==
            session->acks_matched() + session->segments_expired() +
                session->segments_retransmitted() +
                session->pending_segment_count();
  }
  win.events = simulator.executed_events() - start.events;
  win.datagrams = faulty.messages_sent() - start.datagrams;
  win.construct_attempts = constructs_started() - start.constructs;
  win.peel_failures = stack->router().peel_failures() - start.peel_failures;
  for (std::size_t c = 0; c < kDropCauseCount; ++c) {
    win.drops[c] = drops(c) - start.drops[c];
  }
  win.fault_dropped_loss =
      faulty.counters().dropped_loss - start.faults.dropped_loss;
  win.fault_dropped_crash =
      faulty.counters().dropped_crash - start.faults.dropped_crash;

  // Conservation. An accepted, undelivered message is a miss the faults
  // explain when one of its segments was abandoned, the responder's
  // reassembly timed out, fewer than m segments were placed, or fewer
  // than m were acknowledged (still in flight when the run ended).
  // Otherwise the responder held m segments and never delivered: failed.
  const std::size_t needed = session_config.erasure.m;
  for (const auto& [id, track] : tracks) {
    if (track.delivered) continue;
    const bool explained =
        track.segment_expired || track.reassembly_expired ||
        track.segments_placed < needed ||
        static_cast<std::size_t>(std::popcount(track.acked_segments)) <
            needed;
    ++(explained ? ep.lost_explained : ep.lost_unexplained);
  }
  ep.fingerprint = {simulator.executed_events(), faulty.messages_sent(),
                    win.segments_sent, win.delivered};
  sessions.clear();  // sessions hold references into the stack
  return ep;
}

/// Resident-set high-water mark of this process image in KiB (VmHWM).
/// getrusage's ru_maxrss, which obs::capacity reports as max_rss_kb, also
/// counts the resident set the launcher had when it exec'd this binary —
/// more than a whole 256-node episode needs.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return obs::capacity::sample_resource_usage().max_rss_kb;
}

/// Restarts the high-water mark from the current resident set, so each
/// episode reports its own peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Hands the freed heap of the last episode back to the system, so every
/// episode starts from the same resident set.
void release_freed_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// A fixed mmap threshold: glibc otherwise raises it as large blocks are
/// freed, so later episodes would place their big tables on the heap and
/// the peak would depend on how many episodes ran before.
void fix_allocator_thresholds() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
#endif
}

/// The probe's reading on a quiet host of the kind the baseline was
/// measured on. It sets only the scale of the reported timings.
constexpr double kProbeNominalMs = 0.15;

volatile std::uint64_t g_probe_sink = 0;

/// Host-speed probe: a fixed pointer chase through 1 MiB that shares no
/// code or data with the program under test. The benchmark host is shared,
/// and other tenants' load slows every memory access by up to ~40% for
/// seconds to minutes at a time. The probe slows with the host, but no
/// change to the program can move it, so scaling a timing by
/// kProbeNominalMs / host_probe_ms() cancels much of the host's drift and
/// keeps the program's own gains and losses.
///
/// Returns the median over 21 timed chases, each after a pass that pulls
/// the table back into cache, so what the program left there does not
/// matter. The table is built afresh and freed on every call, so the probe
/// never adds to an episode's resident set.
double host_probe_ms() {
  constexpr std::uint32_t kEntries = 1u << 18;  // 1 MiB of uint32
  constexpr int kSteps = 20000;
  constexpr std::size_t kReps = 21;
  // Sattolo's shuffle of the identity, from a fixed seed: one random cycle
  // through every entry, so each load depends on the last and misses.
  std::vector<std::uint32_t> next(kEntries);
  for (std::uint32_t i = 0; i < kEntries; ++i) next[i] = i;
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = kEntries - 1; i > 0; --i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next[i], next[(s >> 33) % i]);
  }
  std::array<double, kReps> ms{};
  std::uint32_t pos = 0;
  std::uint64_t touched = 0;
  for (double& m : ms) {
    for (std::size_t i = 0; i < next.size(); i += 16) touched += next[i];
    const auto start = Clock::now();
    for (int i = 0; i < kSteps; ++i) pos = next[pos];
    m = std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
  }
  g_probe_sink = touched + pos;
  std::nth_element(ms.begin(), ms.begin() + kReps / 2, ms.end());
  return ms[kReps / 2];
}

Episode run_untraced(const Workload& w, std::uint64_t seed) {
  reset_peak_rss();
  Episode ep = run_episode(
      w, seed,
      [](const harness::EnvironmentConfig& config) {
        return std::make_unique<harness::Environment>(config);
      },
      nullptr, nullptr);
  ep.peak_rss_kb = peak_rss_kb();
  release_freed_memory();
  return ep;
}

Episode run_traced(const Workload& w, std::uint64_t seed) {
  obs::capacity::LoopProfiler profiler(
      obs::capacity::LoopProfiler::Config{/*sample_stride=*/1});
  SpanRecorder recorder;
  Episode ep = run_episode(
      w, seed,
      [&recorder](const harness::EnvironmentConfig& config) {
        return std::make_unique<TracedStack>(config, recorder);
      },
      &profiler, &recorder);
  release_freed_memory();
  return ep;
}

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample.
template <class T>
double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<std::size_t>(rank, 1) - 1]);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string format_value(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  }
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_fingerprint(const char* kind, std::uint64_t seed,
                       const Episode& ep) {
  std::printf(
      "fingerprint %s network_seed=%llu events=%llu datagrams=%llu "
      "segments=%llu delivered=%llu setup_s=%.4f window_s=%.4f "
      "send_us_p50=%.1f send_us_p99=%.1f probe_ms=%.4f\n",
      kind, static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(ep.fingerprint.events),
      static_cast<unsigned long long>(ep.fingerprint.datagrams),
      static_cast<unsigned long long>(ep.fingerprint.segments),
      static_cast<unsigned long long>(ep.fingerprint.delivered), ep.setup_s,
      ep.window.wall_s, percentile(ep.send_us, 0.50),
      percentile(ep.send_us, 0.99), ep.probe_ms);
}

/// What a run collected: the first pass over its networks, plus the
/// timings of every untraced episode, re-runs included.
struct RunData {
  struct Timings {
    double delivered_msgs_per_s;
    double send_us_p50;
    double send_us_p99;
    double setup_s;
  };
  std::vector<Episode> networks;  // untraced, one per network
  std::vector<Timings> raw;       // per untraced episode, as measured
  std::vector<Timings> scaled;    // the same, at the probe's nominal speed
  std::vector<double> peak_rss_mb;
  std::vector<double> probe_ms;
  std::size_t send_samples = 0;
  std::vector<Episode> traced;  // one per network (trace 1)

  void add_timings(const Episode& ep) {
    const Timings t{
        ratio(static_cast<double>(ep.window.delivered), ep.window.wall_s),
        percentile(ep.send_us, 0.50), percentile(ep.send_us, 0.99),
        ep.setup_s};
    // Below 1 when the host runs slower than nominal.
    const double f = kProbeNominalMs / ep.probe_ms;
    raw.push_back(t);
    scaled.push_back({t.delivered_msgs_per_s / f, t.send_us_p50 * f,
                      t.send_us_p99 * f, t.setup_s * f});
    peak_rss_mb.push_back(static_cast<double>(ep.peak_rss_kb) / 1024.0);
    probe_ms.push_back(ep.probe_ms);
    send_samples += ep.send_us.size();
  }
};

std::vector<Metric> timing_metrics(const std::vector<RunData::Timings>& t) {
  const auto median_of = [&](double RunData::Timings::*field) {
    std::vector<double> values;
    for (const RunData::Timings& e : t) values.push_back(e.*field);
    return median(std::move(values));
  };
  return {
      {"delivered_msgs_per_s",
       median_of(&RunData::Timings::delivered_msgs_per_s), "1/s"},
      {"send_us_p50", median_of(&RunData::Timings::send_us_p50), "us"},
      {"send_us_p99", median_of(&RunData::Timings::send_us_p99), "us"},
      {"setup_s", median_of(&RunData::Timings::setup_s), "s"},
  };
}

std::vector<Metric> end_to_end_metrics(const RunData& run) {
  // Simulated quantities come from the first pass, so they are
  // deterministic for the seed. A timing is the median, over every
  // untraced episode, of its reading scaled to the probe's nominal host
  // speed.
  double delivered = 0;
  double attempts = 0;
  std::vector<SimDuration> latency;
  for (const Episode& ep : run.networks) {
    delivered += static_cast<double>(ep.window.delivered);
    attempts += static_cast<double>(ep.window.attempts);
    latency.insert(latency.end(), ep.latency.begin(), ep.latency.end());
  }
  std::vector<Metric> out = timing_metrics(run.scaled);
  out.push_back({"peak_rss_mb", median(run.peak_rss_mb), "MB"});
  out.push_back({"delivery_ratio", ratio(delivered, attempts), "ratio"});
  out.push_back(
      {"msg_latency_ms_p50", percentile(latency, 0.50) / 1000.0, "ms"});
  out.push_back(
      {"msg_latency_ms_p99", percentile(latency, 0.99) / 1000.0, "ms"});
  return out;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::vector<Metric> per_layer_metrics(const RunData& run) {
  Window win;
  for (const Episode& ep : run.traced) win.add(ep.window);
  double untraced_wall = 0;
  bool matches_untraced = true;
  for (std::size_t i = 0; i < run.traced.size(); ++i) {
    untraced_wall += run.networks[i].window.wall_s;
    matches_untraced = matches_untraced && run.traced[i].fingerprint ==
                                               run.networks[i].fingerprint;
  }
  const auto totals = [&](Layer layer) -> const SpanRecorder::Totals& {
    return win.spans[static_cast<std::size_t>(layer)];
  };
  const auto calls = [&](Layer layer) {
    return static_cast<double>(totals(layer).calls);
  };
  const double delivered = static_cast<double>(win.delivered);
  std::vector<Metric> out;

  const std::pair<const char*, Layer> crypto_ops[] = {
      {"build_path_onion", Layer::kBuildPathOnion},
      {"peel_path_onion", Layer::kPeelPathOnion},
      {"seal_payload_core", Layer::kSealPayloadCore},
      {"open_payload_core", Layer::kOpenPayloadCore},
      {"wrap_layer", Layer::kWrapLayer},
      {"unwrap_layer", Layer::kUnwrapLayer}};
  for (const auto& [name, layer] : crypto_ops) {
    out.push_back({std::string("crypto.") + name + "_calls", calls(layer),
                   "count"});
    out.push_back({std::string("crypto.") + name + "_ms",
                   ms(totals(layer).inclusive_ns), "ms"});
  }
  out.push_back({"crypto.asym_ms",
                 ms(totals(Layer::kBuildPathOnion).inclusive_ns +
                    totals(Layer::kPeelPathOnion).inclusive_ns +
                    totals(Layer::kSealPayloadCore).inclusive_ns +
                    totals(Layer::kOpenPayloadCore).inclusive_ns),
                 "ms"});
  out.push_back({"crypto.sym_ms",
                 ms(totals(Layer::kWrapLayer).inclusive_ns +
                    totals(Layer::kUnwrapLayer).inclusive_ns),
                 "ms"});
  // Sealed boxes: one per payload core, one per hop of each path onion.
  const double path_length = 3;
  out.push_back({"crypto.seals_per_delivered",
                 ratio(calls(Layer::kSealPayloadCore) +
                           path_length * calls(Layer::kBuildPathOnion),
                       delivered),
                 "ratio"});

  // Event loop. A type's self time is its profiler time minus the spans
  // opened directly under its callbacks. Transport deliveries run only in
  // net.deliver events and session calls only in the benchmark's own events;
  // top-level gossip sends come from gossip rounds. Top-level anonymous
  // sends and crypto outside any relay or session span are path rebuilds
  // that session.timer or router.timeout events start; the profiler cannot
  // tell those two apart from outside, so their spans are reported as
  // sim.timer_spans_ms and stay inside both types' figures.
  const auto top = [&](std::initializer_list<Layer> layers) {
    double ns = 0;
    for (Layer layer : layers) {
      ns += static_cast<double>(totals(layer).top_level_ns);
    }
    return ns;
  };
  const std::pair<const char*, double> loop_types[] = {
      {"gossip.round", top({Layer::kNetSendGossip})},
      {"net.deliver", top({Layer::kMembershipRx, Layer::kRelayFwdRx,
                           Layer::kRelayRevRx, Layer::kOtherRx})},
      {"session.timer", 0.0},
      {"router.timeout", 0.0},
      {"churn.transition", 0.0},
      {"perfbench.send",
       top({Layer::kSessionSend, Layer::kSessionConstruct})}};
  out.push_back({"sim.events", static_cast<double>(win.events), "count"});
  out.push_back({"sim.events_per_s",
                 ratio(static_cast<double>(win.events), untraced_wall),
                 "1/s"});
  for (const auto& [type, children] : loop_types) {
    const auto it = win.loop_ns.find(type);
    const double ns = it == win.loop_ns.end() ? 0.0 : it->second;
    out.push_back({std::string("sim.self_ms.") + type,
                   std::max(0.0, ns - children) / 1e6, "ms"});
  }
  out.push_back(
      {"sim.timer_spans_ms",
       top({Layer::kNetSendAnon, Layer::kBuildPathOnion, Layer::kPeelPathOnion,
            Layer::kSealPayloadCore, Layer::kOpenPayloadCore,
            Layer::kWrapLayer, Layer::kUnwrapLayer}) /
           1e6,
       "ms"});
  out.push_back({"sim.loop_overhead_ms",
                 std::max(0.0, win.wall_s * 1e3 - win.loop_busy_ns / 1e6),
                 "ms"});

  // Transport.
  out.push_back({"net.send_calls",
                 calls(Layer::kNetSendGossip) + calls(Layer::kNetSendAnon),
                 "count"});
  out.push_back({"net.send_ms",
                 ms(totals(Layer::kNetSendGossip).inclusive_ns +
                    totals(Layer::kNetSendAnon).inclusive_ns),
                 "ms"});
  const std::pair<const char*, net::Channel> channels[] = {
      {"gossip", net::Channel::kGossip},
      {"anon_fwd", net::Channel::kAnonForward},
      {"anon_rev", net::Channel::kAnonReverse}};
  for (const auto& [name, channel] : channels) {
    out.push_back({std::string("net.bytes.") + name,
                   static_cast<double>(
                       win.bytes_by_channel[static_cast<std::size_t>(channel)]),
                   "B"});
  }
  for (std::size_t c = 0; c < kDropCauseCount; ++c) {
    out.push_back({std::string("net.drops.") + kDropCauses[c],
                   static_cast<double>(win.drops[c]), "count"});
  }
  out.push_back({"net.datagrams_per_delivered",
                 ratio(static_cast<double>(win.datagrams), delivered),
                 "ratio"});
  out.push_back({"fault.dropped_loss",
                 static_cast<double>(win.fault_dropped_loss), "count"});
  out.push_back({"fault.dropped_crash",
                 static_cast<double>(win.fault_dropped_crash), "count"});

  // Membership, relays and sessions.
  out.push_back({"membership.rx_calls", calls(Layer::kMembershipRx),
                 "count"});
  out.push_back({"membership.rx_self_ms",
                 ms(totals(Layer::kMembershipRx).self_ns), "ms"});
  const std::pair<const char*, Layer> anon_spans[] = {
      {"relay_fwd", Layer::kRelayFwdRx},
      {"relay_rev", Layer::kRelayRevRx},
      {"session_send", Layer::kSessionSend}};
  for (const auto& [name, layer] : anon_spans) {
    out.push_back({std::string("anon.") + name + "_calls", calls(layer),
                   "count"});
    out.push_back({std::string("anon.") + name + "_self_ms",
                   ms(totals(layer).self_ns), "ms"});
  }
  const std::pair<const char*, std::uint64_t> anon_counts[] = {
      {"segments_sent", win.segments_sent},
      {"acks_matched", win.acks_matched},
      {"segments_retransmitted", win.segments_retransmitted},
      {"segments_expired", win.segments_expired},
      {"path_rebuilds", win.path_rebuilds},
      {"construct_attempts", win.construct_attempts},
      {"peel_failures", win.peel_failures}};
  for (const auto& [name, count] : anon_counts) {
    out.push_back({std::string("anon.") + name, static_cast<double>(count),
                   "count"});
  }
  out.push_back({"anon.ack_ratio",
                 ratio(static_cast<double>(win.acks_matched),
                       static_cast<double>(win.segments_sent)),
                 "ratio"});

  const std::pair<const char*, workload::TrafficClass> classes[] = {
      {"bulk", workload::TrafficClass::kBulk},
      {"interactive", workload::TrafficClass::kInteractive},
      {"streaming", workload::TrafficClass::kStreaming}};
  for (const auto& [name, cls] : classes) {
    out.push_back({std::string("workload.arrivals.") + name,
                   static_cast<double>(
                       win.arrivals[static_cast<std::size_t>(cls)]),
                   "count"});
  }

  out.push_back({"trace.matches_untraced", matches_untraced ? 1.0 : 0.0,
                 "bool"});
  out.push_back({"trace.overhead_pct",
                 (ratio(win.wall_s, untraced_wall) - 1.0) * 100.0, "%"});
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + obs::json_escape(metrics[i].name) + "\": {\"value\": " +
           format_value(metrics[i].value) + ", \"unit\": \"" +
           obs::json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

int run(int argc, char** argv) {
  FlagSet flags;
  std::string& workload_name = flags.add_string(
      "workload", "", "real-steady | real-churn | fast-n1024");
  std::int64_t& seed_flag =
      flags.add_int("seed", -1, "workload seed (required)");
  double& seconds = flags.add_double("seconds", 30, "wall seconds to measure");
  std::int64_t& trace = flags.add_int("trace", 0, "1 = traced per-layer run");
  std::string& json_path = obs::add_json_flag(flags);
  flags.parse(argc, argv);

  const Workload* w = find_workload(workload_name);
  if (w == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown --workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }
  if (seed_flag < 0) {
    std::fprintf(stderr, "e2e_bench: --seed <n> is required\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(seed_flag);

  fix_allocator_thresholds();
  double probe_before = host_probe_ms();
  const auto run_start = Clock::now();
  RunData run;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto tally = [&](const Episode& ep) {
    correct = correct && ep.correct();
    attempted += ep.window.attempts;
    failed += ep.failed();
  };
  for (std::size_t e = 0;
       e < w->networks || (trace == 0 && seconds_since(run_start) < seconds);
       ++e) {
    const std::size_t i = e % w->networks;
    const std::uint64_t net_seed = network_seed(seed, i);
    Episode ep = run_untraced(*w, net_seed);
    const double probe_after = host_probe_ms();
    ep.probe_ms = 0.5 * (probe_before + probe_after);
    probe_before = probe_after;
    print_fingerprint("untraced", net_seed, ep);
    tally(ep);
    run.add_timings(ep);
    if (e < w->networks) {
      run.networks.push_back(std::move(ep));
    } else {
      correct = correct && ep.fingerprint == run.networks[i].fingerprint;
    }
    if (trace != 0) {
      run.traced.push_back(run_traced(*w, net_seed));
      print_fingerprint("traced", net_seed, run.traced.back());
      tally(run.traced.back());
      correct = correct &&
                run.traced.back().fingerprint == run.networks[i].fingerprint;
    }
  }

  Episode sum;  // ledger over the first pass
  std::vector<SimDuration> latency;
  for (const Episode& ep : run.networks) {
    sum.window.add(ep.window);
    sum.accepted += ep.accepted;
    sum.refused += ep.refused;
    sum.wrong += ep.wrong;
    sum.unknown += ep.unknown;
    sum.duplicates += ep.duplicates;
    sum.construct_failures += ep.construct_failures;
    sum.lost_explained += ep.lost_explained;
    sum.lost_unexplained += ep.lost_unexplained;
    sum.ledger_closed = sum.ledger_closed && ep.ledger_closed;
    latency.insert(latency.end(), ep.latency.begin(), ep.latency.end());
  }
  std::printf(
      "ledger networks=%zu attempts=%llu accepted=%llu refused=%llu "
      "delivered=%llu wrong=%llu unknown=%llu duplicates=%llu "
      "construct_failures=%llu ledger_closed=%d lost_explained=%llu "
      "lost_unexplained=%llu send_samples=%zu latency_samples=%zu\n",
      run.networks.size(),
      static_cast<unsigned long long>(sum.window.attempts),
      static_cast<unsigned long long>(sum.accepted),
      static_cast<unsigned long long>(sum.refused),
      static_cast<unsigned long long>(sum.window.delivered),
      static_cast<unsigned long long>(sum.wrong),
      static_cast<unsigned long long>(sum.unknown),
      static_cast<unsigned long long>(sum.duplicates),
      static_cast<unsigned long long>(sum.construct_failures),
      sum.ledger_closed ? 1 : 0,
      static_cast<unsigned long long>(sum.lost_explained),
      static_cast<unsigned long long>(sum.lost_unexplained),
      run.send_samples, latency.size());
  std::printf("latency_ms");
  for (double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 1.0}) {
    std::printf(" p%g=%.1f", q * 100, percentile(latency, q) / 1000.0);
  }
  std::printf("\n");

  const std::vector<Metric> metrics =
      trace != 0 ? per_layer_metrics(run) : end_to_end_metrics(run);

  obs::BenchReport report("perfbench_e2e");
  report.add_text("workload", w->name);
  report.add("seed", seed);
  report.add("networks", static_cast<std::uint64_t>(run.networks.size()));
  report.add("untraced_episodes", static_cast<std::uint64_t>(run.raw.size()));
  report.add("send_samples", static_cast<std::uint64_t>(run.send_samples));
  report.add("latency_samples", static_cast<std::uint64_t>(latency.size()));
  for (const Metric& m : metrics) report.add(m.name, m.value);
  if (trace == 0) {
    report.add("probe_ms_median", median(run.probe_ms));
    report.add("probe_ms_nominal", kProbeNominalMs);
    for (const Metric& m : timing_metrics(run.raw)) {
      report.add("unscaled." + m.name, m.value);
    }
  }
  std::printf("report %s\n", report.document().c_str());
  report.write_if_requested(json_path);

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}

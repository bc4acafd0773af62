// Overload resilience: the deterministic workload engine, bounded relay
// queues with priority-aware shedding, reverse-path backpressure, and the
// session-side send bound (DESIGN §13). Both overload policies run through
// the chaos harness under a flash-crowd workload, and the invariant floor —
// control/ack traffic is NEVER shed, accounting stays closed — is asserted
// in every run.
#include <gtest/gtest.h>

#include <set>

#include "anon/buffer_pool.hpp"
#include "harness/chaos_experiment.hpp"
#include "workload/workload.hpp"

namespace p2panon::harness {
namespace {

// ---------------------------------------------------------------------------
// Workload engine: deterministic, shaped, correctly folded flash window.

workload::WorkloadConfig mixed_workload() {
  workload::WorkloadConfig config;
  config.enabled = true;
  config.mean_interarrival = kSecond;
  return config;
}

TEST(WorkloadEngineTest, SameSeedEmitsSameArrivalSequence) {
  const SimTime start = 5 * kMinute;
  const SimDuration span = 10 * kMinute;
  workload::WorkloadEngine a(mixed_workload(), start, span, Rng(42));
  workload::WorkloadEngine b(mixed_workload(), start, span, Rng(42));

  SimTime now_a = start, now_b = start;
  for (int i = 0; i < 500; ++i) {
    const auto arr_a = a.next(now_a);
    const auto arr_b = b.next(now_b);
    ASSERT_EQ(arr_a.wait, arr_b.wait) << "draw " << i;
    ASSERT_EQ(arr_a.cls, arr_b.cls) << "draw " << i;
    ASSERT_EQ(arr_a.size, arr_b.size) << "draw " << i;
    now_a += arr_a.wait;
    now_b += arr_b.wait;
  }
  // A different stream diverges immediately-ish.
  workload::WorkloadEngine c(mixed_workload(), start, span, Rng(43));
  SimTime now_c = start;
  bool diverged = false;
  for (int i = 0; i < 16 && !diverged; ++i) {
    const auto arr = c.next(now_c);
    now_c += arr.wait;
    workload::WorkloadEngine probe(mixed_workload(), start, span, Rng(42));
    diverged = probe.next(start).wait != arr.wait || i > 0;
  }
  EXPECT_TRUE(diverged);
}

TEST(WorkloadEngineTest, ClassMixAndSizesFollowTheConfig) {
  workload::WorkloadConfig config = mixed_workload();
  config.bulk_weight = 0.0;
  config.interactive_weight = 1.0;
  config.streaming_weight = 0.0;
  workload::WorkloadEngine engine(config, 0, 10 * kMinute, Rng(7));
  SimTime now = 0;
  for (int i = 0; i < 200; ++i) {
    const auto arrival = engine.next(now);
    ASSERT_EQ(arrival.cls, workload::TrafficClass::kInteractive);
    ASSERT_EQ(arrival.size, workload::kInteractiveSize);
    ASSERT_GT(arrival.wait, 0);
    now += arrival.wait;
  }

  // With all three classes weighted, all three appear with their sizes.
  workload::WorkloadEngine mixed(mixed_workload(), 0, 10 * kMinute, Rng(7));
  std::set<std::size_t> sizes;
  now = 0;
  for (int i = 0; i < 500; ++i) {
    const auto arrival = mixed.next(now);
    sizes.insert(arrival.size);
    now += arrival.wait;
  }
  EXPECT_EQ(sizes.size(), 3u);
}

// The flash window is defined exactly once — flash_crowd_window() — and is
// shared by the workload engine and the kFlashCrowdCrash scenario planner,
// so the load spike and the scripted crash wave land on the same interval.
TEST(WorkloadEngineTest, FlashWindowIsTheSharedFoldedDefinition) {
  const SimTime start = 5 * kMinute;
  const SimDuration span = 8 * kMinute;
  const auto window = workload::flash_crowd_window(start, span);
  EXPECT_EQ(window.begin, start + span / 4);
  EXPECT_EQ(window.end, start + span / 2);

  workload::WorkloadConfig config = mixed_workload();
  config.shape = workload::LoadShape::kFlashCrowd;
  workload::WorkloadEngine engine(config, start, span, Rng(1));
  EXPECT_EQ(engine.flash_window().begin, window.begin);
  EXPECT_EQ(engine.flash_window().end, window.end);
  EXPECT_DOUBLE_EQ(engine.rate_multiplier(window.begin - 1), 1.0);
  EXPECT_DOUBLE_EQ(engine.rate_multiplier(window.begin),
                   workload::kFlashMultiplier);
  EXPECT_DOUBLE_EQ(engine.rate_multiplier(window.end - 1),
                   workload::kFlashMultiplier);
  EXPECT_DOUBLE_EQ(engine.rate_multiplier(window.end), 1.0);
}

TEST(WorkloadEngineTest, DiurnalMultiplierSwingsAroundTheMean) {
  workload::WorkloadConfig config = mixed_workload();
  config.shape = workload::LoadShape::kDiurnal;
  const SimTime start = kMinute;
  const SimDuration period = workload::kDiurnalPeriod;
  workload::WorkloadEngine engine(config, start, 20 * kMinute, Rng(1));
  // 1 -/+ the 0.6 amplitude at the quarter and three-quarter period.
  EXPECT_NEAR(engine.rate_multiplier(start), 1.0, 1e-9);
  EXPECT_NEAR(engine.rate_multiplier(start + period / 4), 1.6, 1e-9);
  EXPECT_NEAR(engine.rate_multiplier(start + 3 * period / 4), 0.4, 1e-9);
}

// ---------------------------------------------------------------------------
// Buffer pool: burst regrowth is visible (high-water) and boundable (cap).

TEST(BufferPoolTest, HighWaterTracksBurstRegrowth) {
  anon::BufferPool pool;
  { anon::PooledBytes lease(pool, 1024); }
  EXPECT_EQ(pool.high_water(), anon::BufferPool::kDefaultCapacity);
  { anon::PooledBytes lease(pool, 3 * anon::BufferPool::kDefaultCapacity); }
  EXPECT_GE(pool.high_water(), 3 * anon::BufferPool::kDefaultCapacity);
  // Uncapped: the oversized buffer stays warm on the freelist.
  EXPECT_GE(pool.memory_bytes(), 3 * anon::BufferPool::kDefaultCapacity);
}

TEST(BufferPoolTest, MaxCapacityFreesOversizedBuffersOnRelease) {
  anon::BufferPool pool(anon::BufferPool::kDefaultCapacity,
                        /*max_capacity=*/anon::BufferPool::kDefaultCapacity);
  { anon::PooledBytes lease(pool, 1024); }
  EXPECT_EQ(pool.idle(), 1u);  // normal buffers still pool

  // A burst can grow past the cap (correctness over the cap)...
  const std::size_t burst = 4 * anon::BufferPool::kDefaultCapacity;
  { anon::PooledBytes lease(pool, burst); }
  // ...but the oversized buffer is freed on release, not kept warm.
  EXPECT_GE(pool.high_water(), burst);
  EXPECT_LE(pool.memory_bytes(),
            pool.idle() * (anon::BufferPool::kDefaultCapacity +
                           sizeof(Bytes)) +
                64 * sizeof(Bytes));
}

// ---------------------------------------------------------------------------
// End-to-end overload behavior through the chaos harness.

// A small flash-crowd cell: 64 nodes under mild link drizzle, Poisson
// mixed-class arrivals at 4 msg/s spiking 4x, relays bounded at 64 segments
// draining 10/s with priority-blind tail drop. path_fail_threshold is
// raised so retransmission absorbs the background loss and offered load
// stays the only stressor. Seed matters: under drizzle an unlucky seed
// (e.g. 3) burns minutes of sim time in 5 s construct timeouts before the
// pump starts, starving the workload.
ChaosConfig overload_chaos(std::uint64_t seed) {
  ChaosConfig config;
  config.environment.num_nodes = 64;
  config.environment.seed = seed;
  config.scenario = ChaosScenario::kMildLossDrizzle;
  config.warmup = 5 * kMinute;
  config.measure = 6 * kMinute;
  config.send_interval = 10 * kSecond;
  config.session.adaptive_timeouts = true;
  config.session.max_segment_retries = 6;
  config.session.path_fail_threshold = 40;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  config.workload.enabled = true;
  config.workload.shape = workload::LoadShape::kFlashCrowd;
  config.workload.mean_interarrival = 250 * kMillisecond;
  config.environment.router.overload = anon::OverloadPolicy::kTailDrop;
  return config;
}

// The overload sweep's shed arm on the same cell: graded shedding,
// backpressure frames and the session send bound.
ChaosConfig shed_chaos(std::uint64_t seed) {
  ChaosConfig config = overload_chaos(seed);
  config.environment.router.overload = anon::OverloadPolicy::kShed;
  return config;
}

void expect_accounting_closed(const ChaosResult& result) {
  ASSERT_TRUE(result.constructed);
  EXPECT_EQ(result.messages_unaccounted, 0u);
  EXPECT_TRUE(result.ledger_closed())
      << "sent=" << result.segments_sent << " matched=" << result.acks_matched
      << " expired=" << result.segments_expired
      << " retransmitted=" << result.segments_retransmitted
      << " pending=" << result.leaked_pending_segments;
  EXPECT_EQ(result.total_leaks(), 0u);
}

TEST(OverloadTest, ShedPriorityOrderNeverTouchesControl) {
  const auto result = run_chaos_experiment(shed_chaos(1));
  expect_accounting_closed(result);

  const auto total_sheds = result.relay_sheds_bulk +
                           result.relay_sheds_streaming +
                           result.relay_sheds_interactive;
  // The flash crowd saturated relays and the policy shed in priority
  // order: interactive is the most protected payload class...
  EXPECT_GT(total_sheds, 0u);
  EXPECT_LE(result.relay_sheds_interactive, result.relay_sheds_streaming);
  // ...and control/ack segments are NEVER shed, at any occupancy.
  EXPECT_EQ(result.relay_sheds_control, 0u);
  // All three classes were offered and interactive fared best.
  for (const auto& cls : result.per_class) EXPECT_GT(cls.attempts, 0u);
  const auto& bulk =
      result.per_class[static_cast<int>(workload::TrafficClass::kBulk)];
  const auto& interactive = result.per_class[static_cast<int>(
      workload::TrafficClass::kInteractive)];
  EXPECT_GE(interactive.goodput(), bulk.goodput());
}

TEST(OverloadTest, TailDropArmStillNeverShedsControl) {
  ChaosConfig config = overload_chaos(1);
  // kTailDrop: a saturated relay tail-drops every payload class
  // indiscriminately — the collapse arm. The control-plane immunity is not
  // part of the policy; it is the invariant floor.
  const auto result = run_chaos_experiment(config);
  expect_accounting_closed(result);
  EXPECT_GT(result.relay_sheds_bulk + result.relay_sheds_streaming +
                result.relay_sheds_interactive,
            0u);
  EXPECT_EQ(result.relay_sheds_control, 0u);
}

TEST(OverloadTest, BackpressurePropagatesAndStallsStaySuspicionNeutral) {
  const auto result = run_chaos_experiment(shed_chaos(1));
  expect_accounting_closed(result);

  // Sheds were signalled upstream, the initiator heard them, and timeouts
  // that backpressure explains were NOT filed as path suspicion — an
  // overloaded-but-honest relay must not be treated as byzantine.
  EXPECT_GT(result.backpressure_signals, 0u);
  EXPECT_GT(result.session_backpressure_rx, 0u);
  EXPECT_GT(result.session_stalls_suppressed, 0u);
  // Exact outcome, including the session-side overload tallies that
  // fingerprint() leaves out.
  EXPECT_EQ(result.fingerprint(),
            "1:15:1465:1118:952:166:0:5857:1914:183:3760:3943:0:0:0:0:0:0:0:"
            "0:1660:0:0:0:0:50:0:0:0:39:81750:952:0:0:0:0:0:0");
  EXPECT_EQ(result.session_segments_deferred, 139u);
  EXPECT_EQ(result.session_stalls_suppressed, 2717u);
}

TEST(OverloadTest, SessionSendBoundShedsAtTheSource) {
  const auto result = run_chaos_experiment(shed_chaos(1));
  expect_accounting_closed(result);

  // The bounded send queue refused messages at the source instead of
  // letting the ledger grow without bound...
  EXPECT_GT(result.session_messages_shed, 0u);
  // ...and refusals are accounted (attempts - accepted), not vanished.
  std::uint64_t attempts = 0, accepted = 0;
  for (const auto& cls : result.per_class) {
    attempts += cls.attempts;
    accepted += cls.accepted;
  }
  EXPECT_EQ(attempts - accepted, result.session_messages_shed);
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(result.session_messages_shed, 347u);
}

// Determinism: the whole overload stack — workload engine, shedding,
// backpressure, send bound — is driven by forked RNG streams, so the same
// seed reproduces the same run, counters and all.
TEST(OverloadTest, OverloadRunsAreDeterministic) {
  const ChaosConfig config = shed_chaos(1);
  const auto a = run_chaos_experiment(config);
  const auto b = run_chaos_experiment(config);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.relay_sheds_bulk, b.relay_sheds_bulk);
  EXPECT_EQ(a.relay_sheds_streaming, b.relay_sheds_streaming);
  EXPECT_EQ(a.relay_sheds_interactive, b.relay_sheds_interactive);
  EXPECT_EQ(a.backpressure_signals, b.backpressure_signals);
  EXPECT_EQ(a.session_backpressure_rx, b.session_backpressure_rx);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.per_class[i].attempts, b.per_class[i].attempts);
    EXPECT_EQ(a.per_class[i].delivered, b.per_class[i].delivered);
  }
}

}  // namespace
}  // namespace p2panon::harness

// Integration tests: the assembled environment and the experiment drivers
// at reduced scale, including determinism across identical seeds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "harness/durability_experiment.hpp"
#include "harness/environment.hpp"
#include "harness/parallel.hpp"
#include "harness/path_setup_experiment.hpp"

namespace p2panon::harness {
namespace {

EnvironmentConfig small_environment(std::uint64_t seed) {
  EnvironmentConfig config;
  config.num_nodes = 96;
  config.seed = seed;
  return config;
}

TEST(EnvironmentTest, AssemblesAndRuns) {
  Environment env(small_environment(5));
  env.start();
  env.simulator().run_until(5 * kMinute);
  // Symmetric churn -> availability near one half.
  EXPECT_NEAR(env.churn().measured_availability(env.simulator().now()), 0.5,
              0.15);
  // Gossip flowed and beliefs track ground truth.
  EXPECT_GT(env.membership().messages_sent(), 100u);
  EXPECT_GT(env.membership().belief_accuracy(), 0.9);
  // The PKI covers every node.
  EXPECT_EQ(env.directory().size(), 96u);
}

TEST(EnvironmentTest, RandomUpNodeRespectsLivenessAndExclusion) {
  Environment env(small_environment(6));
  env.start();
  env.simulator().run_until(1 * kMinute);
  for (int i = 0; i < 100; ++i) {
    const NodeId node = env.random_up_node(3);
    ASSERT_NE(node, kInvalidNode);
    EXPECT_NE(node, 3u);
    EXPECT_TRUE(env.churn().is_up(node));
  }
}

TEST(PathSetupExperimentTest, BiasedBeatsRandomAndRedundancyHelps) {
  PathSetupConfig config;
  config.environment = small_environment(7);
  config.warmup = 10 * kMinute;
  config.measure = 20 * kMinute;
  config.event_interarrival_seconds = 120.0;
  config.specs = {
      anon::ProtocolSpec::curmix(anon::MixChoice::kRandom),
      anon::ProtocolSpec::simrep(2, anon::MixChoice::kRandom),
      anon::ProtocolSpec::curmix(anon::MixChoice::kBiased),
  };
  const auto result = run_path_setup_experiment(config);
  ASSERT_GT(result.events, 100u);

  const double curmix_random = result.success[0].rate();
  const double simrep_random = result.success[1].rate();
  const double curmix_biased = result.success[2].rate();
  // Redundancy roughly doubles the random-mix rate (1 - (1-p)^2 ~ 2p).
  EXPECT_GT(simrep_random, 1.4 * curmix_random);
  // Biased mix choice dominates everything.
  EXPECT_GT(curmix_biased, 0.8);
  EXPECT_GT(curmix_biased, 3 * curmix_random);
}

TEST(PathSetupExperimentTest, RandomMixTracksBernoulliModel) {
  // Cross-validation of the two levels of the reproduction: in the full
  // churn simulation, a random-mix single-path construction should
  // succeed with probability ~ availability^L (the Bernoulli path model
  // Figures 2-4 are built on), modulo the small loss from relays dying
  // during the construction round trips.
  PathSetupConfig config;
  config.environment = small_environment(11);
  config.warmup = 15 * kMinute;
  config.measure = 45 * kMinute;
  config.event_interarrival_seconds = 60.0;
  config.specs = {anon::ProtocolSpec::curmix(anon::MixChoice::kRandom)};
  const auto result = run_path_setup_experiment(config);
  ASSERT_GT(result.events, 500u);
  const double predicted = result.availability * result.availability *
                           result.availability;
  EXPECT_NEAR(result.success[0].rate(), predicted, 0.04)
      << "availability " << result.availability;
}

TEST(DurabilityExperimentTest, ProducesSaneMetrics) {
  DurabilityConfig config;
  config.environment = small_environment(8);
  config.warmup = 10 * kMinute;
  config.measure = 20 * kMinute;
  config.spec = anon::ProtocolSpec::simera(4, 4, anon::MixChoice::kBiased);
  const auto result = run_durability_experiment(config);
  ASSERT_TRUE(result.constructed);
  EXPECT_GE(result.construct_attempts, 1u);
  EXPECT_GT(result.durability_seconds, 0.0);
  EXPECT_LE(result.durability_seconds, to_seconds(config.measure) + 1.0);
  EXPECT_GT(result.messages_sent, 0u);
  EXPECT_GT(result.messages_delivered, 0u);
  EXPECT_LE(result.messages_delivered, result.messages_sent);
  // Latency of a 4-hop path on a ~152 ms RTT matrix: tens to hundreds ms.
  EXPECT_GT(result.latency_ms.mean(), 10.0);
  EXPECT_LT(result.latency_ms.mean(), 2000.0);
  // Bandwidth per delivery: at least |M| * (L + 1), at most r * that * 2.
  EXPECT_GT(result.bandwidth_bytes.mean(), 4.0 * 1024.0);
  EXPECT_LT(result.bandwidth_bytes.mean(), 40.0 * 1024.0);
}

TEST(DurabilityExperimentTest, DeterministicForSameSeed) {
  DurabilityConfig config;
  config.environment = small_environment(9);
  config.warmup = 5 * kMinute;
  config.measure = 10 * kMinute;
  config.spec = anon::ProtocolSpec::simrep(2, anon::MixChoice::kBiased);
  const auto a = run_durability_experiment(config);
  const auto b = run_durability_experiment(config);
  EXPECT_EQ(a.constructed, b.constructed);
  EXPECT_EQ(a.construct_attempts, b.construct_attempts);
  EXPECT_DOUBLE_EQ(a.durability_seconds, b.durability_seconds);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_DOUBLE_EQ(a.latency_ms.mean(), b.latency_ms.mean());
}

TEST(DurabilityExperimentTest, BiasedNeedsFarFewerAttempts) {
  // The robust headline at test scale: biased construction succeeds first
  // try; random needs many whole-set retries (half the candidates are
  // dead). Durability means under Pareto churn are too heavy-tailed to
  // compare over a handful of seeds — the residual-lifetime mechanism is
  // asserted directly in BiasedRelaysHaveLongerResidualLifetimes.
  DurabilityConfig config;
  config.environment = small_environment(10);
  config.warmup = 30 * kMinute;
  config.measure = 30 * kMinute;
  config.environment.session_distribution = "pareto:median=600";
  config.spec = anon::ProtocolSpec::curmix(anon::MixChoice::kRandom);
  const auto random_avg = run_durability_average(config, 6, 2);
  config.spec = anon::ProtocolSpec::curmix(anon::MixChoice::kBiased);
  const auto biased_avg = run_durability_average(config, 6, 2);
  EXPECT_LT(biased_avg.construct_attempts, 1.5);
  EXPECT_GT(random_avg.construct_attempts,
            3.0 * biased_avg.construct_attempts);
  // Guard against a selection regression: biased must stay in the same
  // ballpark even on an unlucky seed set.
  EXPECT_GT(biased_avg.durability_seconds,
            0.5 * random_avg.durability_seconds);
}

TEST(DurabilityExperimentTest, BiasedRelaysHaveLongerResidualLifetimes) {
  // The paper's §4.9 mechanism, asserted directly on ground truth: the
  // minimum residual lifetime of the top-q relay triple beats that of a
  // uniformly chosen alive triple, averaged over enough trials to beat the
  // Pareto tail noise.
  double top_q_total = 0.0;
  double random_total = 0.0;
  const int trials = 24;
  for (int trial = 0; trial < trials; ++trial) {
    EnvironmentConfig env_config = small_environment(100 + trial);
    env_config.session_distribution = "pareto:median=600";
    Environment env(env_config);
    env.start();
    env.simulator().run_until(30 * kMinute);
    const SimTime t0 = env.simulator().now();

    const auto top = env.membership().cache(0).top_by_predictor(3, t0, {0, 1});
    ASSERT_EQ(top.size(), 3u);
    std::vector<NodeId> alive;
    for (NodeId node = 2; node < 96; ++node) {
      if (env.churn().is_up(node)) alive.push_back(node);
    }
    Rng pick_rng(static_cast<std::uint64_t>(trial) * 17 + 5);
    std::vector<NodeId> random_pick;
    for (int i = 0; i < 3; ++i) {
      random_pick.push_back(alive[pick_rng.next_below(alive.size())]);
    }

    std::vector<SimTime> first_leave(96, kNeverTime);
    env.churn().subscribe([&](NodeId node, bool up, SimTime when) {
      if (!up && first_leave[node] == kNeverTime) first_leave[node] = when;
    });
    env.simulator().run_until(t0 + 2 * kHour);
    auto min_residual = [&](const std::vector<NodeId>& nodes) {
      double min_r = to_seconds(2 * kHour);
      for (NodeId node : nodes) {
        if (first_leave[node] != kNeverTime) {
          min_r = std::min(min_r, to_seconds(first_leave[node] - t0));
        }
      }
      return min_r;
    };
    top_q_total += min_residual(top);
    random_total += min_residual(random_pick);
  }
  EXPECT_GT(top_q_total, 1.2 * random_total)
      << "top-q avg " << top_q_total / trials << "s vs random-alive avg "
      << random_total / trials << "s";
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
  // Inline path.
  std::vector<int> inline_hits(10, 0);
  parallel_for(inline_hits.size(), 1, [&](std::size_t i) { inline_hits[i]++; });
  for (int h : inline_hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, PropagatesWorkerExceptions) {
  EXPECT_THROW(
      parallel_for(8, 4,
                   [](std::size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(RunCellsTest, GroupsResultsByCellInSeedOrder) {
  // Runs finish out of index order (each sleeps a different while); the
  // results still come back as results[cell][seed], whatever the pool size.
  const auto grid = [](std::size_t threads) {
    return run_cells(5, 4, threads, [](std::size_t cell, std::size_t run) {
      std::this_thread::sleep_for(
          std::chrono::microseconds((cell * 7 + run * 3) % 5 * 200));
      return std::make_pair(cell, run);
    });
  };
  const auto serial = grid(1);
  ASSERT_EQ(serial.size(), 5u);
  for (std::size_t cell = 0; cell < serial.size(); ++cell) {
    ASSERT_EQ(serial[cell].size(), 4u);
    for (std::size_t run = 0; run < serial[cell].size(); ++run) {
      EXPECT_EQ(serial[cell][run], std::make_pair(cell, run));
    }
  }
  EXPECT_EQ(grid(3), serial);
  EXPECT_EQ(grid(8), serial);
}

TEST(RunCellsTest, ExceptionReachesCallerAfterWorkersJoin) {
  std::atomic<int> in_flight{0};
  bool caught = false;
  try {
    run_cells(4, 3, 3, [&](std::size_t cell, std::size_t run) {
      ++in_flight;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      --in_flight;
      if (cell == 1 && run == 2) throw std::runtime_error("boom");
      return cell + run;
    });
  } catch (const std::runtime_error& error) {
    caught = true;
    EXPECT_STREQ(error.what(), "boom");
    EXPECT_EQ(in_flight.load(), 0);  // no run still going
  }
  EXPECT_TRUE(caught);
}

TEST(RunCellsTest, EmptyGridsReturnEmptyResults) {
  int calls = 0;
  const auto count_call = [&](std::size_t, std::size_t) { return ++calls; };
  EXPECT_TRUE(run_cells(0, 3, 4, count_call).empty());
  const auto seedless = run_cells(3, 0, 4, count_call);
  ASSERT_EQ(seedless.size(), 3u);
  for (const auto& cell : seedless) EXPECT_TRUE(cell.empty());
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace p2panon::harness

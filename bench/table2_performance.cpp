// Table 2: performance comparison among CurMix, SimRep(r = 2) and
// SimEra(k = 4, r = 4) — durability, construction attempts, latency and
// bandwidth, each reported as [random, biased].
//
// §6.2 methodology: pinned initiator and responder, Pareto churn (median
// 1 h), 1 h warm-up, a 1 KB message every 10 s for an hour, durability
// capped at 3600 s, averaged over seeds (paper: 10 runs).
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "durability_table.hpp"
#include "harness/durability_experiment.hpp"
#include "harness/parallel.hpp"
#include "obs/export.hpp"

using namespace p2panon;
using namespace p2panon::harness;

int main(int argc, char** argv) {
  FlagSet flags;
  auto& nodes = flags.add_int("nodes", 1024, "network size");
  auto& seed = flags.add_int("seed", 1, "base RNG seed");
  auto& seeds = flags.add_int("seeds", 10, "runs to average");
  auto& threads = flags.add_int("threads", 0, "worker threads (0 = auto)");
  auto& json_path = obs::add_json_flag(flags);
  auto& health = flags.add_bool(
      "health", false,
      "after the sweep, run one diagnostic SimEra biased run with the "
      "rolling health scoreboard (30 s windows) and print it");
  flags.parse(argc, argv);
  const std::size_t runs = scaled_runs(seeds);

  const auto mix = anon::MixChoice::kRandom;  // each column sets its own
  const std::string churn = "pareto:median=3600";
  const std::vector<bench::DurabilityRow> rows = {
      {"CurMix", anon::ProtocolSpec::curmix(mix), churn},
      {"SimRep(r=2)", anon::ProtocolSpec::simrep(2, mix), churn},
      {"SimEra(k=4,r=4)", anon::ProtocolSpec::simera(4, 4, mix), churn},
  };

  std::printf("# Table 2: performance comparison, %zu seeds, %lld nodes "
              "(cells are [random, biased])\n", runs,
              static_cast<long long>(nodes));
  const bench::DurabilityTable result = bench::run_durability_table(
      "Protocol", rows, "", static_cast<std::size_t>(nodes),
      static_cast<std::uint64_t>(seed), runs, worker_threads(threads));

  obs::BenchReport report("table2_performance");
  report.add("runs", static_cast<std::uint64_t>(runs));
  report.add("nodes", static_cast<std::uint64_t>(nodes));
  for (std::size_t row = 0; row < rows.size(); ++row) {
    for (std::size_t m = 0; m < 2; ++m) {
      const DurabilityAverages& avg = result.averages[row][m];
      const std::string prefix =
          rows[row].label + (m == 0 ? ".random." : ".biased.");
      report.add(prefix + "durability_s", avg.durability_seconds);
      report.add(prefix + "construct_attempts", avg.construct_attempts);
      report.add(prefix + "latency_ms", avg.latency_ms);
      report.add(prefix + "bandwidth_kb", avg.bandwidth_kb);
    }
  }
  std::printf(
      "Paper reference:\n"
      "  CurMix           [700, 1153]   [8.4, 1]  [374, 266]  [4, 4]\n"
      "  SimRep(r=2)      [1140, 1167]  [2.8, 1]  [270, 257]  [6.2, 6.8]\n"
      "  SimEra(k=4,r=4)  [1377, 2472]  [2.4, 1]  [406, 231]  [8.8, 10.4]\n"
      "Shape checks: redundancy and biased choice both raise durability;\n"
      "biased needs ~1 attempt; bandwidth ordering CurMix < SimRep < "
      "SimEra.\n");
  if (health) {
    // One diagnostic run outside the averaged cells: same setup as the
    // SimEra biased cell, base seed, scoreboard on.
    DurabilityConfig config;
    config.environment.num_nodes = static_cast<std::size_t>(nodes);
    config.environment.seed = static_cast<std::uint64_t>(seed);
    config.spec = anon::ProtocolSpec::simera(4, 4, anon::MixChoice::kBiased);
    config.environment.sampled = true;
    const DurabilityResult diag = run_durability_experiment(config);
    std::printf("# Health scoreboard, SimEra(k=4,r=4)/biased, seed %lld "
                "(30 s windows)\n%s\n",
                static_cast<long long>(seed), diag.health_table.c_str());
    report.add("health_windows",
               static_cast<std::uint64_t>(diag.health.windows));
    report.add("health_churn_storm_windows",
               static_cast<std::uint64_t>(diag.health.churn_storm_windows));
    report.add("health_stalled_path_windows",
               static_cast<std::uint64_t>(diag.health.stalled_path_windows));
    report.add("health_max_transitions_per_window",
               diag.health.max_transitions_per_window);
  }
  report.add_section("table", result.table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}

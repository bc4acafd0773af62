// The [random, biased] durability table shared by Tables 2, 3 and 4.
//
// Each row is one protocol under one node-lifetime distribution, run with
// random and with biased mix choice (§4.9) and averaged over seeds; every
// (row, mix choice, seed) run shares one run_cells pool. Cells are the
// paper's [random, biased] pairs of mean durability, construction
// attempts, latency and bandwidth. Below the table each row gets a
// percentile bootstrap CI over its per-seed durabilities: Pareto residual
// lifetimes make the mean heavy-tailed.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "anon/protocols.hpp"
#include "harness/durability_experiment.hpp"
#include "harness/parallel.hpp"
#include "metrics/bootstrap.hpp"
#include "metrics/table.hpp"

namespace p2panon::bench {

struct DurabilityRow {
  std::string label;
  anon::ProtocolSpec spec;   // its mix choice is set per column
  std::string distribution;  // node session-time distribution
};

struct DurabilityTable {
  metrics::Table table;
  /// Per row: the random column's averages, then the biased column's.
  std::vector<std::array<harness::DurabilityAverages, 2>> averages;
};

/// Runs every row under both mix choices for `runs` seeds (seed, seed + 1,
/// ...) on `threads` workers, then prints the table and the bootstrap CI
/// lines, where `ci_unit` follows each row label.
inline DurabilityTable run_durability_table(
    const std::string& row_header, const std::vector<DurabilityRow>& rows,
    const std::string& ci_unit, std::size_t nodes, std::uint64_t seed,
    std::size_t runs, std::size_t threads) {
  constexpr anon::MixChoice kMixes[] = {anon::MixChoice::kRandom,
                                        anon::MixChoice::kBiased};
  const auto results = harness::run_cells(
      rows.size() * 2, runs, threads, [&](std::size_t cell, std::size_t run) {
        const DurabilityRow& row = rows[cell / 2];
        harness::DurabilityConfig config;
        config.environment.num_nodes = nodes;
        config.environment.seed = seed + run;
        config.environment.session_distribution = row.distribution;
        config.spec = row.spec;
        config.spec.mix = kMixes[cell % 2];
        return harness::run_durability_experiment(config);
      });

  DurabilityTable out{
      metrics::Table({row_header, "Durability(sec)",
                      "Path construction attempts", "Latency(ms)",
                      "Bandwidth(KB)"}),
      {}};
  std::string ci_lines;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& [random, biased] = out.averages.emplace_back(
        std::array{harness::average_durability(results[2 * r]),
                   harness::average_durability(results[2 * r + 1])});
    out.table.add_row(
        {rows[r].label,
         metrics::pair_cell(random.durability_seconds,
                            biased.durability_seconds),
         metrics::pair_cell(random.construct_attempts,
                            biased.construct_attempts, 1),
         metrics::pair_cell(random.latency_ms, biased.latency_ms),
         metrics::pair_cell(random.bandwidth_kb, biased.bandwidth_kb, 1)});
    ci_lines += "  " + rows[r].label + ci_unit +
                ": durability 95% bootstrap CI  random " +
                metrics::bootstrap_mean_ci(random.durability_runs)
                    .to_string(0) +
                "  biased " +
                metrics::bootstrap_mean_ci(biased.durability_runs)
                    .to_string(0) +
                "\n";
  }
  std::printf("%s\n", out.table.render().c_str());
  std::printf("Durability uncertainty (percentile bootstrap over seeds):\n%s\n",
              ci_lines.c_str());
  return out;
}

}  // namespace p2panon::bench

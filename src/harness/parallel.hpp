// Thread-pool fan-out for independent simulation runs.
//
// Each run is a self-contained single-threaded simulation (nothing is
// shared between Environments), so multi-seed sweeps parallelize
// embarrassingly. The callable must only write to its own index's slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace p2panon::harness {

/// Runs fn(0) .. fn(count - 1) on up to `threads` worker threads
/// (threads <= 1 runs inline). Exceptions in workers propagate to the
/// caller after all workers join.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// Runs run(cell, seed_index) for every cell in [0, cells) and every seed
/// index in [0, runs) in one parallel_for pool, so no cell waits for the
/// slowest seed of the one before it. Returns results[cell][seed_index]:
/// grouped by cell, in seed order, whatever the thread count.
template <typename Run>
auto run_cells(std::size_t cells, std::size_t runs, std::size_t threads,
               const Run& run) {
  using Result = std::invoke_result_t<const Run&, std::size_t, std::size_t>;
  std::vector<std::vector<Result>> results(cells, std::vector<Result>(runs));
  parallel_for(cells * runs, threads, [&](std::size_t i) {
    results[i / runs][i % runs] = run(i / runs, i % runs);
  });
  return results;
}

/// `requested` when positive, else the hardware concurrency (at least 1):
/// the benches' `--threads 0 = auto` rule.
std::size_t worker_threads(std::int64_t requested = 0);

}  // namespace p2panon::harness

// Microbenchmarks: event engine and membership substrate throughput.
//
// Two modes (micro_crypto's pattern):
//   * plain google-benchmark run (default);
//   * --json <path>: hand-rolled event-queue / dispatch throughput report
//     at N = 10k events, with and without the capacity loop profiler
//     attached, so the profiler's dispatch-path cost is a committed
//     number rather than a claim.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "churn/churn_model.hpp"
#include "churn/distributions.hpp"
#include "membership/gossip.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2panon;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < batch; ++i) {
      queue.schedule(static_cast<SimTime>(rng.next_below(1000000)), [] {});
    }
    while (!queue.empty()) queue.pop();
    benchmark::DoNotOptimize(queue.scheduled_total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(10240)->Arg(65536);

constexpr std::size_t kJsonEvents = 10000;  // N = 10k events per chain

// One self-rescheduling chain of kJsonEvents ticks; returns the count.
std::uint64_t dispatch_chain(obs::capacity::LoopProfiler* profiler) {
  static const auto kTickEvent = obs::capacity::event_type("bench.tick");
  sim::Simulator simulator;
  simulator.set_profiler(profiler);
  std::uint64_t counter = 0;
  std::function<void()> tick = [&] {
    if (++counter < kJsonEvents) {
      simulator.schedule_after(1, tick, kTickEvent);
    }
  };
  simulator.schedule_after(0, tick, kTickEvent);
  simulator.run();
  return counter;
}

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(dispatch_chain(nullptr));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJsonEvents));
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_SimulatorEventDispatchProfiled(benchmark::State& state) {
  // The same chain with the capacity loop profiler attached; the ratio to
  // the plain variant is the profiler's dispatch-path cost.
  obs::capacity::LoopProfiler::Config config;
  config.sample_stride = static_cast<std::uint32_t>(state.range(0));
  obs::capacity::LoopProfiler profiler(config);
  for (auto _ : state) benchmark::DoNotOptimize(dispatch_chain(&profiler));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJsonEvents));
}
BENCHMARK(BM_SimulatorEventDispatchProfiled)->Arg(16)->Arg(1);

void BM_GossipMinuteOfSimulation(benchmark::State& state) {
  // One simulated minute of a churning gossip overlay.
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    auto latency = net::LatencyMatrix::synthetic(nodes, Rng(2));
    churn::ParetoLifetime dist = churn::ParetoLifetime::with_median(3600.0);
    churn::ChurnModel churn_model(simulator, nodes, dist, Rng(3), 0.5);
    net::SimTransport transport(
        simulator, latency,
        [&](NodeId node) { return churn_model.is_up(node); });
    net::Demux demux(transport, nodes);
    membership::GossipMembership gossip(simulator, demux, churn_model,
                                        membership::GossipConfig{}, Rng(4));
    gossip.start();
    churn_model.start();
    simulator.run_until(1 * kMinute);
    benchmark::DoNotOptimize(gossip.messages_sent());
  }
}
BENCHMARK(BM_GossipMinuteOfSimulation)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_LatencyMatrixSynthesis(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto matrix = net::LatencyMatrix::synthetic(nodes, Rng(5));
    benchmark::DoNotOptimize(matrix.mean_rtt());
  }
}
BENCHMARK(BM_LatencyMatrixSynthesis)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// --- --json report mode ----------------------------------------------------

constexpr int kPairs = 11;  // interleaved detached / profiled windows

// Events per second over `iters` calls of `fn`, kJsonEvents events each.
template <class Fn>
double window_eps(Fn& fn, std::size_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const std::chrono::duration<double> secs =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(iters * kJsonEvents) / secs.count();
}

// Calls per window: after one warmup call, the first count, doubling from
// one, whose window lasts at least 50 ms.
template <class Fn>
std::size_t window_calls(Fn& fn) {
  fn();
  std::size_t iters = 1;
  while (static_cast<double>(iters * kJsonEvents) / window_eps(fn, iters) <
         0.05) {
    iters *= 2;
  }
  return iters;
}

// Best of three windows.
template <class Fn>
double best_eps(Fn&& fn) {
  const std::size_t iters = window_calls(fn);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::max(best, window_eps(fn, iters));
  }
  return best;
}

int run_json_report(const std::string& path) {
  obs::BenchReport report("micro_sim");
  report.add("events_per_run", static_cast<std::uint64_t>(kJsonEvents));

  // Raw queue throughput: schedule N then drain N.
  Rng rng(1);
  report.add("queue_schedule_pop_events_per_sec", best_eps([&] {
               sim::EventQueue queue;
               for (std::size_t i = 0; i < kJsonEvents; ++i) {
                 queue.schedule(static_cast<SimTime>(rng.next_below(1000000)),
                                [] {});
               }
               while (!queue.empty()) queue.pop();
             }));

  // Full dispatch loop, profiler detached and attached at stride 16, in
  // kPairs pairs of back-to-back windows, each pair in the other order
  // from the last so that a drift in host speed favours neither. The
  // overhead is the median of the pairs' overheads; each throughput is its
  // best window.
  obs::capacity::LoopProfiler::Config sampled_config;
  sampled_config.sample_stride = 16;
  obs::capacity::LoopProfiler sampled(sampled_config);
  auto plain = [] { dispatch_chain(nullptr); };
  auto profiled = [&] { dispatch_chain(&sampled); };
  const std::size_t plain_iters = window_calls(plain);
  const std::size_t profiled_iters = window_calls(profiled);
  double plain_best = 0.0;
  double profiled_best = 0.0;
  std::vector<double> overheads;
  for (int pair = 0; pair < kPairs; ++pair) {
    double plain_eps = pair % 2 == 0 ? window_eps(plain, plain_iters) : 0.0;
    const double profiled_eps = window_eps(profiled, profiled_iters);
    if (pair % 2 == 1) plain_eps = window_eps(plain, plain_iters);
    plain_best = std::max(plain_best, plain_eps);
    profiled_best = std::max(profiled_best, profiled_eps);
    overheads.push_back(100.0 * (plain_eps - profiled_eps) / plain_eps);
  }
  std::nth_element(overheads.begin(), overheads.begin() + kPairs / 2,
                   overheads.end());
  report.add("dispatch_events_per_sec", plain_best);
  report.add("dispatch_profiled_events_per_sec", profiled_best);
  report.add("profiler_overhead_pct", overheads[kPairs / 2]);

  obs::capacity::LoopProfiler::Config full_config;
  full_config.sample_stride = 1;
  obs::capacity::LoopProfiler every(full_config);
  report.add("dispatch_profiled_stride1_events_per_sec",
             best_eps([&] { dispatch_chain(&every); }));

  report.add_section("profiler", sampled.report_json());
  return report.write_if_requested(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return run_json_report(json_path);

  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

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

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t counter = 0;
    std::function<void()> tick = [&] {
      if (++counter < 10000) simulator.schedule_after(1, tick);
    };
    simulator.schedule_after(0, tick);
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_SimulatorEventDispatchProfiled(benchmark::State& state) {
  // Same self-rescheduling chain with the capacity loop profiler attached;
  // the ratio to the plain variant is the profiler's dispatch-path cost.
  const auto stride = static_cast<std::uint32_t>(state.range(0));
  static const auto kTickEvent = obs::capacity::event_type("bench.tick");
  obs::capacity::LoopProfiler::Config config;
  config.sample_stride = stride;
  obs::capacity::LoopProfiler profiler(config);
  for (auto _ : state) {
    sim::Simulator simulator;
    simulator.set_profiler(&profiler);
    std::uint64_t counter = 0;
    std::function<void()> tick = [&] {
      if (++counter < 10000) simulator.schedule_after(1, tick, kTickEvent);
    };
    simulator.schedule_after(0, tick, kTickEvent);
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
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

constexpr std::size_t kJsonEvents = 10000;  // N = 10k per measured run

template <class Fn>
double measure_events_per_sec(std::size_t events_per_call, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t iters = 1;
    for (;;) {
      const auto t0 = clock::now();
      for (std::size_t i = 0; i < iters; ++i) fn();
      const double secs =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (secs >= 0.05) {
        best = std::max(best, static_cast<double>(iters) *
                                  static_cast<double>(events_per_call) /
                                  secs);
        break;
      }
      iters = secs <= 0.0 ? iters * 8 : iters * 2;
    }
  }
  return best;
}

double dispatch_run(obs::capacity::LoopProfiler* profiler) {
  static const auto kTickEvent = obs::capacity::event_type("bench.tick");
  return measure_events_per_sec(kJsonEvents, [&] {
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
  });
}

int run_json_report(const std::string& path) {
  obs::BenchReport report("micro_sim");
  report.add("events_per_run", static_cast<std::uint64_t>(kJsonEvents));

  // Raw queue throughput: schedule N then drain N.
  Rng rng(1);
  const double queue_eps = measure_events_per_sec(kJsonEvents, [&] {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < kJsonEvents; ++i) {
      queue.schedule(static_cast<SimTime>(rng.next_below(1000000)), [] {});
    }
    while (!queue.empty()) queue.pop();
  });
  report.add("queue_schedule_pop_events_per_sec", queue_eps);

  // Full dispatch loop, profiler detached / attached (stride 16 and 1).
  const double plain_eps = dispatch_run(nullptr);
  report.add("dispatch_events_per_sec", plain_eps);

  obs::capacity::LoopProfiler::Config sampled_config;
  sampled_config.sample_stride = 16;
  obs::capacity::LoopProfiler sampled(sampled_config);
  const double sampled_eps = dispatch_run(&sampled);
  report.add("dispatch_profiled_events_per_sec", sampled_eps);
  report.add("profiler_overhead_pct",
             plain_eps > 0 && sampled_eps > 0
                 ? 100.0 * (plain_eps - sampled_eps) / plain_eps
                 : 0.0);

  obs::capacity::LoopProfiler::Config full_config;
  full_config.sample_stride = 1;
  obs::capacity::LoopProfiler every(full_config);
  const double every_eps = dispatch_run(&every);
  report.add("dispatch_profiled_stride1_events_per_sec", every_eps);

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

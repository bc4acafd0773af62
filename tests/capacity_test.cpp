// Capacity observability: event-loop profiler attribution, per-subsystem
// alloc accounting (MemScope), the explicit byte census, and resource
// sampling. This binary links the strong alloc-probe hooks, so the
// MemScope tests exercise the real counting operator new/delete.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "common/alloc_probe.hpp"
#include "harness/environment.hpp"
#include "membership/node_cache.hpp"
#include "obs/capacity/census.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/capacity/rusage.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace p2panon {
namespace {

using obs::capacity::ByteCensus;
using obs::capacity::LoopProfiler;

// --- event-type interning ---------------------------------------------------

TEST(EventTypeTest, InterningIsStableAndNamed) {
  const auto a = obs::capacity::event_type("captest.alpha");
  const auto b = obs::capacity::event_type("captest.beta");
  EXPECT_NE(a, obs::capacity::kUntypedEvent);
  EXPECT_NE(b, obs::capacity::kUntypedEvent);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, obs::capacity::event_type("captest.alpha"));
  EXPECT_STREQ(obs::capacity::event_type_name(a), "captest.alpha");
  EXPECT_STREQ(obs::capacity::event_type_name(obs::capacity::kUntypedEvent),
               "untyped");
  EXPECT_GE(obs::capacity::event_type_count(), 3u);
}

// --- profiler attribution ---------------------------------------------------

void spin_for_us(std::int64_t us) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(LoopProfilerTest, AttributesSelfTimeByEventType) {
  const auto fast = obs::capacity::event_type("captest.fast");
  const auto slow = obs::capacity::event_type("captest.slow");

  LoopProfiler::Config config;
  config.sample_stride = 1;  // time every dispatch: exact attribution
  LoopProfiler profiler(config);

  sim::Simulator simulator;
  simulator.set_profiler(&profiler);
  for (int i = 0; i < 40; ++i) {
    simulator.schedule_at(i * 10, [] {}, fast);
  }
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_at(i * 50 + 5, [] { spin_for_us(200); }, slow);
  }
  simulator.run();

  const auto report = profiler.report();
  EXPECT_EQ(report.dispatches_total, 50u);
  EXPECT_EQ(report.samples_total, 50u);
  ASSERT_GE(report.types.size(), 2u);

  // Heaviest type first, and the spinning type dominates the shares.
  EXPECT_EQ(report.types[0].name, "captest.slow");
  EXPECT_EQ(report.types[0].dispatches, 10u);
  EXPECT_GT(report.types[0].share, 0.9);
  EXPECT_GE(report.types[0].est_total_ns, 10 * 200 * 1000.0 * 0.5);

  double share_sum = 0;
  std::uint64_t dispatch_sum = 0;
  for (const auto& type : report.types) {
    share_sum += type.share;
    dispatch_sum += type.dispatches;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-6);
  EXPECT_EQ(dispatch_sum, 50u);
}

TEST(LoopProfilerTest, SamplingStrideCountsAllTimesSome) {
  const auto type = obs::capacity::event_type("captest.strided");
  LoopProfiler::Config config;
  config.sample_stride = 4;
  LoopProfiler profiler(config);

  sim::Simulator simulator;
  simulator.set_profiler(&profiler);
  for (int i = 0; i < 100; ++i) simulator.schedule_at(i, [] {}, type);
  simulator.run();

  const auto report = profiler.report();
  EXPECT_EQ(report.dispatches_total, 100u);
  EXPECT_EQ(report.samples_total, 25u);  // exactly 1 in 4
  EXPECT_EQ(report.sample_stride, 4u);
  // Overhead model: one calibrated clock pair per sample.
  EXPECT_GT(report.clock_pair_ns, 0.0);
  EXPECT_NEAR(report.est_overhead_ns, 25 * report.clock_pair_ns, 1e-6);

  profiler.reset();
  EXPECT_EQ(profiler.report().dispatches_total, 0u);
}

TEST(LoopProfilerTest, ReportJsonIsWellFormedEnough) {
  LoopProfiler profiler(LoopProfiler::Config{});
  const std::string doc = profiler.report_json();
  EXPECT_NE(doc.find("\"dispatches\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"sample_stride\":16"), std::string::npos);
  EXPECT_NE(doc.find("\"types\":["), std::string::npos);
}

// --- alloc probe: all operator new forms, MemScope attribution -------------

// Opaque pointer sink: stops the optimizer from eliding a new/delete
// pair entirely (allocation elision is legal and would defeat the test).
void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

TEST(AllocProbeTest, HooksAreLinkedAndCountEveryNewForm) {
  ASSERT_TRUE(alloc_probe::active());

  const std::uint64_t allocs0 = alloc_probe::allocations();
  const std::uint64_t live0 = alloc_probe::live_bytes();

  // Plain, array, over-aligned, and nothrow forms must all be observed.
  auto* plain = new int(7);
  escape(plain);
  auto* arr = new char[333];
  escape(arr);
  struct alignas(64) Wide {
    char data[64];
  };
  auto* wide = new Wide();
  escape(wide);
  auto* soft = new (std::nothrow) double(1.5);
  escape(soft);
  ASSERT_NE(soft, nullptr);

  EXPECT_GE(alloc_probe::allocations(), allocs0 + 4);
  EXPECT_GE(alloc_probe::live_bytes(), live0 + sizeof(int) + 333 +
                                           sizeof(Wide) + sizeof(double));
  // Over-aligned storage actually honors the alignment.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(wide) % 64, 0u);

  delete plain;
  delete[] arr;
  delete wide;
  delete soft;
  EXPECT_EQ(alloc_probe::live_bytes(), live0);
}

TEST(AllocProbeTest, MemScopeAttributesAndNests) {
  ASSERT_TRUE(alloc_probe::active());
  const auto outer0 = alloc_probe::scope_stats_by_name("captest_outer");
  const auto inner0 = alloc_probe::scope_stats_by_name("captest_inner");

  std::unique_ptr<std::vector<char>> outer_buf;
  std::unique_ptr<std::vector<char>> inner_buf;
  {
    alloc_probe::MemScope outer("captest_outer");
    outer_buf = std::make_unique<std::vector<char>>(10000);
    {
      alloc_probe::MemScope inner("captest_inner");
      inner_buf = std::make_unique<std::vector<char>>(5000);
    }
    // Nesting restored: this allocation lands in the outer scope again.
    outer_buf->reserve(30000);
  }

  const auto outer1 = alloc_probe::scope_stats_by_name("captest_outer");
  const auto inner1 = alloc_probe::scope_stats_by_name("captest_inner");
  EXPECT_GE(outer1.live_bytes - outer0.live_bytes, 30000u);
  EXPECT_GE(inner1.live_bytes - inner0.live_bytes, 5000u);
  EXPECT_LT(inner1.live_bytes - inner0.live_bytes, 10000u);
  EXPECT_GE(outer1.peak_bytes, outer1.live_bytes);

  // Frees are attributed to the scope that allocated, regardless of the
  // scope active at free time: both live counts return to baseline.
  outer_buf.reset();
  inner_buf.reset();
  EXPECT_EQ(alloc_probe::scope_stats_by_name("captest_outer").live_bytes,
            outer0.live_bytes);
  EXPECT_EQ(alloc_probe::scope_stats_by_name("captest_inner").live_bytes,
            inner0.live_bytes);
}

// --- byte census ------------------------------------------------------------

TEST(ByteCensusTest, TotalsAndJsonMatchHandComputedSizes) {
  ByteCensus census;
  census.add("beta", "second", 300);
  census.add("alpha", "first", 100);
  census.add("alpha", "third", 50);

  EXPECT_EQ(census.total(), 450u);
  EXPECT_EQ(census.subsystem_total("alpha"), 150u);
  EXPECT_EQ(census.subsystem_total("beta"), 300u);
  EXPECT_EQ(census.subsystem_total("missing"), 0u);

  const auto totals = census.subsystem_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].first, "alpha");  // sorted by name
  EXPECT_EQ(totals[0].second, 150u);

  const std::string doc = census.to_json(10);
  EXPECT_NE(doc.find("\"total_bytes\":450"), std::string::npos);
  EXPECT_NE(doc.find("\"num_nodes\":10"), std::string::npos);
  EXPECT_NE(doc.find("\"bytes_per_node\":45"), std::string::npos);
}

TEST(ByteCensusTest, VectorBytesTracksCapacity) {
  std::vector<std::uint64_t> v;
  v.reserve(100);
  EXPECT_EQ(obs::capacity::vector_bytes(v), 100 * sizeof(std::uint64_t));
}

TEST(ByteCensusTest, EnvironmentCensusCoversTheBigStructures) {
  constexpr std::size_t kNodes = 32;
  harness::EnvironmentConfig config;
  config.num_nodes = kNodes;
  config.seed = 11;
  harness::Environment env(config);

  ByteCensus census;
  env.byte_census(census);

  // The latency model keeps N coordinates (x, y, access), not a table:
  // its bytes grow linearly in N.
  EXPECT_EQ(census.subsystem_total("latency_matrix"),
            kNodes * 3 * sizeof(double));
  // N node caches of N subjects each — the census must see at least the
  // raw per-subject storage for the O(N^2) detector to have signal.
  EXPECT_GE(census.subsystem_total("membership"),
            kNodes * kNodes * membership::NodeCache::kBytesPerSubject);
  EXPECT_GT(census.subsystem_total("router"), 0u);
  EXPECT_GT(census.subsystem_total("pki"), 0u);
  EXPECT_GT(census.total(), 0u);
}

// --- resource usage ---------------------------------------------------------

TEST(ResourceUsageTest, SamplesPlausibleProcessNumbers) {
  const auto usage = obs::capacity::sample_resource_usage();
  EXPECT_GT(usage.max_rss_kb, 1000u);  // any live process is > 1 MB
  EXPECT_GE(usage.max_rss_kb, usage.current_rss_kb / 2);  // same units
  EXPECT_GE(usage.user_sec + usage.sys_sec, 0.0);

  const std::string doc = obs::capacity::resource_usage_json(usage);
  EXPECT_NE(doc.find("\"max_rss_kb\":"), std::string::npos);
  EXPECT_NE(doc.find("\"user_sec\":"), std::string::npos);
}

}  // namespace
}  // namespace p2panon

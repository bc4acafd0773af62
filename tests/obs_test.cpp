// Observability layer: registry label handling, HDR histogram percentiles
// against the metrics-layer reference, trace JSON well-formedness,
// deterministic JSONL sampling, and the "off means off" guarantee — a run
// with tracing enabled must be bit-identical to one without.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/link_observer.hpp"
#include "common/rng.hpp"
#include "harness/chaos_experiment.hpp"
#include "obs/capacity/loop_profiler.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace p2panon::obs {
namespace {

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, LabelsDistinguishSeries) {
  Registry reg;
  Counter* sent = reg.counter("segments_total", {{"event", "sent"}});
  Counter* acked = reg.counter("segments_total", {{"event", "acked"}});
  ASSERT_NE(sent, acked);
  sent->inc(3);
  acked->inc();
  EXPECT_EQ(reg.counter_value("segments_total", {{"event", "sent"}}), 3u);
  EXPECT_EQ(reg.counter_value("segments_total", {{"event", "acked"}}), 1u);
  EXPECT_EQ(reg.counter_total("segments_total"), 4u);
  // Unregistered series read as zero instead of registering.
  EXPECT_EQ(reg.counter_value("segments_total", {{"event", "expired"}}), 0u);
}

TEST(RegistryTest, LookupIsStable) {
  Registry reg;
  Counter* first = reg.counter("drops", {{"cause", "loss"}, {"dir", "fwd"}});
  // Same name + labels (insertion order of the map literal is irrelevant —
  // Labels is an ordered map) must return the same handle.
  Counter* again = reg.counter("drops", {{"dir", "fwd"}, {"cause", "loss"}});
  EXPECT_EQ(first, again);
  Gauge* depth = reg.gauge("queue_depth");
  depth->set(7);
  depth->add(-2);
  EXPECT_EQ(reg.gauge_value("queue_depth"), 5);
}

TEST(RegistryTest, SeriesKeyRendersLabels) {
  EXPECT_EQ(series_key("up", {}), "up");
  EXPECT_EQ(series_key("drops", {{"cause", "loss"}, {"dir", "fwd"}}),
            "drops{cause=loss,dir=fwd}");
}

TEST(RegistryTest, SnapshotIsValidJson) {
  Registry reg;
  reg.counter("net_drops_total", {{"cause", "link_loss"}})->inc(2);
  reg.gauge("sim_pending_events")->set(42);
  HdrHistogram* h = reg.histogram("rtt_us");
  h->record(100);
  h->record(2000);
  const std::string snapshot = reg.snapshot_json();
  EXPECT_TRUE(json_valid(snapshot)) << snapshot;
  EXPECT_NE(snapshot.find("\"name\":\"net_drops_total\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"cause\":\"link_loss\""), std::string::npos);
  EXPECT_NE(snapshot.find("sim_pending_events"), std::string::npos);
  EXPECT_NE(snapshot.find("rtt_us"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON grammar: the validator and the DOM parser accept exactly the same
// documents (RFC 8259, nesting capped at 512 levels below the root).

TEST(JsonTest, ValidatorAndParserAgreeOnEveryVerdict) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const std::vector<std::string> rejected = {
      "", "{", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "[1 2]",
      "01", "1.", "-", "+1", ".5", "1e",
      "\"abc", "\"\\q\"", "\"\\u12G4\"", std::string("\"a\x01z\""),
      "tru", "{} x", "[1] [2]", nested(514)};
  const std::vector<std::string> accepted = {
      "0", "-0.5e+3", "\"\\ud83d\\ude00\"", " \n\t{\"a\": [1, 2]} \r\n",
      nested(513)};
  for (const std::string& text : rejected) {
    EXPECT_FALSE(json_valid(text)) << text.substr(0, 40);
    EXPECT_EQ(json_parse(text), nullptr) << text.substr(0, 40);
  }
  for (const std::string& text : accepted) {
    EXPECT_TRUE(json_valid(text)) << text.substr(0, 40);
    EXPECT_NE(json_parse(text), nullptr) << text.substr(0, 40);
  }
}

// ---------------------------------------------------------------------------
// HdrHistogram vs the metrics-layer reference

TEST(HdrHistogramTest, ExactBelowSixtyFour) {
  HdrHistogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  // Small values get one bucket each, so percentiles are exact.
  EXPECT_EQ(h.percentile(0.5), 31u);
  EXPECT_EQ(h.percentile(1.0), 63u);
}

TEST(HdrHistogramTest, PercentilesTrackEmpiricalQuantiles) {
  // Log-linear bucketing bounds relative error by 1/32 per bucket; allow a
  // little extra because the reference interpolates and the histogram takes
  // bucket midpoints.
  constexpr double kTolerance = 0.06;
  HdrHistogram h;
  std::vector<double> reference;
  Rng rng(99);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    // Heavy-tailed spread across many powers of two, like latency data.
    const std::uint64_t value = 64 + (rng.next_u64() % (1u << (6 + i % 14)));
    h.record(value);
    reference.push_back(static_cast<double>(value));
    sum += static_cast<double>(value);
  }
  // The reference quantile interpolates between the order statistics.
  std::sort(reference.begin(), reference.end());
  for (const double p : {0.10, 0.50, 0.90, 0.99}) {
    const double idx = p * static_cast<double>(reference.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const double frac = idx - static_cast<double>(lo);
    const double expected =
        reference[lo] * (1.0 - frac) + reference[lo + 1] * frac;
    const double actual = static_cast<double>(h.percentile(p));
    EXPECT_NEAR(actual / expected, 1.0, kTolerance)
        << "p=" << p << " expected=" << expected << " actual=" << actual;
  }
  EXPECT_EQ(h.count(), 20000u);
  // The mean is computed from the exact running sum, not bucket midpoints.
  EXPECT_DOUBLE_EQ(h.mean(), sum / 20000.0);
}

TEST(HdrHistogramTest, BucketBoundsCoverValue) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t value = rng.next_u64() >> (i % 40);
    const std::size_t index = HdrHistogram::bucket_index(value);
    EXPECT_LE(HdrHistogram::bucket_lower_bound(index), value);
    EXPECT_GE(HdrHistogram::bucket_upper_bound(index), value);
  }
}

// ---------------------------------------------------------------------------
// Tracer + sinks

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  ChromeTraceSink sink;
  Tracer& tracer = Tracer::instance();
  tracer.add_sink(&sink);
  ASSERT_TRUE(tracer.enabled());
  {
    CorrelationScope scope(0xabcd);
    TraceArgs args;
    args.add("path", std::uint64_t{2})
        .add("note", "quotes \"and\" back\\slash");
    tracer.span_begin("anon", "segment", current_correlation(), args);
    tracer.instant("net", "drop", current_correlation());
    tracer.span_end("anon", "segment", current_correlation());
  }
  tracer.clear_sinks();
  EXPECT_FALSE(tracer.enabled());

  EXPECT_EQ(sink.event_count(), 3u);
  const std::string doc = sink.json();
  EXPECT_TRUE(json_valid(doc)) << doc;
  // Legacy async phases share the correlation id as the async id.
  EXPECT_NE(doc.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"n\""), std::string::npos);
  EXPECT_NE(doc.find("0xabcd"), std::string::npos);
}

TEST(TracerTest, OffMeansNoEventsAndNoEnableFlag) {
  Tracer& tracer = Tracer::instance();
  ASSERT_FALSE(tracer.enabled());
  ChromeTraceSink sink;
  // Emitting with no sink installed must be a no-op.
  tracer.span_begin("anon", "segment", 1);
  tracer.instant("anon", "x", 1);
  tracer.span_end("anon", "segment", 1);
  EXPECT_EQ(sink.event_count(), 0u);
  // Correlation scopes nest and restore regardless of tracer state.
  EXPECT_EQ(current_correlation(), 0u);
  {
    CorrelationScope outer(5);
    EXPECT_EQ(current_correlation(), 5u);
    {
      CorrelationScope inner(9);
      EXPECT_EQ(current_correlation(), 9u);
    }
    EXPECT_EQ(current_correlation(), 5u);
  }
  EXPECT_EQ(current_correlation(), 0u);
}

TEST(JsonlSinkTest, SamplingIsDeterministicAndPredictable) {
  const std::uint64_t seed = 1234;
  const double rate = 0.4;
  JsonlTraceSink sink(rate, seed);
  JsonlTraceSink twin(rate, seed);
  std::size_t kept = 0;
  for (CorrelationId corr = 1; corr <= 2000; ++corr) {
    // The decision is exactly the documented hash threshold.
    const std::uint64_t h = mix64(corr ^ seed);
    const double unit =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    EXPECT_EQ(sink.sampled(corr), unit < rate) << corr;
    EXPECT_EQ(sink.sampled(corr), twin.sampled(corr)) << corr;
    if (sink.sampled(corr)) ++kept;
  }
  // ~40% of chains survive; allow generous slack for a 2000-chain sample.
  EXPECT_GT(kept, 600u);
  EXPECT_LT(kept, 1000u);
  // Edge rates and the uncorrelated chain.
  EXPECT_TRUE(JsonlTraceSink(1.0, seed).sampled(77));
  EXPECT_FALSE(JsonlTraceSink(0.0, seed).sampled(77));
  EXPECT_TRUE(JsonlTraceSink(0.0, seed).sampled(0));
}

TEST(JsonlSinkTest, ChainsAreSampledAsAUnitAndLinesParse) {
  JsonlTraceSink sink(0.5, 42);
  Tracer& tracer = Tracer::instance();
  tracer.add_sink(&sink);
  for (CorrelationId corr = 1; corr <= 50; ++corr) {
    TraceArgs args;
    args.add("segment", corr);
    tracer.span_begin("anon", "segment", corr, args);
    tracer.instant("net", "send", corr);
    tracer.span_end("anon", "segment", corr);
  }
  tracer.clear_sinks();

  std::size_t expected_lines = 0;
  for (CorrelationId corr = 1; corr <= 50; ++corr) {
    if (sink.sampled(corr)) expected_lines += 3;  // whole chain or nothing
  }
  EXPECT_EQ(sink.lines().size(), expected_lines);
  for (const std::string& line : sink.lines()) {
    EXPECT_TRUE(json_valid(line)) << line;
  }
}

// ---------------------------------------------------------------------------
// Off means off, end to end: a traced chaos run must produce the exact
// fingerprint of an untraced one — tracing may observe, never perturb.

harness::ChaosConfig tiny_chaos(std::uint64_t seed) {
  harness::ChaosConfig config;
  config.environment.num_nodes = 64;
  config.environment.seed = seed;
  config.scenario = harness::ChaosScenario::kMildLossDrizzle;
  config.warmup = 5 * kMinute;
  config.measure = 6 * kMinute;
  config.send_interval = 10 * kSecond;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  return config;
}

// The default chaos run is the control every chaos_sweep mode re-runs and
// compares against its kPrePrFingerprint literal; pin the same string here
// so a drift shows up in the test suite, not only in the sweep binary.
TEST(OffMeansOffTest, TinyChaosMatchesSweepControlFingerprint) {
  EXPECT_EQ(harness::run_chaos_experiment(tiny_chaos(3)).fingerprint(),
            "1:35:19:17:4:13:0:26:20:1:5:6:60:0:0:0:0:0:0:0:171:0:0:0:0:173:"
            "0:0:0:12:45782:4:0:0:0:0:0:0");
}

TEST(OffMeansOffTest, TracedRunIsBitIdenticalToUntraced) {
  const auto baseline = harness::run_chaos_experiment(tiny_chaos(3));

  ChromeTraceSink chrome;
  JsonlTraceSink jsonl(1.0, 0);
  Tracer& tracer = Tracer::instance();
  tracer.add_sink(&chrome);
  tracer.add_sink(&jsonl);
  install_log_decorator();
  const auto traced = harness::run_chaos_experiment(tiny_chaos(3));
  uninstall_log_decorator();
  tracer.clear_sinks();

  // Determinism: identical fingerprints, so tracing changed no outcome.
  EXPECT_EQ(baseline.fingerprint(), traced.fingerprint());
  // And the traced run actually produced a parseable trace with the span
  // types the acceptance criteria name.
  EXPECT_GT(chrome.event_count(), 0u);
  const std::string doc = chrome.json();
  EXPECT_TRUE(json_valid(doc)) << "trace JSON must parse";
  EXPECT_NE(doc.find("path_construct"), std::string::npos);
  EXPECT_NE(doc.find("hop_relay"), std::string::npos);
  EXPECT_NE(doc.find("\"segment"), std::string::npos);
  EXPECT_NE(doc.find("reconstruct"), std::string::npos);
  EXPECT_FALSE(jsonl.lines().empty());
}

TEST(OffMeansOffTest, SamplerAndScoreboardPerturbNoOutcome) {
  const auto baseline = harness::run_chaos_experiment(tiny_chaos(3));

  // Same run sampled, with a time-series recorder attached. The sampler
  // only adds read-only ticks to the event queue, so every outcome counter
  // must match; executed_events is the one legitimate difference — exactly
  // one tick per window, whatever the tick observes — and is normalised
  // out.
  harness::ChaosConfig config = tiny_chaos(3);
  Registry sampled_registry;
  TimeseriesRecorder recorder(sampled_registry);
  config.environment.metrics = &sampled_registry;
  config.environment.timeseries = &recorder;
  config.environment.sampled = true;
  auto observed = harness::run_chaos_experiment(config);

  EXPECT_EQ(observed.executed_events,
            baseline.executed_events + observed.health.windows);
  observed.executed_events = baseline.executed_events;
  EXPECT_EQ(baseline.fingerprint(), observed.fingerprint());

  // And the observers actually observed: windows were recorded, and the
  // scoreboard counted them.
  EXPECT_GT(recorder.sample_count(), 0u);
  EXPECT_GT(recorder.series_count(), 0u);
  EXPECT_GT(observed.health.windows, 0u);
  EXPECT_FALSE(observed.health_table.empty());
}

// The health scoreboard of the control run, pinned whole: 32 windows of
// 30 s, the drizzle's receiver_dead drops and their peak rate, and one
// sampling event per window on top of the unsampled run's 45782.
TEST(HealthScoreboardTest, TinyChaosTableIsPinned) {
  harness::ChaosConfig config = tiny_chaos(3);
  config.environment.sampled = true;
  const auto result = harness::run_chaos_experiment(config);
  EXPECT_EQ(result.executed_events, 45814u);
  EXPECT_EQ(result.health_table,
            "health signal                    value               \n"
            "-----------------------------------------------------\n"
            "windows                          32                  \n"
            "churn storm windows              0                   \n"
            "max transitions/window           2                   \n"
            "stalled path-windows             0                   \n"
            "max drop rate (/s)               0.800               \n"
            "corruption verdict               clean               \n"
            "corruption windows               0 (streak 0)        \n"
            "auth rejections / corrupt nacks  0 / 0               \n"
            "drops sender_dead                0 (peak 0.000/s)    \n"
            "drops receiver_dead              173 (peak 0.800/s)  \n"
            "drops link_loss                  0 (peak 0.000/s)    \n"
            "drops no_handler                 0 (peak 0.000/s)    \n"
            "membership fault windows         0 (max/window 0)    \n"
            "membership gossip_blackout       0 (peak 0.000/s)    \n"
            "membership gossip_loss           0 (peak 0.000/s)    \n"
            "membership stale_injected        0 (peak 0.000/s)    \n"
            "membership claim_inflated        0 (peak 0.000/s)    \n"
            "leader elections                 0                   \n");
}

// Corruption attribution end to end: under the byzantine scenario with
// segment auth on, five windows carry responder-side rejections (13, each
// answered by a corrupt nack), at most two in a row, so the verdict is
// "transient".
TEST(HealthScoreboardTest, CorruptionAttributionTableIsPinned) {
  harness::ChaosConfig config = tiny_chaos(7);
  config.scenario = harness::ChaosScenario::kCorruptedRelayQuorum;
  config.measure = 8 * kMinute;
  config.session.segment_auth = true;
  config.environment.sampled = true;
  const auto result = harness::run_chaos_experiment(config);
  EXPECT_EQ(result.health_table,
            "health signal                    value               \n"
            "-----------------------------------------------------\n"
            "windows                          36                  \n"
            "churn storm windows              0                   \n"
            "max transitions/window           2                   \n"
            "stalled path-windows             0                   \n"
            "max drop rate (/s)               0.733               \n"
            "corruption verdict               transient           \n"
            "corruption windows               5 (streak 2)        \n"
            "auth rejections / corrupt nacks  13 / 13             \n"
            "drops sender_dead                0 (peak 0.000/s)    \n"
            "drops receiver_dead              109 (peak 0.733/s)  \n"
            "drops link_loss                  0 (peak 0.000/s)    \n"
            "drops no_handler                 0 (peak 0.000/s)    \n"
            "membership fault windows         0 (max/window 0)    \n"
            "membership gossip_blackout       0 (peak 0.000/s)    \n"
            "membership gossip_loss           0 (peak 0.000/s)    \n"
            "membership stale_injected        0 (peak 0.000/s)    \n"
            "membership claim_inflated        0 (peak 0.000/s)    \n"
            "leader elections                 0                   \n");
}

// The capacity loop profiler is pure observation: it reads wall clocks
// and writes only its own slots, never scheduling events or touching RNG
// streams. A run with the profiler attached must therefore be
// byte-identical to the detached baseline — and the profiler must still
// have observed every dispatch.
TEST(OffMeansOffTest, LoopProfilerAttachedIsByteIdentical) {
  const auto baseline = harness::run_chaos_experiment(tiny_chaos(3));

  harness::ChaosConfig config = tiny_chaos(3);
  obs::capacity::LoopProfiler profiler(obs::capacity::LoopProfiler::Config{});
  config.environment.loop_profiler = &profiler;
  const auto profiled = harness::run_chaos_experiment(config);

  EXPECT_EQ(baseline.fingerprint(), profiled.fingerprint());

  // The profiler saw the run: every executed event was dispatched through
  // it, and the type table attributed named subsystem events.
  const auto report = profiler.report();
  EXPECT_EQ(report.dispatches_total, profiled.executed_events);
  EXPECT_GT(report.samples_total, 0u);
  EXPECT_GE(report.types.size(), 2u);
}

// The corruption-resilience features (segment auth, relay suspicion) ship
// default OFF. A run that leaves every toggle at its default — even under
// the byzantine scenario their code paths exist for — must be
// byte-identical to the baseline, with the new evidence series all flat at
// zero.
TEST(OffMeansOffTest, CorruptionDefensesOffAreByteIdentical) {
  harness::ChaosConfig config = tiny_chaos(7);
  config.scenario = harness::ChaosScenario::kCorruptedRelayQuorum;
  config.measure = 8 * kMinute;
  const auto baseline = harness::run_chaos_experiment(config);

  // Spell every toggle out at its default and attach a registry so the
  // evidence series can be audited after the run.
  harness::ChaosConfig spelled = config;
  spelled.session.segment_auth = false;
  spelled.session.relay_suspicion = false;
  Registry registry;
  spelled.environment.metrics = &registry;
  const auto off = harness::run_chaos_experiment(spelled);

  EXPECT_EQ(baseline.fingerprint(), off.fingerprint());
  // No evidence series moved: nothing was tagged, rejected, nacked,
  // suspected, or quarantined.
  EXPECT_EQ(registry.counter_value("anon_segment_auth_total",
                                   {{"result", "verified"}}), 0u);
  EXPECT_EQ(registry.counter_value("anon_segment_auth_total",
                                   {{"result", "rejected"}}), 0u);
  EXPECT_EQ(registry.counter_value("anon_segment_auth_nacks_total"), 0u);
  EXPECT_EQ(registry.counter_value("session_corrupt_nacks_total"), 0u);
  EXPECT_EQ(registry.counter_value("membership_suspicion_reports_total",
                                   {{"evidence", "corrupt"}}), 0u);
  EXPECT_EQ(registry.counter_value("membership_suspicion_reports_total",
                                   {{"evidence", "stall"}}), 0u);
  EXPECT_EQ(off.auth_verified + off.auth_rejected + off.auth_nacks +
                off.suspicion_reports + off.quarantined_nodes, 0u);
  // Delivery scoring is observational: it partitions deliveries without
  // changing them.
  EXPECT_EQ(off.messages_delivered_correct + off.messages_delivered_wrong,
            off.messages_delivered);

  // And the toggles are not dead: the same schedule with segment auth on
  // produces tag verdicts (the fingerprint is free to differ — the wire
  // format legitimately changes).
  harness::ChaosConfig on = config;
  on.session.segment_auth = true;
  Registry on_registry;
  on.environment.metrics = &on_registry;
  const auto tagged = harness::run_chaos_experiment(on);
  EXPECT_GT(tagged.auth_verified, 0u);
  EXPECT_EQ(tagged.messages_delivered_wrong, 0u);
}

// Control-plane resilience (DESIGN §9) rides the same discipline: with
// every membership knob spelled out at its default, a run is byte-identical
// to the unspelled baseline and no membership health series ever registers.
TEST(OffMeansOffTest, MembershipResilienceOffIsByteIdentical) {
  const auto baseline = harness::run_chaos_experiment(tiny_chaos(3));

  harness::ChaosConfig spelled = tiny_chaos(3);
  spelled.environment.membership_kind = harness::MembershipKind::kGossip;
  spelled.environment.gossip.resilient = false;
  spelled.environment.sampled = false;
  Registry registry;
  spelled.environment.metrics = &registry;
  const auto off = harness::run_chaos_experiment(spelled);

  EXPECT_EQ(baseline.fingerprint(), off.fingerprint());
  // The sampler never ran and the repair machinery never moved.
  EXPECT_EQ(registry.counter_value("membership_cache_updates_total",
                                   {{"rule", "direct"}}), 0u);
  EXPECT_EQ(registry.counter_value("membership_anti_entropy_rounds_total"),
            0u);
  EXPECT_EQ(registry.counter_value("membership_repair_records_sent_total"),
            0u);
  EXPECT_EQ(registry.counter_value("membership_elections_total"), 0u);
  EXPECT_EQ(registry.counter_value("fault_injections_total",
                                   {{"kind", "gossip_blackout"}}), 0u);
  EXPECT_EQ(registry.counter_value("fault_injections_total",
                                   {{"kind", "stale_injected"}}), 0u);

  // The switch is not dead: the same schedule with resilience on, and
  // sampled, produces repair rounds and cache-health series (the
  // fingerprint is free to differ — repair legitimately adds traffic).
  harness::ChaosConfig on = tiny_chaos(3);
  on.environment.gossip.resilient = true;
  on.environment.sampled = true;
  Registry on_registry;
  on.environment.metrics = &on_registry;
  harness::run_chaos_experiment(on);
  EXPECT_GT(on_registry.counter_value("membership_anti_entropy_rounds_total"),
            0u);
  EXPECT_GT(on_registry.counter_value("membership_cache_updates_total",
                                      {{"rule", "direct"}}), 0u);
}

// The adversary capture layer (DESIGN §10) is off unless an experiment
// installs a LinkTap: spelling the null tap out changes nothing, and —
// stronger — installing a real observer still changes nothing, because the
// tap only records (own RNG stream, no scheduling, no protocol writes).
TEST(OffMeansOffTest, LinkObserverOffIsByteIdenticalAndOnIsPassive) {
  const auto baseline = harness::run_chaos_experiment(tiny_chaos(3));

  harness::ChaosConfig spelled = tiny_chaos(3);
  spelled.environment.link_tap = nullptr;
  Registry registry;
  spelled.environment.metrics = &registry;
  const auto off = harness::run_chaos_experiment(spelled);
  EXPECT_EQ(baseline.fingerprint(), off.fingerprint());
  EXPECT_EQ(registry.counter_value("adversary_flows_total",
                                   {{"dir", "send"}}), 0u);

  harness::ChaosConfig tapped = tiny_chaos(3);
  adversary::LinkObserver observer;
  tapped.environment.link_tap = &observer;
  const auto on = harness::run_chaos_experiment(tapped);
  EXPECT_EQ(baseline.fingerprint(), on.fingerprint());
  EXPECT_GT(observer.log().appended(), 0u);
}

// The overload-resilience stack (DESIGN §13) — workload engine, bounded
// relay queues, shedding, backpressure, session send bound — ships default
// OFF. Spelling the workload engine and OverloadPolicy::kOff out must be
// byte-identical to the baseline, with all overload series flat at zero.
TEST(OffMeansOffTest, WorkloadAndOverloadKnobsOffAreByteIdentical) {
  const auto baseline = harness::run_chaos_experiment(tiny_chaos(3));

  harness::ChaosConfig spelled = tiny_chaos(3);
  spelled.workload = workload::WorkloadConfig{};
  spelled.environment.router.overload = anon::OverloadPolicy::kOff;
  spelled.environment.sampled = false;
  Registry registry;
  spelled.environment.metrics = &registry;
  const auto off = harness::run_chaos_experiment(spelled);

  EXPECT_EQ(baseline.fingerprint(), off.fingerprint());
  // Nothing was shed, refused, signalled, or deferred anywhere.
  for (const char* cls : {"bulk", "streaming", "interactive", "control"}) {
    EXPECT_EQ(registry.counter_value("anon_overload_sheds_total",
                                     {{"class", cls}}), 0u) << cls;
  }
  EXPECT_EQ(registry.counter_value("anon_backpressure_signals_total"), 0u);
  for (const char* cause : {"queue_full", "bulk_headroom", "congested_path"}) {
    EXPECT_EQ(registry.counter_value("session_sheds_total",
                                     {{"cause", cause}}), 0u) << cause;
  }
  EXPECT_EQ(registry.counter_value("session_backpressure_total",
                                   {{"event", "received"}}), 0u);
  EXPECT_EQ(registry.counter_value("session_backpressure_total",
                                   {{"event", "stall_suppressed"}}), 0u);
  EXPECT_EQ(off.relay_sheds_bulk + off.relay_sheds_streaming +
                off.relay_sheds_interactive + off.relay_sheds_control +
                off.backpressure_signals +
                off.session_messages_shed + off.session_segments_deferred +
                off.session_backpressure_rx + off.session_stalls_suppressed,
            0u);

  // The knobs are not dead: the same seed with the workload engine and the
  // overload sweep's shed arm on, sampled, actually sheds and records
  // filled relay queues (the fingerprint is free to differ — the traffic
  // changes).
  harness::ChaosConfig on = tiny_chaos(1);  // seed 3 constructs slowly here
  on.measure = 10 * kMinute;
  on.session.path_fail_threshold = 40;
  on.workload.enabled = true;
  on.workload.shape = workload::LoadShape::kFlashCrowd;
  on.workload.mean_interarrival = 250 * kMillisecond;
  on.environment.router.overload = anon::OverloadPolicy::kShed;
  on.environment.sampled = true;
  Registry on_registry;
  TimeseriesRecorder recorder(on_registry);
  on.environment.metrics = &on_registry;
  on.environment.timeseries = &recorder;
  const auto shed = harness::run_chaos_experiment(on);
  EXPECT_GT(shed.relay_sheds_bulk + shed.relay_sheds_streaming +
                shed.relay_sheds_interactive,
            0u);
  EXPECT_EQ(shed.relay_sheds_control, 0u);
  const TimeseriesRecorder::Series* max_level =
      recorder.find("anon_overload_max_level_bp");
  ASSERT_NE(max_level, nullptr);
  EXPECT_TRUE(std::any_of(max_level->windows.begin(), max_level->windows.end(),
                          [](const TimeseriesWindow& window) {
                            return window.value > 0.0;
                          }));
}

}  // namespace
}  // namespace p2panon::obs

// General simulation driver: the repo's swiss-army CLI. Configure the
// network, churn, protocol and mix choice from flags; get the paper's four
// metrics (setup success, durability, latency, bandwidth) for that single
// configuration.
//
//   ./build/examples/simulate --protocol simera --k 4 --r 2 --mix biased
//       --nodes 512 --median 1800 --seeds 5
//
// This is the fastest way to explore parameterizations the paper's tables
// don't cover (and what bench/table*_ binaries are specializations of).
#include <cstdio>
#include <string>

#include "anon/protocols.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "harness/durability_experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/path_setup_experiment.hpp"

using namespace p2panon;
using namespace p2panon::harness;

int main(int argc, char** argv) {
  FlagSet flags;
  auto& protocol = flags.add_string("protocol", "simera",
                                    "curmix | simrep | simera");
  auto& k = flags.add_int("k", 4, "paths (simera)");
  auto& r = flags.add_int("r", 2, "replication factor (simrep/simera)");
  auto& mix = flags.add_string("mix", "biased", "random | biased");
  auto& nodes = flags.add_int("nodes", 512, "network size");
  auto& median = flags.add_double("median", 3600.0,
                                  "median session length (seconds)");
  auto& distribution = flags.add_string(
      "distribution", "", "override: pareto:...|exp:...|uniform:...");
  auto& path_len = flags.add_int("L", 3, "relays per path");
  auto& message = flags.add_int("message", 1024, "message size (bytes)");
  auto& interval = flags.add_double("interval", 10.0,
                                    "seconds between messages");
  auto& seeds = flags.add_int("seeds", 5, "durability runs to average");
  auto& seed = flags.add_int("seed", 1, "base RNG seed");
  auto& setup_events = flags.add_int(
      "setup-events", 1000, "approximate construction probes for the setup "
                            "success metric (0 = skip)");
  flags.parse(argc, argv);

  const anon::MixChoice mix_choice =
      to_lower(mix) == "random" ? anon::MixChoice::kRandom
                                : anon::MixChoice::kBiased;
  anon::ProtocolSpec spec;
  const std::string kind = to_lower(protocol);
  if (kind == "curmix") {
    spec = anon::ProtocolSpec::curmix(mix_choice);
  } else if (kind == "simrep") {
    spec = anon::ProtocolSpec::simrep(static_cast<std::size_t>(r),
                                      mix_choice);
  } else if (kind == "simera") {
    spec = anon::ProtocolSpec::simera(static_cast<std::size_t>(k),
                                      static_cast<std::size_t>(r),
                                      mix_choice);
  } else {
    std::fprintf(stderr, "unknown --protocol %s\n", protocol.c_str());
    return 1;
  }

  EnvironmentConfig env_config;
  env_config.num_nodes = static_cast<std::size_t>(nodes);
  env_config.seed = static_cast<std::uint64_t>(seed);
  env_config.path_length = static_cast<std::size_t>(path_len);
  env_config.session_distribution =
      distribution.empty() ? "pareto:median=" + format_double(median, 0)
                           : distribution;

  std::printf("protocol %s, %lld nodes, sessions %s, L = %lld\n",
              spec.name().c_str(), static_cast<long long>(nodes),
              env_config.session_distribution.c_str(),
              static_cast<long long>(path_len));

  if (setup_events > 0) {
    PathSetupConfig setup;
    setup.environment = env_config;
    // Scale event density to hit roughly the requested probe count.
    setup.event_interarrival_seconds =
        static_cast<double>(nodes) * 0.5 * 3600.0 /
        static_cast<double>(setup_events);
    setup.specs = {spec};
    const auto result = run_path_setup_experiment(setup);
    std::printf("path setup success: %.2f%% over %llu events "
                "(availability %.3f)\n",
                result.success[0].percent(),
                static_cast<unsigned long long>(result.events),
                result.availability);
  }

  DurabilityConfig durability;
  durability.environment = env_config;
  durability.spec = spec;
  durability.message_size = static_cast<std::size_t>(message);
  durability.send_interval = from_seconds(interval);
  const auto avg = run_durability_average(
      durability, static_cast<std::size_t>(seeds),
      worker_threads());
  std::printf(
      "durability: %.0f s (cap 3600)\n"
      "construction attempts: %.1f\n"
      "latency: %.0f ms\n"
      "bandwidth per delivered message: %.1f KB\n"
      "delivery rate while measured: %.1f%%\n",
      avg.durability_seconds, avg.construct_attempts, avg.latency_ms,
      avg.bandwidth_kb, 100.0 * avg.delivery_rate);
  return 0;
}

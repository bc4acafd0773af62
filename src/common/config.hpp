// Tiny command-line flag parser for bench and example binaries.
//
// Usage:
//   FlagSet flags;
//   auto& seed = flags.add_int("seed", 1, "RNG seed");
//   auto& nodes = flags.add_int("nodes", 1024, "network size");
//   flags.parse(argc, argv);   // accepts --name=value and --name value
//
// A bad flag prints the error and the usage and exits(2); `--help` prints
// the usage and exits(0). Scale-down for CI is supported uniformly through
// the P2PANON_BENCH_SCALE environment variable, exposed by `bench_scale()`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace p2panon {

class FlagSet {
 public:
  std::int64_t& add_int(const std::string& name, std::int64_t def,
                        const std::string& help);
  double& add_double(const std::string& name, double def,
                     const std::string& help);
  bool& add_bool(const std::string& name, bool def, const std::string& help);
  std::string& add_string(const std::string& name, const std::string& def,
                          const std::string& help);

  /// Parses argv; on --help prints usage and std::exit(0). An unknown
  /// flag, a missing value or a malformed value prints the error and the
  /// usage to stderr and std::exit(2).
  void parse(int argc, char** argv);

  std::string usage(const std::string& program) const;

 private:
  enum class Kind { Int, Double, Bool, String };
  struct Flag {
    Kind kind;
    std::string help;
    std::int64_t int_value = 0;
    double double_value = 0;
    bool bool_value = false;
    std::string string_value;
  };
  /// False when `value` does not parse as the flag's kind.
  static bool set_from_string(Flag& flag, const std::string& value);
  std::map<std::string, Flag> flags_;
};

/// Scale factor in (0, 1] read from P2PANON_BENCH_SCALE; benches multiply
/// their event counts / durations by this so CI can run them quickly.
double bench_scale();

/// Seeds per cell of a seeded sweep after the bench_scale() scale-down:
/// max(1, seeds x bench_scale()).
std::size_t scaled_runs(std::int64_t seeds);

/// Every flag of the most recently parse()d FlagSet in this process,
/// rendered name -> final value (defaults included). The --json bench
/// exporter embeds this in each report's provenance manifest so a committed
/// baseline records exactly the run configuration that produced it. Empty
/// until the first parse().
const std::map<std::string, std::string>& last_parsed_flags();

}  // namespace p2panon

// Figure 4: total bandwidth cost (KB) to deliver a 1 KB message vs k, for
// r in {2, 3, 4} at pa = 0.70, L = 3.
//
// Methodology: Monte-Carlo over the Bernoulli path model using the real
// wire sizes of the protocol (anon/wire.hpp: the Payload frame header, one
// AEAD layer per remaining relay, the sealed core around the payload-core
// header, and Demux's channel byte; identical between RealOnionCodec and
// FastOnionCodec). A surviving path carries its segment across all L+1
// hops; a path that died carries it part-way (uniform over hops). Costs
// are averaged over trials where the responder reconstructs (>= k/r paths
// alive), matching the paper's "bandwidth cost of successful routing". The
// curves grow with k because each extra path adds fixed per-message
// framing, and are ordered by r because the payload cost is
// |M| * r * (L + 1).
#include <cstdio>

#include "analysis/path_model.hpp"
#include "anon/wire.hpp"
#include "common/config.hpp"
#include "metrics/summary.hpp"
#include "metrics/table.hpp"
#include "net/demux.hpp"
#include "obs/export.hpp"

using namespace p2panon;
using namespace p2panon::analysis;

namespace {

// Bytes one path puts on the wire over its first `hops` hops: its Payload
// frames, each behind Demux's channel byte. The model sends one message
// per path, which is always that path's first core and so always sealed;
// later cores on a path the responder has answered are keyed and 32 bytes
// shorter, which this figure leaves out. The segment, |M| / m, need not be
// whole, and a frame's size is linear in it, so it is added per hop to the
// frames of an empty segment.
double path_bytes(double segment_bytes, std::size_t L, std::size_t hops) {
  constexpr std::size_t kEmptySealedCore =
      anon::wire::kCoreHeaderSize + anon::wire::kBoxOverhead;
  const std::size_t empty_frames =
      anon::wire::payload_path_bytes(kEmptySealedCore, L, hops);
  return static_cast<double>(empty_frames) +
         static_cast<double>(hops) *
             (segment_bytes + net::Demux::kChannelByteSize);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  auto& trials = flags.add_int("trials", 100000, "Monte-Carlo trials per point");
  auto& seed = flags.add_int("seed", 1, "RNG seed");
  auto& pa = flags.add_double("availability", 0.70, "node availability");
  auto& L = flags.add_int("L", 3, "relays per path");
  auto& msg = flags.add_int("message", 1024, "message size (bytes)");
  auto& k_max = flags.add_int("kmax", 20, "max number of paths");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse(argc, argv);
  const auto mc_trials = static_cast<std::size_t>(
      static_cast<double>(trials) * bench_scale());

  Rng rng(static_cast<std::uint64_t>(seed));
  const auto path_len = static_cast<std::size_t>(L);
  const double p = path_success_probability(pa, path_len);

  std::printf("# Figure 4: bandwidth cost (KB) vs k for r in {2, 3, 4}, "
              "pa = %.2f, L = %zu, |M| = %lld B\n",
              pa, path_len, static_cast<long long>(msg));
  metrics::Series series("k", {"r=2", "r=3", "r=4"});
  for (std::size_t k = 2; k <= static_cast<std::size_t>(k_max); k += 2) {
    std::vector<double> row;
    for (const std::size_t r : {2u, 3u, 4u}) {
      const std::size_t k_valid = (k / r) * r;
      if (k_valid == 0) {
        row.push_back(0.0);
        continue;
      }
      const std::size_t m = k_valid / r;  // SimEra(k, r): one segment/path
      const double segment_bytes =
          static_cast<double>(msg) / static_cast<double>(m);
      const std::size_t need = m;  // k/r paths
      metrics::Summary cost;
      for (std::size_t t = 0; t < mc_trials; ++t) {
        std::size_t alive = 0;
        double bytes = 0.0;
        for (std::size_t j = 0; j < k_valid; ++j) {
          if (rng.bernoulli(p)) {
            ++alive;
            bytes += path_bytes(segment_bytes, path_len, path_len + 1);
          } else {
            // Died part-way: uniform over the first L hops.
            const auto hops = static_cast<std::size_t>(
                rng.next_below(path_len + 1));
            bytes += path_bytes(segment_bytes, path_len, hops);
          }
        }
        if (alive >= need) cost.add(bytes);
      }
      row.push_back(cost.count() ? cost.mean() / 1024.0 : 0.0);
    }
    series.add(static_cast<double>(k), row);
  }
  std::printf("%s\n", series.render(3).c_str());
  std::printf("Expected (paper): curves ordered r = 4 > 3 > 2, growing "
              "mildly with k (per-path framing), r = 4 reaching ~11-12 KB "
              "at k = 20 for a 1 KB message.\n");
  obs::BenchReport report("fig4_bandwidth");
  report.add("trials", static_cast<std::uint64_t>(mc_trials));
  report.add_section("bandwidth_kb", series.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}

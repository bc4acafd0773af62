// Microbenchmarks: crypto substrate and onion-layer operations.
//
// Two modes:
//   * default: google-benchmark suite, including a per-kernel series for
//     every ChaCha20 keystream-kernel variant the host can run (ref =
//     one-block scalar, wide4, ssse3, avx2) and size arms at 64 B / 8 KiB /
//     64 KiB for the AEAD and onion-layer data plane;
//   * --json <path>: hand-rolled timing harness that writes a BenchReport
//     document (same shape as micro_erasure's --json) with ChaCha20 /
//     AEAD / onion-layer throughput, the speedup of the dispatched ChaCha20
//     kernel over the in-binary scalar reference, the heap-allocation
//     count of the pooled in-place relay path (0 in steady state; the
//     counting operator new hooks are linked into this binary), and the
//     per-call time of X25519, its fixed-base form and both sealed-box
//     directions, plus the fixed-base speedup over the ladder on u = 9.
//     CI diffs this against the committed BENCH_crypto.json baseline.
//
// Benchmarks use the out-of-place chacha20_xor so every iteration sees the
// same plaintext (the old in-place loop re-encrypted its own output, so the
// input drifted every iteration), and SetBytesProcessed always derives from
// the actual buffer size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "anon/buffer_pool.hpp"
#include "anon/onion.hpp"
#include "common/alloc_probe.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/sealed_box.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "obs/export.hpp"

namespace {

using namespace p2panon;
using namespace p2panon::crypto;
using crypto_detail::Kernel;

// The relay data plane's operating point: one 8 KiB erasure segment.
constexpr std::size_t kSegmentBytes = 8192;

void BM_Sha256(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Bytes data(size);
  rng.fill(data.data(), data.size());
  for (auto _ : state) {
    auto digest = Sha256::hash(data);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_ChaCha20(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  Bytes src(size), dst(size);
  rng.fill(src.data(), src.size());
  for (auto _ : state) {
    chacha20_xor(key, nonce_from_seq(1), 0, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(chacha20_kernel_name());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(1024)->Arg(8192)->Arg(65536);

void ChaChaKernelArgs(benchmark::internal::Benchmark* b) {
  for (std::size_t k = 0; k < crypto_detail::kAllKernels.size(); ++k) {
    if (!crypto_detail::kernel_available(crypto_detail::kAllKernels[k])) {
      continue;
    }
    for (long size : {1024L, 8192L, 65536L}) {
      b->Args({static_cast<long>(k), size});
    }
  }
}

void BM_ChaCha20Kernel(benchmark::State& state) {
  const auto kernel =
      crypto_detail::kAllKernels[static_cast<std::size_t>(state.range(0))];
  const auto size = static_cast<std::size_t>(state.range(1));
  Rng rng(2);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  Bytes src(size), dst(size);
  rng.fill(src.data(), src.size());
  for (auto _ : state) {
    crypto_detail::chacha20_xor(kernel, key, nonce_from_seq(1), 0, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(crypto_detail::kernel_label(kernel));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ChaCha20Kernel)->Apply(ChaChaKernelArgs);

void BM_AeadSeal(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  Bytes data(size);
  rng.fill(data.data(), data.size());
  std::uint64_t seq = 0;
  for (auto _ : state) {
    auto sealed = aead_seal(key, nonce_from_seq(seq++), {}, data);
    benchmark::DoNotOptimize(sealed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(8192)->Arg(65536);

void BM_AeadSealInto(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  Bytes plain(size);
  rng.fill(plain.data(), plain.size());
  Bytes buf(size + kAeadTagSize);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    std::copy(plain.begin(), plain.end(), buf.begin());
    aead_seal_into(key, nonce_from_seq(seq++), {}, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_AeadSealInto)->Arg(64)->Arg(8192)->Arg(65536);

void BM_X25519(benchmark::State& state) {
  Rng rng(4);
  const KeyPair a = KeyPair::generate(rng);
  const KeyPair b = KeyPair::generate(rng);
  for (auto _ : state) {
    auto shared = x25519(a.private_key, b.public_key);
    benchmark::DoNotOptimize(shared.data());
  }
}
BENCHMARK(BM_X25519);

// The ephemeral keygen of every sealed box: the fixed-base comb.
void BM_X25519Base(benchmark::State& state) {
  Rng rng(4);
  const KeyPair a = KeyPair::generate(rng);
  for (auto _ : state) {
    auto pub = x25519_base(a.private_key);
    benchmark::DoNotOptimize(pub.data());
  }
}
BENCHMARK(BM_X25519Base);

void BM_SealedBoxSeal(benchmark::State& state) {
  Rng rng(5);
  const KeyPair recipient = KeyPair::generate(rng);
  Bytes msg(1024);
  rng.fill(msg.data(), msg.size());
  for (auto _ : state) {
    auto sealed = sealed_box_seal(recipient.public_key, msg, rng);
    benchmark::DoNotOptimize(sealed.data());
  }
}
BENCHMARK(BM_SealedBoxSeal);

void BM_SealedBoxOpen(benchmark::State& state) {
  Rng rng(5);
  const KeyPair recipient = KeyPair::generate(rng);
  Bytes msg(1024);
  rng.fill(msg.data(), msg.size());
  const Bytes sealed = sealed_box_seal(recipient.public_key, msg, rng);
  for (auto _ : state) {
    auto opened = sealed_box_open(recipient, sealed);
    benchmark::DoNotOptimize(opened);
  }
}
BENCHMARK(BM_SealedBoxOpen);

template <typename Codec>
void BM_BuildPathOnion(benchmark::State& state) {
  Rng rng(6);
  KeyDirectory directory;
  auto keys = directory.provision(8, rng);
  const Codec codec;
  const std::vector<NodeId> relays = {1, 2, 3};
  std::vector<anon::RelayKey> relay_keys;
  for (int i = 0; i < 3; ++i) relay_keys.push_back(random_symmetric_key(rng));
  for (auto _ : state) {
    auto onion = codec.build_path_onion(relays, relay_keys, 7, directory, rng);
    benchmark::DoNotOptimize(onion.data());
  }
}
BENCHMARK(BM_BuildPathOnion<anon::RealOnionCodec>)->Name("BM_BuildPathOnion/real");
BENCHMARK(BM_BuildPathOnion<anon::FastOnionCodec>)->Name("BM_BuildPathOnion/fast");

// The relay hot loop: pooled buffer, peel one layer in place, re-wrap.
template <typename Codec>
void BM_RelayLayerInPlace(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const Codec codec;
  const anon::RelayKey key = random_symmetric_key(rng);
  Bytes segment(size);
  rng.fill(segment.data(), segment.size());
  const Bytes wire = codec.wrap_layer(key, 21, segment);
  anon::BufferPool pool;
  { anon::PooledBytes warm(pool, wire.size() + codec.layer_overhead()); }
  for (auto _ : state) {
    anon::PooledBytes buf(pool, wire.size() + codec.layer_overhead());
    buf->assign(wire.begin(), wire.end());
    const bool ok = codec.unwrap_layer_in_place(key, 21, *buf);
    benchmark::DoNotOptimize(ok);
    codec.wrap_layer_in_place(key, 21, *buf);
    benchmark::DoNotOptimize(buf->data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_RelayLayerInPlace<anon::RealOnionCodec>)
    ->Name("BM_RelayLayerInPlace/real")
    ->Arg(64)
    ->Arg(8192)
    ->Arg(65536);
BENCHMARK(BM_RelayLayerInPlace<anon::FastOnionCodec>)
    ->Name("BM_RelayLayerInPlace/fast")
    ->Arg(64)
    ->Arg(8192)
    ->Arg(65536);

// --- --json report mode ----------------------------------------------------

template <class Fn>
double measure_bytes_per_sec(std::size_t bytes_per_call, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup (also primes dispatch and pools)
  double best = 0.0;
  std::size_t iters = 1;
  for (int rep = 0; rep < 3; ++rep) {
    for (;;) {
      const auto t0 = clock::now();
      for (std::size_t i = 0; i < iters; ++i) fn();
      const double secs =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (secs >= 0.05) {
        best = std::max(best, static_cast<double>(iters) *
                                  static_cast<double>(bytes_per_call) / secs);
        break;
      }
      iters = secs <= 0.0
                  ? iters * 8
                  : std::max(iters * 2,
                             static_cast<std::size_t>(
                                 static_cast<double>(iters) * 0.06 / secs) +
                                 1);
    }
  }
  return best;
}

int run_json_report(const std::string& path) {
  obs::BenchReport report("micro_crypto");
  report.add_text("active_kernel", chacha20_kernel_name());
  report.add("segment_bytes", static_cast<std::uint64_t>(kSegmentBytes));

  Rng rng(42);
  ChaChaKey key;
  rng.fill(key.data(), key.size());
  const ChaChaNonce nonce = nonce_from_seq(1);

  // Per-kernel keystream throughput (plus a size series for each variant).
  Bytes src(kSegmentBytes), dst(kSegmentBytes);
  rng.fill(src.data(), src.size());
  std::string series = "[";
  bool first_entry = true;
  double ref_bps = 0.0;
  for (Kernel kernel : crypto_detail::kAllKernels) {
    if (!crypto_detail::kernel_available(kernel)) continue;
    const std::string label = crypto_detail::kernel_label(kernel);
    const double mbps =
        measure_bytes_per_sec(kSegmentBytes, [&] {
          crypto_detail::chacha20_xor(kernel, key, nonce, 0, src, dst);
          benchmark::DoNotOptimize(dst.data());
        }) /
        1e6;
    if (kernel == Kernel::kRef) ref_bps = mbps * 1e6;
    report.add("chacha20_MBps_" + label, mbps);
    for (std::size_t size : {64u, 1024u, 8192u, 65536u}) {
      Bytes s(size), d(size);
      rng.fill(s.data(), s.size());
      const double series_bps = measure_bytes_per_sec(size, [&] {
        crypto_detail::chacha20_xor(kernel, key, nonce, 0, s, d);
        benchmark::DoNotOptimize(d.data());
      });
      if (!first_entry) series += ',';
      first_entry = false;
      series += "{\"kernel\":\"" + label +
                "\",\"size\":" + std::to_string(size) +
                ",\"MBps\":" + std::to_string(series_bps / 1e6) + "}";
    }
  }
  series += "]";
  report.add_section("kernel_series", std::move(series));

  // Dispatched-kernel throughput and speedup over the in-binary scalar
  // reference (the pre-batching data plane) at the operating point.
  const double chacha_bps = measure_bytes_per_sec(kSegmentBytes, [&] {
    chacha20_xor(key, nonce, 0, src, dst);
    benchmark::DoNotOptimize(dst.data());
  });
  report.add("chacha20_MBps", chacha_bps / 1e6);
  report.add("chacha20_scalar_baseline_MBps", ref_bps / 1e6);
  report.add("chacha20_speedup", chacha_bps / ref_bps);

  // AEAD data plane (plaintext restored every call so inputs never drift).
  Bytes plain(kSegmentBytes);
  rng.fill(plain.data(), plain.size());
  Bytes sealed_buf(kSegmentBytes + kAeadTagSize);
  const double seal_bps = measure_bytes_per_sec(kSegmentBytes, [&] {
    std::copy(plain.begin(), plain.end(), sealed_buf.begin());
    aead_seal_into(key, nonce, {}, sealed_buf);
    benchmark::DoNotOptimize(sealed_buf.data());
  });
  std::copy(plain.begin(), plain.end(), sealed_buf.begin());
  aead_seal_into(key, nonce, {}, sealed_buf);
  Bytes open_buf = sealed_buf;
  const double open_bps = measure_bytes_per_sec(kSegmentBytes, [&] {
    open_buf = sealed_buf;  // restore ciphertext (capacity is warm)
    const bool ok = aead_open_into(key, nonce, {}, open_buf);
    benchmark::DoNotOptimize(ok);
  });
  report.add("aead_seal_MBps", seal_bps / 1e6);
  report.add("aead_open_MBps", open_bps / 1e6);

  // Pooled in-place relay path: throughput plus the heap-allocation count
  // per relayed segment in steady state (the zero-alloc acceptance gate).
  anon::RealOnionCodec codec;
  const anon::RelayKey relay_key = random_symmetric_key(rng);
  Bytes segment(kSegmentBytes);
  rng.fill(segment.data(), segment.size());
  const Bytes wire = codec.wrap_layer(relay_key, 21, segment);
  anon::BufferPool pool;
  { anon::PooledBytes warm(pool, wire.size() + codec.layer_overhead()); }
  const auto relay_once = [&] {
    anon::PooledBytes buf(pool, wire.size() + codec.layer_overhead());
    buf->assign(wire.begin(), wire.end());
    const bool ok = codec.unwrap_layer_in_place(relay_key, 21, *buf);
    benchmark::DoNotOptimize(ok);
    codec.wrap_layer_in_place(relay_key, 21, *buf);
    benchmark::DoNotOptimize(buf->data());
  };
  const double relay_bps = measure_bytes_per_sec(kSegmentBytes, relay_once);
  report.add("relay_layer_MBps", relay_bps / 1e6);

  constexpr std::uint64_t kProbeRounds = 64;
  const std::uint64_t allocs_before = alloc_probe::allocations();
  for (std::uint64_t i = 0; i < kProbeRounds; ++i) relay_once();
  const std::uint64_t allocs_after = alloc_probe::allocations();
  report.add("alloc_probe_active",
             static_cast<std::uint64_t>(alloc_probe::active() ? 1 : 0));
  report.add("relay_path_allocs",
             (allocs_after - allocs_before) / kProbeRounds);

  // Asymmetric path, in microseconds per call: the variable-base ladder,
  // the fixed-base comb, and the sealed box that pays one of each to seal
  // and one ladder to open. The comb's speedup is over the ladder on the
  // same base point (u = 9), measured in this run. Every call is timed once
  // per round and keeps its fastest round, so a burst of host load lands
  // on both sides of the ratio alike.
  const KeyPair alice = KeyPair::generate(rng);
  const KeyPair bob = KeyPair::generate(rng);
  X25519Key nine{};
  nine[0] = 9;
  Bytes box_plain(1024);
  rng.fill(box_plain.data(), box_plain.size());
  const Bytes box = sealed_box_seal(bob.public_key, box_plain, rng);
  enum { kDh, kLadderBase, kCombBase, kSeal, kOpen, kTimedCalls };
  const std::function<void()> calls[kTimedCalls] = {
      [&] {
        const X25519Key shared = x25519(alice.private_key, bob.public_key);
        benchmark::DoNotOptimize(shared.data());
      },
      [&] {
        const X25519Key pub = x25519(alice.private_key, nine);
        benchmark::DoNotOptimize(pub.data());
      },
      [&] {
        const X25519Key pub = x25519_base(alice.private_key);
        benchmark::DoNotOptimize(pub.data());
      },
      [&] {
        const Bytes sealed = sealed_box_seal(bob.public_key, box_plain, rng);
        benchmark::DoNotOptimize(sealed.data());
      },
      [&] {
        const auto opened = sealed_box_open(bob, box);
        benchmark::DoNotOptimize(opened);
      },
  };
  double us[kTimedCalls];
  std::fill(std::begin(us), std::end(us),
            std::numeric_limits<double>::infinity());
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < kTimedCalls; ++i) {
      us[i] = std::min(us[i], 1e6 / measure_bytes_per_sec(1, calls[i]));
    }
  }
  report.add("x25519_us", us[kDh]);
  report.add("x25519_base_us", us[kCombBase]);
  report.add("x25519_base_speedup", us[kLadderBase] / us[kCombBase]);
  report.add("sealed_box_seal_us", us[kSeal]);
  report.add("sealed_box_open_us", us[kOpen]);

  return report.write_if_requested(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json <path> / --json=<path>; everything else goes to
  // google-benchmark. When --json is given, only the report harness runs.
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

#!/usr/bin/env python3
"""Gate onion-crypto data-plane throughput against the committed baseline.

Usage: check_bench_crypto.py <fresh.json> <baseline.json>

Both files are micro_crypto --json reports. Fails (exit 1) when:
  * the dispatched ChaCha20 kernel is not at least 3x the in-binary
    scalar reference, or the fixed-base X25519 comb is not at least 2.5x
    the variable-base ladder on the same base point (u = 9); both are
    measured in the same run (same-host ratios, so it is safe to gate
    them absolutely; see SPEEDUP_FLOORS);
  * the pooled in-place relay path performed any heap allocations per
    segment (the zero-allocation acceptance gate; requires the counting
    alloc-probe hooks to be linked, asserted via alloc_probe_active);
  * any gated throughput metric drops below THRESHOLD times the committed
    baseline, or any gated per-call time rises above the baseline divided
    by THRESHOLD (the same 20% loss of calls per second). Only relative
    regressions are gated -- absolute numbers vary across CI hosts, so the
    baseline is only meaningful when produced on comparable hardware; the
    20% slack absorbs normal noise.
"""

import json
import sys

# (key, unit, higher is better). Per-call times are held to the same 20%
# loss of calls per second as throughputs: a ceiling of baseline / THRESHOLD.
GATED_KEYS = [
    ("chacha20_MBps", "MB/s", True),
    ("aead_seal_MBps", "MB/s", True),
    ("aead_open_MBps", "MB/s", True),
    ("relay_layer_MBps", "MB/s", True),
    ("x25519_us", "us", False),
    ("x25519_base_us", "us", False),
    ("sealed_box_seal_us", "us", False),
    ("sealed_box_open_us", "us", False),
]
THRESHOLD = 0.8
# Same-run ratios: (key, what it is measured against, floor).
SPEEDUP_FLOORS = [
    ("chacha20_speedup", "scalar reference", 3.0),
    ("x25519_base_speedup", "ladder on u = 9", 2.5),
]


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("bench") != "micro_crypto":
        raise SystemExit(f"{path}: not a micro_crypto report")
    return doc["values"]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh = load(argv[1])
    base = load(argv[2])
    failures = []

    for key, reference, floor in SPEEDUP_FLOORS:
        speedup = float(fresh.get(key, 0.0))
        status = "ok" if speedup >= floor else "FAIL"
        print(f"{key}: {speedup:.2f}x vs {reference} "
              f"(floor {floor:.1f}x) -> {status}")
        if speedup < floor:
            failures.append(f"{key}: {speedup:.2f} < {floor:.1f}")

    if int(fresh.get("alloc_probe_active", 0)) != 1:
        failures.append("alloc_probe_active != 1: counting hooks not linked, "
                        "relay_path_allocs is meaningless")
    allocs = int(fresh.get("relay_path_allocs", -1))
    status = "ok" if allocs == 0 else "FAIL"
    print(f"relay_path_allocs: {allocs} per segment -> {status}")
    if allocs != 0:
        failures.append(f"relay_path_allocs: {allocs} != 0")

    for key, unit, higher in GATED_KEYS:
        if key not in fresh:
            failures.append(f"{key}: missing from {argv[1]}")
            continue
        if key not in base:
            print(f"{key}: not in baseline, skipping")
            continue
        got, was = float(fresh[key]), float(base[key])
        bound = THRESHOLD * was if higher else was / THRESHOLD
        ok = got >= bound if higher else got <= bound
        print(f"{key}: {got:.1f} {unit} vs {'floor' if higher else 'ceiling'} "
              f"{bound:.1f} {unit} (baseline {was:.1f}) -> "
              f"{'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(
                f"{key}: {got:.1f} {unit} past the "
                f"{'floor' if higher else 'ceiling'} {bound:.1f} "
                f"(baseline {was:.1f})")
    if failures:
        print("FAIL:", "; ".join(failures), file=sys.stderr)
        return 1
    print("crypto bench throughput within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Gate the capacity scale probe (BENCH_scale.json / fresh CI runs).

Usage: check_bench_scale.py <scale.json> [<scale2.json> ...]

Each file is a scale_probe --json report (any size/scenario subset: the
committed full sweep or the CI smoke at N=1k/2k). Fails (exit 1) when:

  * any arm's event throughput is below EVENTS_PER_SEC_FLOOR -- the
    simulator must keep pushing events at scale, not just survive;
  * any arm's census bytes-per-node exceeds the linear-budget model
    PER_NODE_BASE + PER_NODE_PAIR * N (per-node state may grow linearly
    in N because of the known O(N^2) structure, but the per-pair
    coefficient is capped);
  * the largest arm's peak RSS exceeds RSS_FACTOR * its census total plus
    RSS_BASE of process slack -- actual process memory must stay
    explainable by the structures the census can see;
  * the superlinear-growth detector flags a subsystem NOT on the known
    O(N^2) list (membership, whose N caches hold N entries each) -- a new
    quadratic structure, or a latency table come back, must not sneak in
    silently;
  * the detector does NOT flag membership even though two network sizes
    are present -- i.e. the detector itself must demonstrably work;
  * any arm's measured profiler self-overhead is >= OVERHEAD_PCT_MAX of
    the measured wall time (the probe must stay cheap enough to leave on).
"""

import json
import sys

EVENTS_PER_SEC_FLOOR = 20_000.0   # conservative: 1-core CI boxes included
PER_NODE_BASE = 256 * 1024        # per-node budget: base ...
PER_NODE_PAIR = 150.0             # ... plus bytes per (node, peer) pair
RSS_FACTOR = 2.0                  # RSS explainable as 2x census ...
RSS_BASE = 500 * 1024 * 1024      # ... plus process slack (heap, code, libs)
SUPERLINEAR_SLACK = 1.30          # growth factor beyond proportional
EXPECTED_SUPERLINEAR = {"membership"}
OVERHEAD_PCT_MAX = 3.0


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("bench") != "scale_probe":
        raise SystemExit(f"{path}: not a scale_probe report")
    return doc


def arm_names(doc):
    return list(doc["sections"]["arms"])


def check_doc(path, doc, failures):
    values = doc["values"]
    arms = arm_names(doc)
    if not arms:
        failures.append(f"{path}: no arms recorded")
        return

    # Per-arm floors and ceilings.
    largest = None
    for arm in arms:
        nodes = int(values[f"{arm}_nodes"])
        eps = float(values[f"{arm}_events_per_sec"])
        per_node = float(values[f"{arm}_census_bytes_per_node"])
        overhead = float(values[f"{arm}_profiler_overhead_pct"])
        budget = PER_NODE_BASE + PER_NODE_PAIR * nodes

        status = "ok" if eps >= EVENTS_PER_SEC_FLOOR else "FAIL"
        print(f"{arm}: {eps:,.0f} events/sec "
              f"(floor {EVENTS_PER_SEC_FLOOR:,.0f}) [{status}]")
        if eps < EVENTS_PER_SEC_FLOOR:
            failures.append(f"{path}: {arm} events/sec {eps:,.0f} below "
                            f"floor {EVENTS_PER_SEC_FLOOR:,.0f}")

        status = "ok" if per_node <= budget else "FAIL"
        print(f"{arm}: {per_node:,.0f} census bytes/node "
              f"(budget {budget:,.0f} at N={nodes}) [{status}]")
        if per_node > budget:
            failures.append(f"{path}: {arm} census bytes/node {per_node:,.0f}"
                            f" over budget {budget:,.0f}")

        status = "ok" if overhead < OVERHEAD_PCT_MAX else "FAIL"
        print(f"{arm}: profiler self-overhead {overhead:.2f}% "
              f"(max {OVERHEAD_PCT_MAX}%) [{status}]")
        if overhead >= OVERHEAD_PCT_MAX:
            failures.append(f"{path}: {arm} profiler overhead {overhead:.2f}%"
                            f" >= {OVERHEAD_PCT_MAX}%")

        if largest is None or nodes > largest[1]:
            largest = (arm, nodes)

    # RSS sanity on the largest arm (peak RSS is a process-wide high-water
    # mark and arms run smallest-first, so the largest arm owns the peak).
    arm = largest[0]
    rss = float(values[f"{arm}_peak_rss_kb"]) * 1024.0
    census = float(values[f"{arm}_census_total_bytes"])
    ceiling = RSS_FACTOR * census + RSS_BASE
    status = "ok" if rss <= ceiling else "FAIL"
    print(f"{arm}: peak RSS {rss / 1e6:,.0f} MB vs ceiling "
          f"{ceiling / 1e6:,.0f} MB (2x census + slack) [{status}]")
    if rss > ceiling:
        failures.append(f"{path}: {arm} peak RSS {rss / 1e6:,.0f} MB over "
                        f"ceiling {ceiling / 1e6:,.0f} MB")

    # Superlinear growth detector, per scenario.
    scenarios = {}
    for arm in arms:
        nodes = int(values[f"{arm}_nodes"])
        scenario = arm.split("_", 1)[1]
        subsystems = {
            s["name"]: float(s["bytes"])
            for s in doc["sections"][f"{arm}_census"]["subsystems"]
        }
        scenarios.setdefault(scenario, []).append((nodes, subsystems))

    for scenario, series in scenarios.items():
        series.sort()
        if len(series) < 2:
            print(f"{scenario}: single size, superlinear detector skipped")
            continue
        (n1, sub1), (n2, sub2) = series[-2], series[-1]
        ratio_n = n2 / n1
        flagged = set()
        for name in sorted(set(sub1) & set(sub2)):
            if sub1[name] <= 0:
                continue
            growth = sub2[name] / sub1[name]
            if growth > SUPERLINEAR_SLACK * ratio_n:
                flagged.add(name)
                print(f"{scenario}: {name} superlinear "
                      f"(x{growth:.2f} for x{ratio_n:.0f} nodes)")
        unexpected = flagged - EXPECTED_SUPERLINEAR
        if unexpected:
            failures.append(f"{path}: {scenario} unexpected superlinear "
                            f"growth in {sorted(unexpected)}")
        if "membership" not in flagged:
            failures.append(f"{path}: {scenario} detector failed to flag "
                            f"the O(N^2) membership caches "
                            f"(N {n1} -> {n2})")
        else:
            print(f"{scenario}: detector correctly flags membership; "
                  f"no unexpected superlinear subsystems")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    for path in argv[1:]:
        check_doc(path, load(path), failures)
    if failures:
        print("\nFAILURES:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nscale gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

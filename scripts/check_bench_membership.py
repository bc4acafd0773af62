#!/usr/bin/env python3
"""Shape-gate a chaos_sweep --sweep membership --json report.

Usage: check_bench_membership.py <report.json>

The membership sweep drives control-plane fault scenarios (gossip
blackout, churn-invisible leader crashes, in-flight record staling,
liveness-claim inflation) through the durability harness under three
recovery arms (random mix choice, plain biased, biased + the resilience
machinery). The gated shapes are the control-plane resilience claims
(DESIGN §9):

  1. off means off: both control runs — one with the membership knobs
     left at their defaults, one with every knob spelled out as off —
     reproduce the pre-PR chaos fingerprint byte for byte;
  2. the durability floor holds: in EVERY scenario the resilient arm's
     mean durability is at least the random arm's — staleness-aware
     degradation means the recovery machinery can fall back to admitted
     ignorance, so it must never do worse than starting there;
  3. the gate is non-vacuous under gossip blackout: the headline
     acceptance cell (gossip-blackout, resilient >= random) holds and
     the blackout actually dropped gossip datagrams;
  4. failover is load-bearing: under leader-crash the resilient arm
     both re-elects (elections > 0) and strictly beats the plain biased
     arm, whose dissemination starves under the zombie leader.

Exits 0 when all shapes hold, 1 otherwise.
"""

import json
import sys

SCENARIOS = ("gossip-blackout", "leader-crash", "stale-inject",
             "claim-inflate")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("bench") != "chaos_membership_sweep":
        raise SystemExit(f"{path}: not a chaos_membership_sweep report")
    values = doc.get("values", {})
    rows = doc.get("sections", {}).get("durability")
    drops = doc.get("sections", {}).get("membership_drops")
    if not rows or not drops:
        raise SystemExit(
            f"{path}: missing 'durability' or 'membership_drops' section")
    return values, rows, drops


def durability(values, scenario, arm):
    key = f"durability_{scenario}_{arm}"
    if key not in values:
        raise SystemExit(f"missing value '{key}'")
    return float(values[key])


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    values, rows, drops = load(argv[1])
    failures = []

    # 1. Off means off: both control fingerprints match the committed
    # pre-PR baseline.
    expected = values.get("pre_pr_fingerprint")
    if not expected:
        failures.append("missing pre_pr_fingerprint")
    for key in ("control_fingerprint", "control_fingerprint_spelled"):
        if values.get(key) != expected:
            failures.append(
                f"{key} diverges from the pre-PR baseline: "
                f"{values.get(key)!r} != {expected!r}")
    if int(values.get("fingerprint_match", 0)) != 1:
        failures.append("fingerprint_match != 1")
    print(f"off-means-off: fingerprint_match="
          f"{values.get('fingerprint_match')}")

    # 2. Resilient >= random in every scenario.
    for scenario in SCENARIOS:
        random_floor = durability(values, scenario, "random")
        resilient = durability(values, scenario, "resilient")
        ok = resilient >= random_floor
        print(f"floor: {scenario:16s} resilient {resilient:8.1f}s "
              f">= random {random_floor:8.1f}s: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{scenario}: resilient durability {resilient} below the "
                f"random floor {random_floor}")

    # 3. The blackout gate is non-vacuous: gossip datagrams were dropped
    # in the gossip-blackout cells.
    blackout_drops = sum(
        int(row["gossip-blackout"]) for row in drops
        if row["scenario"] == "gossip-blackout")
    print(f"non-vacuous: {blackout_drops} gossip datagrams dropped "
          f"under blackout")
    if blackout_drops == 0:
        failures.append("gossip-blackout scenario dropped no datagrams")

    # 4. Failover is load-bearing under leader-crash.
    crash_resilient = next(
        (row for row in rows if row["scenario"] == "leader-crash" and
         row["arm"] == "resilient"), None)
    if crash_resilient is None:
        failures.append("missing leader-crash/resilient durability row")
    else:
        elections = int(crash_resilient["elections"])
        print(f"failover: {elections} elections under leader-crash")
        if elections == 0:
            failures.append("leader-crash/resilient ran no elections")
    crash_biased = durability(values, "leader-crash", "biased")
    crash_resil = durability(values, "leader-crash", "resilient")
    if crash_resil <= crash_biased:
        failures.append(
            f"leader-crash: resilient {crash_resil} does not beat plain "
            f"biased {crash_biased} — failover is not load-bearing")

    if failures:
        print(f"\nFAIL: {len(failures)} membership gate(s) violated")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: all membership control-plane gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

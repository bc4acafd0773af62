#!/usr/bin/env python3
"""Shape-gate a chaos_sweep --sweep byzantine --json report.

Usage: check_bench_byzantine.py <report.json>

The byzantine sweep reruns the corrupted-relay-quorum scenario across
per-datagram flip probabilities x protocols x defense arms and scores
every delivery against the bytes the sender actually sent. The gated
shapes are the integrity claims of the corruption-resilience extension:

  1. fail closed, always: every cell with segment auth on ("tags" and
     "tags+suspicion" arms) has delivered-wrong == 0 — at every swept
     corruption probability the responder either reconstructs the exact
     message or refuses, so the fail-closed rate of failures is 100%;
  2. the hazard is real: at least one seed-behavior ("off") cell has
     delivered-wrong > 0, i.e. the sweep actually drove corrupted bytes
     through the no-integrity codec and the comparison is non-vacuous;
  3. suspicion pays: aggregated over the sweep, SimEra with relay
     suspicion + biased mix delivers a strictly higher correct rate
     than SimEra with tags alone — quarantining the byzantine quorum
     out of rebuilt paths must recover deliveries, not just relabel
     failures;
  4. invariants hold: the violations column (conservation breaks +
     residual-state leaks + open segment ledgers) is 0 in every cell.

Exits 0 when all shapes hold, 1 otherwise.
"""

import json
import sys

TAG_ARMS = ("tags", "tags+suspicion")


def load_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("bench") != "chaos_byzantine_sweep":
        raise SystemExit(f"{path}: not a chaos_byzantine_sweep report")
    rows = doc.get("sections", {}).get("byzantine")
    if not rows:
        raise SystemExit(f"{path}: missing 'byzantine' section")
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rows = load_rows(argv[1])
    failures = []

    # 1. Fail closed in every auth cell.
    for row in rows:
        if row["arm"] in TAG_ARMS and int(row["wrong"]) != 0:
            failures.append(
                f"p={row['p_corrupt']} {row['protocol']}/{row['arm']}: "
                f"delivered {row['wrong']} wrong messages (must be 0)")
    tagged = sum(1 for row in rows if row["arm"] in TAG_ARMS)
    print(f"fail-closed: {tagged} auth cells, "
          f"{'all wrong==0' if not failures else 'VIOLATED'}")

    # 2. The baseline hazard must be observable somewhere.
    baseline_wrong = sum(int(r["wrong"]) for r in rows if r["arm"] == "off")
    print(f"baseline hazard: {baseline_wrong} wrong deliveries in the "
          f"'off' arm")
    if baseline_wrong == 0:
        failures.append("no 'off' cell delivered wrong bytes; the sweep "
                        "never exercised the corruption hazard")

    # 3. Suspicion-biased beats suspicion-off for SimEra, sweep-aggregate.
    def aggregate(arm):
        accepted = correct = 0
        for row in rows:
            if row["protocol"].startswith("simera") and row["arm"] == arm:
                accepted += int(row["accepted"])
                correct += int(row["correct"])
        return correct / accepted if accepted else 0.0

    tags_rate = aggregate("tags")
    susp_rate = aggregate("tags+suspicion")
    print(f"simera correct rate: tags {tags_rate:.4f} vs "
          f"tags+suspicion {susp_rate:.4f}")
    if susp_rate <= tags_rate:
        failures.append(
            f"suspicion-biased ({susp_rate:.4f}) does not beat "
            f"suspicion-off ({tags_rate:.4f}) for simera")

    # 4. Chaos invariants.
    bad = [r for r in rows if int(r["violations"]) != 0]
    print(f"invariants: {len(rows)} cells, {len(bad)} with violations")
    for row in bad:
        failures.append(
            f"p={row['p_corrupt']} {row['protocol']}/{row['arm']}: "
            f"{row['violations']} invariant violations")

    if failures:
        print("FAIL:", "; ".join(failures), file=sys.stderr)
        return 1
    print("byzantine sweep shape ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

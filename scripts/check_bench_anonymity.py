#!/usr/bin/env python3
"""Shape-gate a chaos_sweep --sweep anonymity --json report.

Usage: check_bench_anonymity.py <report.json>

The anonymity sweep runs a passive global observer (LinkObserver) under
three protocols (CurMix k=1, SimRep k=2, SimEra k=4) and five arms (an
insider-fraction grid f in {0.05, 0.10, 0.20}, a cover-traffic arm, and a
churn arm), then replays the captured flow log through the offline attack
engine. The gated shapes are the empirical-anonymity claims (DESIGN §10):

  1. off means off: both control runs (defaults, and the null tap spelled
     out) reproduce the pre-PR chaos fingerprint byte for byte;
  2. the wire agrees with the protocol: the predecessor attack's
     compromise rate, computed purely from flow records, matches the
     session-layer ground truth in every cell;
  3. Eq. 4 / 1-(1-f)^k tracking: across the f grid the observed
     compromise rate tracks the closed-form multipath exposure within a
     small-sample tolerance, is monotone in f, and the attacker's
     realized success is at least the Eq. 4 closed form;
  4. cover traffic is load-bearing: it strictly cuts timing-correlation
     success in every protocol and widens the intersection set;
  5. entropy ordering is sane: more paths cost anonymity (SimEra's
     posterior entropy is below the single/dual-path protocols', its
     success above theirs), and no posterior ever beats the uniform
     no-information bound.

Exits 0 when all shapes hold, 1 otherwise.
"""

import json
import sys

PROTOCOLS = ("curmix", "simrep2", "simera4")
F_GRID = ("f05", "base", "f20")
ARMS = F_GRID + ("cover", "churn")

# |observed - closed form| bound on the f grid. 36 trials x a few seeds
# per cell with nested compromise sets: binomial noise alone gives a
# std-dev of ~0.05 at f20, and seeds share insiders across arms, so
# cells are correlated. Calibrated against the committed baseline, whose
# worst cell sits near 0.06.
TRACK_TOL = 0.12
# Wire-vs-protocol agreement: same events counted two ways, so only
# trial-bookkeeping skew (e.g. a teardown racing the window edge) is
# tolerated.
AGREE_TOL = 0.02


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("bench") != "chaos_anonymity_sweep":
        raise SystemExit(f"{path}: not a chaos_anonymity_sweep report")
    return doc.get("values", {})


def value(values, stem, proto, arm):
    key = f"{stem}_{proto}_{arm}"
    if key not in values:
        raise SystemExit(f"missing value '{key}'")
    return float(values[key])


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    values = load(argv[1])
    failures = []

    # 1. Off means off.
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

    # 2. Wire agrees with protocol ground truth on the clean f grid, and
    # the capture was non-vacuous in every cell. On the cover and churn
    # arms the wire legitimately sees MORE Case-1 events than the
    # session's own first relays — cover senders origin-send into
    # insiders, and churned constructions retry through fresh relays (the
    # predecessor-attack amplification DESIGN §10 documents) — so those
    # arms are gated directionally, never for equality.
    for proto in PROTOCOLS:
        for arm in ARMS:
            wire = value(values, "pred_compromise", proto, arm)
            truth = value(values, "gt_compromise", proto, arm)
            if arm in F_GRID and abs(wire - truth) > AGREE_TOL:
                failures.append(
                    f"{proto}/{arm}: wire compromise {wire:.3f} disagrees "
                    f"with ground truth {truth:.3f}")
            if arm not in F_GRID and wire + 1e-9 < truth:
                failures.append(
                    f"{proto}/{arm}: wire compromise {wire:.3f} below "
                    f"ground truth {truth:.3f} — the observer missed "
                    f"events the protocol recorded")
            if value(values, "flows", proto, arm) <= 0:
                failures.append(f"{proto}/{arm}: no flows captured")
            if value(values, "constructed", proto, arm) <= 0:
                failures.append(f"{proto}/{arm}: no trials constructed")
    print("wire-vs-protocol: f-grid compromise rates agree in all "
          f"{len(PROTOCOLS) * len(F_GRID)} cells (tol {AGREE_TOL}); "
          "cover/churn amplification is >= ground truth")

    # The churn arm's amplification must actually show: retries expose
    # strictly more than the pinned-up base arm records.
    for proto in PROTOCOLS:
        churn = value(values, "pred_compromise", proto, "churn")
        base = value(values, "pred_compromise", proto, "base")
        print(f"amplify: {proto:8s} churn {churn:.3f} vs base {base:.3f}")
        if churn <= base:
            failures.append(
                f"{proto}: churn arm compromise {churn:.3f} not above the "
                f"pinned base {base:.3f} — retry amplification missing")

    # 3. Closed-form tracking on the f grid.
    for proto in PROTOCOLS:
        prev = -1.0
        for arm in F_GRID:
            observed = value(values, "pred_compromise", proto, arm)
            closed = value(values, "exposure", proto, arm)
            ok = abs(observed - closed) <= TRACK_TOL
            print(f"track: {proto:8s} {arm:5s} observed {observed:.3f} "
                  f"vs 1-(1-f)^k {closed:.3f}: {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(
                    f"{proto}/{arm}: compromise {observed:.3f} off the "
                    f"closed form {closed:.3f} by more than {TRACK_TOL}")
            if observed < prev - 1e-9:
                failures.append(
                    f"{proto}/{arm}: compromise not monotone in f "
                    f"({observed:.3f} < {prev:.3f})")
            prev = observed
            success = value(values, "pred_success", proto, arm)
            eq4 = value(values, "eq4", proto, arm)
            if success + 1e-9 < eq4:
                failures.append(
                    f"{proto}/{arm}: attack success {success:.4f} below "
                    f"the Eq. 4 closed form {eq4:.4f} — a global observer "
                    f"cannot do worse than the paper's bound")

    # 4. Cover traffic is load-bearing.
    for proto in PROTOCOLS:
        base = value(values, "corr_success", proto, "base")
        cover = value(values, "corr_success", proto, "cover")
        ok = cover < base
        print(f"cover: {proto:8s} correlation {base:.3f} -> {cover:.3f} "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(
                f"{proto}: cover traffic did not reduce correlation "
                f"success ({cover:.3f} >= {base:.3f})")
        if value(values, "inter_set", proto, "cover") <= \
                value(values, "inter_set", proto, "base"):
            failures.append(
                f"{proto}: cover traffic did not widen the "
                f"intersection set")
        if value(values, "cover_messages", proto, "cover") <= 0:
            failures.append(f"{proto}: cover arm sent no cover messages")

    # 5. Entropy ordering: multipath costs anonymity, and nothing beats
    # the uniform bound.
    ent = {p: value(values, "pred_entropy", p, "base") for p in PROTOCOLS}
    suc = {p: value(values, "pred_success", p, "base") for p in PROTOCOLS}
    print(f"entropy@base: curmix {ent['curmix']:.2f} "
          f"simrep2 {ent['simrep2']:.2f} simera4 {ent['simera4']:.2f}")
    for single in ("curmix", "simrep2"):
        if ent[single] <= ent["simera4"]:
            failures.append(
                f"{single} posterior entropy {ent[single]:.2f} not above "
                f"simera4's {ent['simera4']:.2f} — multipath should cost "
                f"anonymity")
        if suc["simera4"] <= suc[single]:
            failures.append(
                f"simera4 success {suc['simera4']:.3f} not above "
                f"{single}'s {suc[single]:.3f}")
    for proto in PROTOCOLS:
        for arm in ARMS:
            bound = value(values, "uniform_entropy", proto, arm)
            got = value(values, "pred_entropy", proto, arm)
            if got > bound + 1e-6:
                failures.append(
                    f"{proto}/{arm}: posterior entropy {got:.3f} beats the "
                    f"uniform bound {bound:.3f} — impossible posterior")

    if failures:
        print(f"\nFAIL: {len(failures)} anonymity gate(s) violated")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: all anonymity gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

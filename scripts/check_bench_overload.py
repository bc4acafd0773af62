#!/usr/bin/env python3
"""Shape-gate a chaos_sweep --sweep overload --json report.

Usage: check_bench_overload.py <report.json>

The overload sweep drives a deterministic workload engine (bulk /
interactive / streaming mixes) through three protocols under three load
shapes (steady, diurnal, flash crowd) and two relay arms:

  shed   OverloadPolicy::kShed: bounded relay queues + priority-aware
         shedding + reverse-path backpressure + the sender-side send
         bound and deferral;
  drop   OverloadPolicy::kTailDrop: the same bounded queues but blind
         tail drop — every class is dropped equally once the queue
         saturates (control is still never shed: acks and constructs are
         the invariant floor).

The gated shapes are the graceful-degradation claims (DESIGN §13):

  1. off means off: both control runs (defaults, and the workload
     engine and OverloadPolicy::kOff spelled out) reproduce the
     pre-overload chaos fingerprint byte for byte;
  2. steady state is free: under the steady shape both arms ride below
     the drain rate and deliver >= 95% goodput with zero sheds;
  3. graceful degradation: under the flash crowd the shed arm keeps
     interactive goodput >= 0.75 and total goodput >= 0.60;
  4. collapse without it: the drop arm's flash interactive goodput
     falls to <= 0.80 and trails the shed arm by >= 0.15 — blind tail
     drop lets retransmission amplification eat the interactive class;
  5. the control plane is never shed: sheds_control == 0 in every cell
     of both arms (acks/constructs outrank saturation);
  6. priority ordering holds where the policy runs: in flash shed
     cells, relay interactive sheds stay below streaming sheds and
     below the drop arm's interactive sheds, and the sender-side
     machinery (backpressure signals, session sheds/deferrals) engaged;
  7. interactive latency is bounded: p99 <= 10 s at steady (both arms)
     and diurnal-shed, <= 90 s under the flash crowd with shedding on;
  8. accounting stays closed: violations == 0 in every cell (no
     unaccounted messages, leaks, or open segment ledgers — sheds are
     explained losses, not bookkeeping holes).

Exits 0 when all shapes hold, 1 otherwise.
"""

import json
import sys

PROTOCOLS = ("curmix", "simrep2", "simera4")
SHAPES = ("steady", "diurnal", "flash")
ARMS = ("shed", "drop")

STEADY_GOODPUT_FLOOR = 0.95
FLASH_SHED_INTERACTIVE_FLOOR = 0.75
FLASH_SHED_GOODPUT_FLOOR = 0.60
FLASH_DROP_INTERACTIVE_CEIL = 0.80
FLASH_INTERACTIVE_MARGIN = 0.15
STEADY_P99_BOUND_US = 10_000_000
FLASH_SHED_P99_BOUND_US = 90_000_000


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("bench") != "chaos_overload_sweep":
        raise SystemExit(f"{path}: not a chaos_overload_sweep report")
    return doc.get("values", {})


def cell(values, metric, proto, shape, arm):
    key = f"{metric}_{proto}_{shape}_{arm}"
    if key not in values:
        raise SystemExit(f"missing value '{key}'")
    return values[key]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    values = load(argv[1])
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

    # 2. Steady state is free on both arms.
    for proto in PROTOCOLS:
        for arm in ARMS:
            goodput = float(cell(values, "goodput", proto, "steady", arm))
            sheds = sum(
                int(cell(values, f"sheds_{c}", proto, "steady", arm))
                for c in ("bulk", "streaming", "interactive"))
            ok = goodput >= STEADY_GOODPUT_FLOOR and sheds == 0
            print(f"steady: {proto:8s} {arm:4s} goodput {goodput:.3f} "
                  f"sheds {sheds}: {'ok' if ok else 'FAIL'}")
            if goodput < STEADY_GOODPUT_FLOOR:
                failures.append(
                    f"{proto}/steady/{arm}: goodput {goodput:.3f} < "
                    f"{STEADY_GOODPUT_FLOOR}")
            if sheds != 0:
                failures.append(
                    f"{proto}/steady/{arm}: {sheds} sheds at steady state")

    # 3 + 4. Graceful degradation with shedding, collapse without.
    for proto in PROTOCOLS:
        shed_inter = float(
            cell(values, "goodput_interactive", proto, "flash", "shed"))
        drop_inter = float(
            cell(values, "goodput_interactive", proto, "flash", "drop"))
        shed_total = float(cell(values, "goodput", proto, "flash", "shed"))
        margin = shed_inter - drop_inter
        print(f"flash: {proto:8s} interactive shed {shed_inter:.3f} vs "
              f"drop {drop_inter:.3f} (margin {margin:+.3f}), "
              f"shed total {shed_total:.3f}")
        if shed_inter < FLASH_SHED_INTERACTIVE_FLOOR:
            failures.append(
                f"{proto}/flash/shed: interactive goodput {shed_inter:.3f} "
                f"< floor {FLASH_SHED_INTERACTIVE_FLOOR}")
        if shed_total < FLASH_SHED_GOODPUT_FLOOR:
            failures.append(
                f"{proto}/flash/shed: total goodput {shed_total:.3f} < "
                f"floor {FLASH_SHED_GOODPUT_FLOOR}")
        if drop_inter > FLASH_DROP_INTERACTIVE_CEIL:
            failures.append(
                f"{proto}/flash/drop: interactive goodput {drop_inter:.3f} "
                f"did not collapse (> {FLASH_DROP_INTERACTIVE_CEIL})")
        if margin < FLASH_INTERACTIVE_MARGIN:
            failures.append(
                f"{proto}/flash: shed-vs-drop interactive margin "
                f"{margin:.3f} < {FLASH_INTERACTIVE_MARGIN}")

    # 5. Control/ack segments are NEVER shed, in any cell of any arm.
    control_sheds = 0
    for proto in PROTOCOLS:
        for shape in SHAPES:
            for arm in ARMS:
                control_sheds += int(
                    cell(values, "sheds_control", proto, shape, arm))
    print(f"control-plane: {control_sheds} control sheds across all cells")
    if control_sheds != 0:
        failures.append(
            f"{control_sheds} control-class segments were shed — the "
            f"control plane must outrank saturation")

    # 6. Priority ordering + sender-side machinery in the flash shed arm.
    for proto in PROTOCOLS:
        shed_i = int(cell(values, "sheds_interactive", proto, "flash",
                          "shed"))
        shed_s = int(cell(values, "sheds_streaming", proto, "flash", "shed"))
        drop_i = int(cell(values, "sheds_interactive", proto, "flash",
                          "drop"))
        bp = int(cell(values, "backpressure_signals", proto, "flash",
                      "shed"))
        sender = (int(cell(values, "session_sheds", proto, "flash", "shed"))
                  + int(cell(values, "segments_deferred", proto, "flash",
                             "shed")))
        ok = shed_i <= shed_s and shed_i < drop_i and bp > 0 and sender > 0
        print(f"priority: {proto:8s} interactive sheds {shed_i} <= "
              f"streaming {shed_s}, < drop-arm {drop_i}; bp {bp}, "
              f"sender-side {sender}: {'ok' if ok else 'FAIL'}")
        if shed_i > shed_s:
            failures.append(
                f"{proto}/flash/shed: interactive sheds {shed_i} exceed "
                f"streaming sheds {shed_s} — priority order inverted")
        if shed_i >= drop_i:
            failures.append(
                f"{proto}/flash: shed arm interactive sheds {shed_i} not "
                f"below drop arm {drop_i}")
        if bp == 0:
            failures.append(f"{proto}/flash/shed: no backpressure signals")
        if sender == 0:
            failures.append(
                f"{proto}/flash/shed: sender-side shedding never engaged")

    # 7. Interactive p99 bounds.
    for proto in PROTOCOLS:
        for arm in ARMS:
            p99 = int(cell(values, "interactive_p99_us", proto, "steady",
                           arm))
            if p99 > STEADY_P99_BOUND_US:
                failures.append(
                    f"{proto}/steady/{arm}: interactive p99 {p99} us > "
                    f"{STEADY_P99_BOUND_US}")
        diurnal = int(cell(values, "interactive_p99_us", proto, "diurnal",
                           "shed"))
        flash = int(cell(values, "interactive_p99_us", proto, "flash",
                         "shed"))
        print(f"latency: {proto:8s} shed p99 diurnal {diurnal / 1000:.0f} ms"
              f" flash {flash / 1000:.0f} ms")
        if diurnal > STEADY_P99_BOUND_US:
            failures.append(
                f"{proto}/diurnal/shed: interactive p99 {diurnal} us > "
                f"{STEADY_P99_BOUND_US}")
        if flash > FLASH_SHED_P99_BOUND_US:
            failures.append(
                f"{proto}/flash/shed: interactive p99 {flash} us > "
                f"{FLASH_SHED_P99_BOUND_US}")

    # 8. Accounting stays closed everywhere.
    violations = 0
    for proto in PROTOCOLS:
        for shape in SHAPES:
            for arm in ARMS:
                violations += int(
                    cell(values, "violations", proto, shape, arm))
    print(f"accounting: {violations} invariant violations across all cells")
    if violations != 0:
        failures.append(f"{violations} chaos invariant violations")

    if failures:
        print(f"\nFAIL: {len(failures)} overload gate(s) violated")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: all overload resilience gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

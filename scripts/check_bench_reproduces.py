#!/usr/bin/env python3
"""Check that a fresh bench report reproduces a committed baseline.

Usage: check_bench_reproduces.py <fresh.json> <committed.json>

The sweeps are deterministic per seed, so a fresh run at the committed
settings must match the committed BENCH_*.json exactly in `bench`,
`values` and `sections`. `provenance` (git sha, kernels, resource
usage, flag values such as the output path) is ignored.

Exits 0 when the reports match, 1 otherwise, naming the first keys that
differ.
"""

import json
import sys

COMPARED = ("bench", "values", "sections")
MAX_REPORTED = 5


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def differing_keys(fresh, committed):
    """Keys whose values differ, in committed order, then fresh-only keys."""
    if not isinstance(fresh, dict) or not isinstance(committed, dict):
        return [] if fresh == committed else ["(whole value)"]
    keys = [k for k in committed if fresh.get(k, object()) != committed[k]]
    keys += [k for k in fresh if k not in committed]
    return keys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh, committed = load(argv[1]), load(argv[2])
    ok = True
    for field in COMPARED:
        if fresh.get(field) == committed.get(field):
            continue
        ok = False
        keys = differing_keys(fresh.get(field), committed.get(field))
        shown = ", ".join(keys[:MAX_REPORTED])
        more = len(keys) - MAX_REPORTED
        suffix = f" (+{more} more)" if more > 0 else ""
        print(f"FAIL {field}: {len(keys)} differing key(s): {shown}{suffix}")
        for key in keys[:MAX_REPORTED]:
            if isinstance(fresh.get(field), dict) and field == "values":
                print(f"  {key}: fresh={fresh[field].get(key)!r} "
                      f"committed={committed[field].get(key)!r}")
    if ok:
        print(f"OK {argv[1]} reproduces {argv[2]} "
              f"({len(committed.get('values', {}))} values, "
              f"{len(committed.get('sections', {}))} sections)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

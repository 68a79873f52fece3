#!/usr/bin/env python3
"""Campaign-output gates that scripts/ci.sh runs on the emitted BENCH_*.json.

Each gate re-derives a bound from the JSON a campaign wrote, so a
silently-softened in-bench check cannot pass CI. Exit status 0 = the gate
holds, 1 = it is violated (or its input is malformed).

Usage:
  scripts/gates.py marathon FILE       (BENCH_marathon.json)
  scripts/gates.py faults-ledger FILE  (BENCH_faults.json)
  scripts/gates.py inert-pair FILE     (BENCH_skew.json or BENCH_faults.json)

marathon       With auto-pruning on, the certifier log's chunk high-water mark
               must plateau across the churn epochs (last epoch within 3x of
               the first), while the legacy control (pruning off) keeps
               growing (> 1.5x) and ends above the bounded run.
faults-ledger  For every fault cell: its "invariant ok" scalar is 1 and
               acknowledged commits <= certified commits <= commits + the
               summed in-flight bound; the inert pair reports identical and
               its armed and plain runs executed the same number of events.
inert-pair     The "inert armed" and "inert plain" run records are identical
               on every field but the label (skew and faults campaigns).
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def marathon(path):
    s = load(path)["scalars"]
    b1, b5 = s["bounded log chunks hwm epoch1"], s["bounded log chunks hwm epoch5"]
    l1, l5 = s["legacy log chunks hwm epoch1"], s["legacy log chunks hwm epoch5"]
    print(f"marathon gate: bounded epoch1={b1:.0f} epoch5={b5:.0f}, "
          f"legacy epoch1={l1:.0f} epoch5={l5:.0f}")
    return b5 <= 3 * b1 and l5 > 1.5 * l1 and b5 < l5


def faults_ledger(path):
    s = load(path)["scalars"]
    cells = sorted(k[:-len(" invariant ok")] for k in s if k.endswith(" invariant ok"))
    if not cells:
        print(f"faults gate: no '<cell> invariant ok' scalars in {path}", file=sys.stderr)
        return False
    bad = []
    for c in cells:
        if s[c + " invariant ok"] != 1:
            bad.append(f"{c}: invariant scalar != 1")
            continue
        committed = s[c + " lifetime committed"]
        certified = s[c + " lifetime certified"]
        bound = s[c + " inflight bound"]
        if not committed <= certified <= committed + bound:
            bad.append(f"{c}: ledger violated ({committed} / {certified} / bound {bound})")
    if s.get("inert pair identical") != 1:
        bad.append("inert pair identical scalar != 1")
    if s.get("armed executed events") != s.get("plain executed events"):
        bad.append("inert pair executed-event counts differ")
    for b in bad:
        print(f"faults gate: {b}", file=sys.stderr)
    print(f"faults gate: zero-loss ledger holds on {len(cells)} cells")
    return not bad


def inert_pair(path):
    runs = {}
    for r in load(path)["runs"]:
        if r["label"].startswith("inert armed"):
            runs["armed"] = dict(r)
        elif r["label"].startswith("inert plain"):
            runs["plain"] = dict(r)
    if set(runs) != {"armed", "plain"}:
        print(f"inert gate: inert pair runs not found in {path}", file=sys.stderr)
        return False
    runs["armed"].pop("label")
    runs["plain"].pop("label")
    a = json.dumps(runs["armed"], sort_keys=True)
    p = json.dumps(runs["plain"], sort_keys=True)
    print(f"inert gate ({path}): armed == plain ({len(a)} bytes compared)")
    return a == p


GATES = {"marathon": marathon, "faults-ledger": faults_ledger, "inert-pair": inert_pair}


def main(argv):
    if len(argv) != 2 or argv[0] not in GATES:
        print(__doc__, file=sys.stderr)
        return 2
    gate, path = argv
    try:
        ok = GATES[gate](path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"{gate} gate: cannot evaluate {path}: {e!r}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

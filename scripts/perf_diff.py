#!/usr/bin/env python3
"""Diff two BENCH_campaign.json manifests: the per-PR perf gate.

The campaign manifest records, per campaign and per cell, host wall seconds
and executed simulator events (see src/cluster/campaign.cc, ManifestJson).
This tool compares two manifests — typically the committed baseline under
bench/baselines/ against a fresh run — and reports, per campaign present in
both:

  * cells/sec  (cells / summed cell wall seconds)
  * events/sec (executed events / summed cell wall seconds; the kernel
    throughput number the roadmap tracks)
  * executed-event counts (jobs-independent and deterministic: a change
    means the simulation itself changed, e.g. event batching — worth a
    sentence in the PR either way)

plus per-cell events/sec for cells whose ratio moved more than the
threshold, and run-wide totals. Every sum runs over the cells BOTH manifests
ran: a cell present in only one (added, or deleted since the baseline was
captured) would otherwise shift the campaign and run-wide ratios, and with
them every --fail-cell-below floor. Campaigns and cells present in only one
manifest are listed, not compared.

Wall-second numbers are HOST measurements: they vary with machine and
concurrent load, so this is a report step, not a hard gate — CI prints the
table (use --fail-below to turn it into one on dedicated hardware).

Usage:
  scripts/perf_diff.py BASELINE.json CURRENT.json [--threshold 0.10]
                       [--fail-below RATIO]
                       [--fail-cell-below CAMPAIGN:CELL=RATIO ...]

--fail-cell-below gates a single cell's events/sec ratio NORMALIZED by the
run-wide ratio (cell_ratio / total_ratio), so a uniformly slower host cancels
out and only a relative regression of that cell against the rest of the run
trips the gate. The separator is ':' between campaign and cell because cell
ids contain '/' (e.g. perf:kernel/slab=0.6). Repeatable; a spec whose cell is
missing from either manifest fails hard (a silently skipped gate is no gate).
"""

import argparse
import json
import sys


def load_manifest(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "tashkent-campaign-manifest-v1":
        sys.exit(f"{path}: not a tashkent campaign manifest (schema key mismatch)")
    return doc


def campaign_cells(doc):
    """{campaign: {cell_id: cell}} in manifest order."""
    return {c["name"]: {cell["id"]: cell for cell in c.get("cells", [])}
            for c in doc.get("campaigns", [])}


def summarize(cells):
    """Wall, events and rates summed over `cells`, a list of manifest cells."""
    wall = sum(cell.get("wall_s", 0.0) for cell in cells)
    events = sum(cell.get("executed_events", 0) for cell in cells)
    return {
        "cells": len(cells),
        "failed": sum(0 if cell.get("ok") else 1 for cell in cells),
        "wall_s": wall,
        "events": events,
        "cells_per_s": len(cells) / wall if wall > 0 else 0.0,
        "events_per_s": events / wall if wall > 0 else 0.0,
    }


def fmt_ratio(new, old):
    if old <= 0:
        return "   n/a"
    return f"{new / old:6.2f}x"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="per-cell events/sec change worth listing (default 0.10 = 10%%)")
    ap.add_argument("--fail-below", type=float, default=None,
                    help="exit 1 if the run-wide events/sec ratio drops below this")
    ap.add_argument("--fail-cell-below", action="append", default=[],
                    metavar="CAMPAIGN:CELL=RATIO",
                    help="exit 1 if the cell's events/sec ratio, normalized by "
                         "the run-wide ratio, drops below RATIO (repeatable)")
    args = ap.parse_args()

    base = campaign_cells(load_manifest(args.baseline))
    cur = campaign_cells(load_manifest(args.current))

    shared = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    print(f"perf_diff: {args.baseline} -> {args.current}")
    print(f"{'campaign':<12} {'cells':>5} {'wall_s':>16} {'events/s':>24} "
          f"{'ratio':>7} {'cells/s ratio':>13}")
    total_base_wall = total_cur_wall = 0.0
    total_base_events = total_cur_events = 0
    unmatched_cells = []
    for name in shared:
        common = [cid for cid in cur[name] if cid in base[name]]
        unmatched_cells += [(name, cid, "baseline") for cid in base[name]
                            if cid not in cur[name]]
        unmatched_cells += [(name, cid, "current") for cid in cur[name]
                            if cid not in base[name]]
        b = summarize([base[name][cid] for cid in common])
        c = summarize([cur[name][cid] for cid in common])
        total_base_wall += b["wall_s"]
        total_cur_wall += c["wall_s"]
        total_base_events += b["events"]
        total_cur_events += c["events"]
        print(f"{name:<12} {c['cells']:>5} "
              f"{b['wall_s']:>7.1f}->{c['wall_s']:<7.1f} "
              f"{b['events_per_s']:>11.0f}->{c['events_per_s']:<11.0f} "
              f"{fmt_ratio(c['events_per_s'], b['events_per_s'])} "
              f"{fmt_ratio(c['cells_per_s'], b['cells_per_s']):>13}")
        if b["failed"] or c["failed"]:
            print(f"{'':<12}   FAILED CELLS skew these rates: baseline "
                  f"{b['failed']}, current {c['failed']}")
        if b["events"] != c["events"]:
            delta = c["events"] - b["events"]
            print(f"{'':<12}   executed events changed: {b['events']:.0f} -> "
                  f"{c['events']:.0f} ({delta:+.0f}; deterministic — the "
                  f"simulation's event count itself changed)")
        for cid in sorted(common):
            b_rate = base[name][cid].get("events_per_s", 0.0)
            c_rate = cur[name][cid].get("events_per_s", 0.0)
            if b_rate <= 0:
                continue
            ratio = c_rate / b_rate
            if abs(ratio - 1.0) >= args.threshold:
                print(f"{'':<12}   {cid:<28} {b_rate:>11.0f}->{c_rate:<11.0f} {ratio:6.2f}x")

    for name in only_base:
        print(f"{name:<12} only in baseline ({len(base[name])} cells)")
    for name in only_cur:
        print(f"{name:<12} only in current ({len(cur[name])} cells)")
    for name, cid, side in unmatched_cells:
        print(f"{name + ':' + cid:<12} only in {side} (cell)")

    exit_code = 0
    total_ratio = 0.0
    if total_base_wall > 0 and total_cur_wall > 0:
        b_eps = total_base_events / total_base_wall
        c_eps = total_cur_events / total_cur_wall
        total_ratio = c_eps / b_eps if b_eps > 0 else 0.0
        print(f"{'TOTAL':<12} {'':>5} {total_base_wall:>7.1f}->{total_cur_wall:<7.1f} "
              f"{b_eps:>11.0f}->{c_eps:<11.0f} {fmt_ratio(c_eps, b_eps)}")
        if args.fail_below is not None and total_ratio < args.fail_below:
            print(f"perf_diff: FAIL — run-wide events/sec ratio {total_ratio:.2f} "
                  f"below --fail-below {args.fail_below}", file=sys.stderr)
            exit_code = 1

    for spec in args.fail_cell_below:
        try:
            coords, floor_text = spec.rsplit("=", 1)
            campaign, cell = coords.split(":", 1)
            floor = float(floor_text)
        except ValueError:
            sys.exit(f"--fail-cell-below: malformed spec '{spec}' "
                     f"(want CAMPAIGN:CELL=RATIO, e.g. perf:kernel/slab=0.6)")
        bcell = base.get(campaign, {}).get(cell)
        ccell = cur.get(campaign, {}).get(cell)
        if bcell is None or ccell is None:
            which = "baseline" if bcell is None else "current"
            print(f"perf_diff: FAIL — --fail-cell-below cell {campaign}:{cell} "
                  f"missing from the {which} manifest", file=sys.stderr)
            exit_code = 1
            continue
        if bcell.get("events_per_s", 0.0) <= 0 or total_ratio <= 0:
            print(f"perf_diff: FAIL — --fail-cell-below cell {campaign}:{cell} "
                  f"has no baseline rate to compare against", file=sys.stderr)
            exit_code = 1
            continue
        cell_ratio = ccell.get("events_per_s", 0.0) / bcell["events_per_s"]
        normalized = cell_ratio / total_ratio
        if normalized < floor:
            print(f"perf_diff: FAIL — {campaign}:{cell} events/sec ratio "
                  f"{cell_ratio:.2f} is {normalized:.2f}x the run-wide ratio "
                  f"{total_ratio:.2f}, below --fail-cell-below {floor}",
                  file=sys.stderr)
            exit_code = 1
        else:
            print(f"cell gate ok: {campaign}:{cell} ratio {cell_ratio:.2f} "
                  f"({normalized:.2f}x run-wide, floor {floor})")

    if not shared:
        print("perf_diff: no campaign appears in both manifests", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `perf_diff.py ... | head`
        sys.exit(0)

#!/usr/bin/env python3
"""Render the committed perf baselines into an in-repo trajectory report.

perf_diff.py answers "did THIS change regress the grid?" by diffing two
manifests. This tool answers the longer question — how the simulator's
throughput has moved across the PRs that committed a baseline — by rendering
every manifest under bench/baselines/ (oldest first) into one markdown
report: run-wide events/s and wall seconds per snapshot, per-campaign tables
(whose first->last ratio covers only the cells both snapshots ran), and
first->last per-cell ratios so a cell that quietly rotted across several
PRs is visible even when no single PR tripped the perf gate.

The report is deterministic given the committed baselines (it reads only the
checked-in JSONs), so docs/PERF_TRAJECTORY.md is committed and CI re-renders
it with --check: a PR that refreshes a baseline without regenerating the
report fails fast.

Wall-second numbers are HOST measurements recorded when each baseline was
captured; snapshots from different machines are comparable only loosely.
Ratios within one snapshot (cell vs run-wide) are the trustworthy signal.

Usage:
  scripts/perf_trajectory.py                      # print report to stdout
  scripts/perf_trajectory.py --output FILE        # write report to FILE
  scripts/perf_trajectory.py --check FILE         # exit 1 if FILE is stale
  scripts/perf_trajectory.py --manifest PR4=a.json --manifest HEAD=b.json

Without --manifest, snapshots are discovered in bench/baselines/: every
*BENCH_campaign.json, ordered oldest-first (PR-prefixed files by PR number,
the unprefixed BENCH_campaign.json last as the current snapshot).
"""

import argparse
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(REPO, "bench", "baselines")
SCHEMA = "tashkent-campaign-manifest-v1"


def load_manifest(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: not a tashkent campaign manifest (schema key mismatch)")
    return doc


def discover_snapshots():
    """[(label, path)] oldest-first from bench/baselines/."""
    prefixed = []
    current = None
    for name in sorted(os.listdir(BASELINE_DIR)):
        if not name.endswith("BENCH_campaign.json"):
            continue
        path = os.path.join(BASELINE_DIR, name)
        m = re.match(r"PR(\d+)_BENCH_campaign\.json$", name)
        if m:
            prefixed.append((int(m.group(1)), f"PR{m.group(1)}", path))
        elif name == "BENCH_campaign.json":
            current = ("current", path)
        else:
            sys.exit(f"perf_trajectory: unrecognized baseline file name: {name}")
    prefixed.sort()
    snaps = [(label, path) for _, label, path in prefixed]
    if current:
        snaps.append(current)
    return snaps


def snapshot_stats(doc):
    """{campaign: {wall_s, events, events_per_s, cells: {id: events_per_s},
    cell_load: {id: (wall_s, executed_events)}}}"""
    out = {}
    for c in doc.get("campaigns", []):
        cells = c.get("cells", [])
        wall = sum(cell.get("wall_s", 0.0) for cell in cells)
        events = sum(cell.get("executed_events", 0) for cell in cells)
        out[c["name"]] = {
            "wall_s": wall,
            "events": events,
            "events_per_s": events / wall if wall > 0 else 0.0,
            "cells": {cell["id"]: cell.get("events_per_s", 0.0) for cell in cells},
            "cell_load": {cell["id"]: (cell.get("wall_s", 0.0),
                                       cell.get("executed_events", 0))
                          for cell in cells},
        }
    return out


def common_cell_trajectory(first, last):
    """(first->last events/s ratio text, cells compared) over the cells both
    campaign snapshots ran, so a cell added or dropped in between (a heavy new
    storm cell, say) does not masquerade as a speed change."""
    common = sorted(set(first["cell_load"]) & set(last["cell_load"]))

    def rate(stats):
        wall = sum(stats["cell_load"][cid][0] for cid in common)
        events = sum(stats["cell_load"][cid][1] for cid in common)
        return events / wall if wall > 0 else 0.0

    return fmt_ratio(rate(last), rate(first)), len(common)


def fmt_rate(v):
    return f"{v:,.0f}" if v > 0 else "—"


def fmt_ratio(new, old):
    return f"{new / old:.2f}x" if old > 0 and new > 0 else "—"


def render(snapshots):
    """snapshots: [(label, manifest_doc)] oldest-first -> markdown text."""
    labels = [label for label, _ in snapshots]
    stats = [snapshot_stats(doc) for _, doc in snapshots]
    docs = [doc for _, doc in snapshots]

    lines = []
    lines.append("# Perf trajectory")
    lines.append("")
    lines.append("Generated by `scripts/perf_trajectory.py` from the manifests in")
    lines.append("`bench/baselines/` — regenerate with:")
    lines.append("")
    lines.append("    scripts/perf_trajectory.py --output docs/PERF_TRAJECTORY.md")
    lines.append("")
    lines.append("CI re-renders this file and fails if it is stale (`--check`).")
    lines.append("Wall seconds are host measurements from whenever each baseline was")
    lines.append("captured, and the snapshots were captured on different hosts, so a")
    lines.append("cross-snapshot ratio mixes host drift with code change: it is")
    lines.append("indicative, not lab-grade. A speed claim needs a same-host A/B.")
    lines.append("")

    lines.append("## Run-wide")
    lines.append("")
    lines.append("| snapshot | jobs | wall_s | executed events | events/s | vs first |")
    lines.append("|---|---:|---:|---:|---:|---:|")
    first_eps = None
    for label, doc in zip(labels, docs):
        wall = doc.get("wall_s", 0.0)
        events = doc.get("executed_events", 0)
        eps = doc.get("events_per_s", 0.0)
        if first_eps is None:
            first_eps = eps
        lines.append(f"| {label} | {doc.get('jobs', '?')} | {wall:.1f} "
                     f"| {events:,} | {fmt_rate(eps)} | {fmt_ratio(eps, first_eps)} |")
    lines.append("")

    all_campaigns = sorted({name for s in stats for name in s})
    lines.append("## Per campaign (events/s)")
    lines.append("")
    lines.append("first->last compares the first and last snapshot with the campaign")
    lines.append("over the cells both ran; the snapshot columns cover every cell.")
    lines.append("")
    header = "| campaign | " + " | ".join(labels) + " | first->last | cells compared |"
    lines.append(header)
    lines.append("|---|" + "---:|" * (len(labels) + 2))
    for name in all_campaigns:
        rates = [s.get(name, {}).get("events_per_s", 0.0) for s in stats]
        present = [s[name] for s in stats
                   if s.get(name, {}).get("events_per_s", 0.0) > 0]
        traj, compared = "—", "—"
        if len(present) >= 2:
            traj, compared = common_cell_trajectory(present[0], present[-1])
        lines.append(f"| {name} | " + " | ".join(fmt_rate(r) for r in rates) +
                     f" | {traj} | {compared} |")
    lines.append("")

    lines.append("## Per cell (events/s, first vs last snapshot with the cell)")
    lines.append("")
    lines.append("A cell's ratio is its own first->last events/s change; compare it")
    lines.append("against the run-wide ratio above to separate a cell-local movement")
    lines.append("from a uniformly faster or slower host.")
    lines.append("")
    lines.append("| campaign:cell | first | last | ratio |")
    lines.append("|---|---:|---:|---:|")
    for name in all_campaigns:
        cell_ids = sorted({cid for s in stats for cid in s.get(name, {}).get("cells", {})})
        for cid in cell_ids:
            series = [(label, s[name]["cells"][cid])
                      for label, s in zip(labels, stats)
                      if name in s and cid in s[name]["cells"]]
            series = [(label, r) for label, r in series if r > 0]
            if not series:
                continue
            (first_label, first), (last_label, last) = series[0], series[-1]
            if len(series) == 1:
                cell_note = f"{first_label} only"
                lines.append(f"| {name}:{cid} | {fmt_rate(first)} | — | {cell_note} |")
            else:
                lines.append(f"| {name}:{cid} | {fmt_rate(first)} ({first_label}) "
                             f"| {fmt_rate(last)} ({last_label}) "
                             f"| {fmt_ratio(last, first)} |")
    lines.append("")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--manifest", action="append", default=[], metavar="LABEL=PATH",
                    help="snapshot to include, oldest first (repeatable); "
                         "default: discover bench/baselines/")
    ap.add_argument("--output", help="write the report here instead of stdout")
    ap.add_argument("--check", metavar="FILE",
                    help="render and compare against FILE; exit 1 if it differs")
    args = ap.parse_args()

    if args.manifest:
        snaps = []
        for spec in args.manifest:
            label, _, path = spec.partition("=")
            if not path:
                sys.exit(f"perf_trajectory: malformed --manifest '{spec}' "
                         f"(want LABEL=PATH)")
            snaps.append((label, path))
    else:
        snaps = discover_snapshots()
    if not snaps:
        sys.exit("perf_trajectory: no baseline manifests found")

    report = render([(label, load_manifest(path)) for label, path in snaps])

    if args.check:
        try:
            with open(args.check) as f:
                committed = f.read()
        except FileNotFoundError:
            print(f"perf_trajectory: {args.check} does not exist — generate it "
                  f"with --output", file=sys.stderr)
            return 1
        if committed != report:
            print(f"perf_trajectory: {args.check} is stale — regenerate with:\n"
                  f"  scripts/perf_trajectory.py --output {args.check}",
                  file=sys.stderr)
            return 1
        print(f"perf_trajectory: {args.check} is current "
              f"({len(snaps)} snapshot(s))")
        return 0

    if args.output:
        with open(args.output, "w") as f:
            f.write(report)
        print(f"perf_trajectory: wrote {args.output} ({len(snaps)} snapshot(s))")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

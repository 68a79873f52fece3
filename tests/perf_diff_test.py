#!/usr/bin/env python3
"""Tests for scripts/perf_diff.py: ratio math, partial-manifest overlap,
--fail-below gating, and the deterministic executed-events callout.

perf_diff.py is the per-PR perf gate; these tests pin its behavior with
synthetic manifests so a formatting tweak can't silently disable the gate.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF_DIFF = os.path.join(REPO, "scripts", "perf_diff.py")


def manifest(campaigns):
    """campaigns: {name: [(cell_id, wall_s, executed_events, ok), ...]}"""
    return {
        "schema": "tashkent-campaign-manifest-v1",
        "campaigns": [
            {
                "name": name,
                "cells": [
                    {
                        "id": cid,
                        "seed": 1,
                        "ok": ok,
                        "wall_s": wall,
                        "executed_events": events,
                        "events_per_s": events / wall if wall > 0 else 0.0,
                    }
                    for (cid, wall, events, ok) in cells
                ],
            }
            for name, cells in campaigns.items()
        ],
    }


class PerfDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def diff(self, base, cur, *extra):
        return subprocess.run(
            [sys.executable, PERF_DIFF, base, cur, *extra],
            capture_output=True, text=True)

    def test_identical_manifests_ratio_is_one(self):
        doc = manifest({"fig3": [("a", 2.0, 1000, True), ("b", 2.0, 3000, True)]})
        r = self.diff(self.write("base.json", doc), self.write("cur.json", doc))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("1.00x", r.stdout)
        # events/s = (1000 + 3000) / 4.0s = 1000
        self.assertIn("1000", r.stdout)
        self.assertNotIn("executed events changed", r.stdout)

    def test_speedup_ratio_math(self):
        base = manifest({"fig3": [("a", 4.0, 8000, True)]})   # 2000 ev/s
        cur = manifest({"fig3": [("a", 1.0, 8000, True)]})    # 8000 ev/s
        r = self.diff(self.write("b.json", base), self.write("c.json", cur))
        self.assertEqual(r.returncode, 0)
        self.assertIn("4.00x", r.stdout)

    def test_partial_overlap_lists_unshared_campaigns(self):
        base = manifest({
            "fig3": [("a", 1.0, 100, True)],
            "old_only": [("x", 1.0, 100, True)],
        })
        cur = manifest({
            "fig3": [("a", 1.0, 100, True)],
            "new_only": [("y", 1.0, 100, True), ("z", 1.0, 100, True)],
        })
        r = self.diff(self.write("b.json", base), self.write("c.json", cur))
        self.assertEqual(r.returncode, 0)
        self.assertIn("only in baseline (1 cells)", r.stdout)
        self.assertIn("only in current (2 cells)", r.stdout)
        # Totals compare only the shared campaign, so the ratio stays 1.00x.
        self.assertIn("TOTAL", r.stdout)

    def test_no_shared_campaigns_warns(self):
        base = manifest({"alpha": [("a", 1.0, 100, True)]})
        cur = manifest({"beta": [("b", 1.0, 100, True)]})
        r = self.diff(self.write("b.json", base), self.write("c.json", cur))
        self.assertEqual(r.returncode, 0)
        self.assertIn("no campaign appears in both", r.stderr)

    def test_fail_below_gates_regressions(self):
        base = manifest({"fig3": [("a", 1.0, 8000, True)]})   # 8000 ev/s
        cur = manifest({"fig3": [("a", 2.0, 8000, True)]})    # 4000 ev/s: 0.5x
        bp, cp = self.write("b.json", base), self.write("c.json", cur)
        r = self.diff(bp, cp, "--fail-below", "0.8")
        self.assertEqual(r.returncode, 1)
        self.assertIn("FAIL", r.stderr)
        # The same regression passes when the gate allows it.
        r = self.diff(bp, cp, "--fail-below", "0.4")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_executed_events_change_is_called_out(self):
        # Executed events are deterministic: a count change means the
        # simulation changed, and the diff must say so even if rates look fine.
        base = manifest({"fig3": [("a", 1.0, 1000, True)]})
        cur = manifest({"fig3": [("a", 1.0, 1250, True)]})
        r = self.diff(self.write("b.json", base), self.write("c.json", cur))
        self.assertEqual(r.returncode, 0)
        self.assertIn("executed events changed", r.stdout)
        self.assertIn("+250", r.stdout)
        self.assertIn("deterministic", r.stdout)

    def test_threshold_controls_per_cell_listing(self):
        base = manifest({"fig3": [("hot", 1.0, 1000, True), ("cold", 1.0, 1000, True)]})
        cur = manifest({"fig3": [("hot", 0.5, 1000, True), ("cold", 1.0, 1000, True)]})
        bp, cp = self.write("b.json", base), self.write("c.json", cur)
        r = self.diff(bp, cp, "--threshold", "0.5")
        self.assertIn("hot", r.stdout)       # 2.0x change clears 50%
        self.assertNotIn("cold", r.stdout)   # 1.0x does not
        r = self.diff(bp, cp, "--threshold", "3.0")
        self.assertNotIn("hot", r.stdout)    # nothing clears 300%

    def test_failed_cells_are_flagged(self):
        base = manifest({"fig3": [("a", 1.0, 1000, True)]})
        cur = manifest({"fig3": [("a", 1.0, 1000, False)]})
        r = self.diff(self.write("b.json", base), self.write("c.json", cur))
        self.assertEqual(r.returncode, 0)
        self.assertIn("FAILED CELLS", r.stdout)

    def test_fail_cell_below_normalizes_by_run_ratio(self):
        # Host twice as slow uniformly: every cell halves, normalized ratio
        # stays 1.0, so the gate must NOT trip.
        base = manifest({"perf": [("kernel/slab", 1.0, 8000, True),
                                  ("kernel/heap", 1.0, 8000, True)]})
        cur = manifest({"perf": [("kernel/slab", 2.0, 8000, True),
                                 ("kernel/heap", 2.0, 8000, True)]})
        r = self.diff(self.write("b.json", base), self.write("c.json", cur),
                      "--fail-cell-below", "perf:kernel/slab=0.9")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("cell gate ok", r.stdout)

    def test_fail_cell_below_trips_on_relative_regression(self):
        # One cell regresses 8x while its sibling holds. The regression also
        # drags the run-wide ratio down (cell ratio 0.125, run 0.22), so the
        # normalized ratio lands at 0.5625 — below the 0.6 floor.
        base = manifest({"perf": [("kernel/slab", 1.0, 8000, True),
                                  ("kernel/heap", 1.0, 8000, True)]})
        cur = manifest({"perf": [("kernel/slab", 8.0, 8000, True),
                                 ("kernel/heap", 1.0, 8000, True)]})
        r = self.diff(self.write("b.json", base), self.write("c.json", cur),
                      "--fail-cell-below", "perf:kernel/slab=0.6")
        self.assertEqual(r.returncode, 1)
        self.assertIn("kernel/slab", r.stderr)
        self.assertIn("FAIL", r.stderr)

    def test_one_sided_cells_do_not_move_the_normalized_gate(self):
        # kernel/slab halves while its sibling holds: over the two common
        # cells the run-wide ratio is 0.67 and the normalized ratio 0.75,
        # above the 0.7 floor. A slow cell that only the baseline ran (a cell
        # deleted since the baseline was captured) must not enter the sums:
        # summed in, it would drag the baseline rate down, inflate the
        # run-wide ratio to ~4 and trip the gate at 0.13.
        common_base = [("kernel/slab", 1.0, 8000, True), ("cell/storm", 1.0, 8000, True)]
        cur = manifest({"perf": [("kernel/slab", 2.0, 8000, True),
                                 ("cell/storm", 1.0, 8000, True),
                                 ("cell/new", 1.0, 50, True)]})
        cp = self.write("c.json", cur)
        gate = ("--fail-cell-below", "perf:kernel/slab=0.7")
        plain = self.diff(self.write("b.json", manifest({"perf": common_base})), cp, *gate)
        extra = self.diff(
            self.write("b_extra.json",
                       manifest({"perf": common_base + [("cell/old", 10.0, 100, True)]})),
            cp, *gate)
        for r in (plain, extra):
            self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
            self.assertIn("cell gate ok: perf:kernel/slab ratio 0.50 (0.75x run-wide",
                          r.stdout)
            self.assertIn("perf:cell/new only in current", r.stdout)
            self.assertNotIn("executed events changed", r.stdout)
        self.assertIn("perf:cell/old only in baseline", extra.stdout)
        self.assertNotIn("perf:cell/old", plain.stdout)

    def test_fail_cell_below_missing_cell_fails_hard(self):
        # A gate whose cell vanished must fail, not silently skip.
        base = manifest({"perf": [("kernel/slab", 1.0, 8000, True)]})
        cur = manifest({"perf": [("kernel/other", 1.0, 8000, True)]})
        r = self.diff(self.write("b.json", base), self.write("c.json", cur),
                      "--fail-cell-below", "perf:kernel/slab=0.6")
        self.assertEqual(r.returncode, 1)
        self.assertIn("missing", r.stderr)

    def test_fail_cell_below_malformed_spec_errors(self):
        doc = manifest({"perf": [("kernel/slab", 1.0, 8000, True)]})
        bp, cp = self.write("b.json", doc), self.write("c.json", doc)
        r = self.diff(bp, cp, "--fail-cell-below", "no-equals-sign")
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("malformed", r.stderr)

    def test_fail_cell_below_is_repeatable(self):
        base = manifest({"perf": [("a", 1.0, 8000, True), ("b", 1.0, 8000, True)]})
        cur = manifest({"perf": [("a", 8.0, 8000, True), ("b", 1.0, 8000, True)]})
        r = self.diff(self.write("b.json", base), self.write("c.json", cur),
                      "--fail-cell-below", "perf:a=0.6",
                      "--fail-cell-below", "perf:b=0.6")
        self.assertEqual(r.returncode, 1)
        # The regressed cell fails; the healthy cell still reports ok.
        self.assertIn("perf:a", r.stderr)
        self.assertIn("cell gate ok: perf:b", r.stdout)

    def test_wrong_schema_is_rejected(self):
        bad = {"schema": "something-else", "campaigns": []}
        good = manifest({"fig3": [("a", 1.0, 100, True)]})
        r = self.diff(self.write("b.json", bad), self.write("c.json", good))
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("schema", r.stderr)


if __name__ == "__main__":
    unittest.main()

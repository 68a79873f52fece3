#!/usr/bin/env python3
"""Tests for scripts/perf_trajectory.py: snapshot ordering, ratio math,
cells that appear/disappear across snapshots (campaign ratios over common
cells only), and the --check staleness gate
that keeps docs/PERF_TRAJECTORY.md honest in CI.

Synthetic manifests throughout (same shape as tests/perf_diff_test.py); the
last test renders the real committed baselines and checks the committed
report, pinning the same invariant scripts/ci.sh enforces.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(REPO, "scripts", "perf_trajectory.py")


def manifest(campaigns, jobs=4):
    """campaigns: {name: [(cell_id, wall_s, executed_events), ...]}"""
    total_wall = sum(w for cells in campaigns.values() for (_, w, _) in cells)
    total_events = sum(e for cells in campaigns.values() for (_, _, e) in cells)
    return {
        "schema": "tashkent-campaign-manifest-v1",
        "jobs": jobs,
        "wall_s": total_wall,
        "executed_events": total_events,
        "events_per_s": total_events / total_wall if total_wall > 0 else 0.0,
        "campaigns": [
            {
                "name": name,
                "cells": [
                    {
                        "id": cid,
                        "seed": 1,
                        "ok": True,
                        "wall_s": wall,
                        "executed_events": events,
                        "events_per_s": events / wall if wall > 0 else 0.0,
                    }
                    for (cid, wall, events) in cells
                ],
            }
            for name, cells in campaigns.items()
        ],
    }


class PerfTrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def run_traj(self, *args):
        return subprocess.run(
            [sys.executable, TRAJECTORY, *args], capture_output=True, text=True)

    def test_two_snapshots_render_run_wide_ratio(self):
        old = manifest({"fig3": [("a", 2.0, 2000)]})     # 1000 ev/s
        new = manifest({"fig3": [("a", 1.0, 2000)]})     # 2000 ev/s
        r = self.run_traj("--manifest", f"PR4={self.write('old.json', old)}",
                          "--manifest", f"HEAD={self.write('new.json', new)}")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("| PR4 |", r.stdout)
        self.assertIn("| HEAD |", r.stdout)
        self.assertIn("2.00x", r.stdout)    # run-wide and per-campaign trajectory
        self.assertIn("1.00x", r.stdout)    # the first snapshot vs itself

    def test_per_cell_rows_show_first_and_last(self):
        old = manifest({"perf": [("kernel/slab", 1.0, 1000),
                                 ("kernel/heap", 1.0, 4000)]})
        new = manifest({"perf": [("kernel/slab", 1.0, 3000),
                                 ("kernel/heap", 1.0, 4000)]})
        r = self.run_traj("--manifest", f"A={self.write('a.json', old)}",
                          "--manifest", f"B={self.write('b.json', new)}")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("perf:kernel/slab", r.stdout)
        self.assertIn("3.00x", r.stdout)    # slab tripled
        self.assertIn("perf:kernel/heap", r.stdout)

    def test_cell_present_in_one_snapshot_is_not_ratioed(self):
        old = manifest({"perf": [("kernel/slab", 1.0, 1000)]})
        new = manifest({"perf": [("kernel/slab", 1.0, 1000),
                                 ("cell/filter-storm", 1.0, 9000)]})
        r = self.run_traj("--manifest", f"A={self.write('a.json', old)}",
                          "--manifest", f"B={self.write('b.json', new)}")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("perf:cell/filter-storm", r.stdout)
        self.assertIn("B only", r.stdout)   # no fabricated trajectory

    def test_campaign_ratio_compares_common_cells_only(self):
        # A heavy cell added in the last snapshot drags the campaign's
        # all-cell events/s down; the first->last ratio must ignore it.
        old = manifest({"perf": [("kernel/slab", 1.0, 1000)]})
        new = manifest({"perf": [("kernel/slab", 1.0, 2000),
                                 ("cell/filter-storm", 10.0, 1000)]})
        r = self.run_traj("--manifest", f"A={self.write('a.json', old)}",
                          "--manifest", f"B={self.write('b.json', new)}")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        perf_row = [l for l in r.stdout.splitlines() if l.startswith("| perf |")]
        self.assertEqual(len(perf_row), 1)
        self.assertEqual(perf_row[0], "| perf | 1,000 | 273 | 2.00x | 1 |")

    def test_campaign_missing_from_first_snapshot(self):
        old = manifest({"fig3": [("a", 1.0, 1000)]})
        new = manifest({"fig3": [("a", 1.0, 1000)],
                        "marathon": [("m", 1.0, 5000)]})
        r = self.run_traj("--manifest", f"A={self.write('a.json', old)}",
                          "--manifest", f"B={self.write('b.json', new)}")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        # The campaign table shows a dash, not a ratio built from nothing.
        marathon_row = [l for l in r.stdout.splitlines()
                        if l.startswith("| marathon |")]
        self.assertEqual(len(marathon_row), 1)
        self.assertIn("—", marathon_row[0])

    def test_check_passes_on_current_report_and_fails_on_stale(self):
        old = manifest({"fig3": [("a", 2.0, 2000)]})
        new = manifest({"fig3": [("a", 1.0, 2000)]})
        specs = ["--manifest", f"A={self.write('a.json', old)}",
                 "--manifest", f"B={self.write('b.json', new)}"]
        report_path = os.path.join(self.tmp.name, "TRAJ.md")
        r = self.run_traj(*specs, "--output", report_path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

        r = self.run_traj(*specs, "--check", report_path)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("current", r.stdout)

        with open(report_path, "a", encoding="utf-8") as f:
            f.write("stale edit\n")
        r = self.run_traj(*specs, "--check", report_path)
        self.assertEqual(r.returncode, 1)
        self.assertIn("stale", r.stderr)

    def test_check_missing_file_fails_with_hint(self):
        doc = manifest({"fig3": [("a", 1.0, 1000)]})
        r = self.run_traj("--manifest", f"A={self.write('a.json', doc)}",
                          "--check", os.path.join(self.tmp.name, "nope.md"))
        self.assertEqual(r.returncode, 1)
        self.assertIn("does not exist", r.stderr)

    def test_wrong_schema_is_rejected(self):
        bad = {"schema": "something-else", "campaigns": []}
        r = self.run_traj("--manifest", f"A={self.write('bad.json', bad)}")
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("schema", r.stderr)

    def test_malformed_manifest_spec_errors(self):
        r = self.run_traj("--manifest", "no-equals-sign")
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("malformed", r.stderr)


class CommittedReportTest(unittest.TestCase):
    def test_committed_report_is_current(self):
        r = subprocess.run(
            [sys.executable, TRAJECTORY, "--check",
             os.path.join(REPO, "docs", "PERF_TRAJECTORY.md")],
            capture_output=True, text=True)
        self.assertEqual(
            r.returncode, 0,
            f"docs/PERF_TRAJECTORY.md is stale vs bench/baselines/:\n"
            f"{r.stdout}{r.stderr}")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests for scripts/gates.py: a passing and a failing JSON fixture per gate.

The gates re-check campaign bounds from the emitted BENCH_*.json; these
fixtures pin each bound so an edit to the script cannot silently loosen it.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATES = os.path.join(REPO, "scripts", "gates.py")

MARATHON_OK = {"scalars": {
    "bounded log chunks hwm epoch1": 11, "bounded log chunks hwm epoch5": 13,
    "legacy log chunks hwm epoch1": 93, "legacy log chunks hwm epoch5": 292,
}}

FAULTS_OK = {"scalars": {
    "loss/1pct invariant ok": 1, "loss/1pct lifetime committed": 500,
    "loss/1pct lifetime certified": 503, "loss/1pct inflight bound": 48,
    "failover/clean invariant ok": 1, "failover/clean lifetime committed": 400,
    "failover/clean lifetime certified": 400, "failover/clean inflight bound": 48,
    "inert pair identical": 1,
    "armed executed events": 12345, "plain executed events": 12345,
}}

RUN = {"tps": 12.5, "committed": 700, "p95_response_s": 0.25}
INERT_OK = {"runs": [
    {"label": "reference", "tps": 1.0},
    dict(RUN, label="inert armed (retry shadow)"),
    dict(RUN, label="inert plain (fault-free)"),
]}


def changed(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


class GatesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_gate(self, gate, doc):
        path = os.path.join(self.tmp.name, "BENCH.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return subprocess.run([sys.executable, GATES, gate, path],
                              capture_output=True, text=True).returncode

    def test_marathon(self):
        self.assertEqual(self.run_gate("marathon", MARATHON_OK), 0)
        # Bounded log grew past 3x its first epoch.
        grown = changed(MARATHON_OK, lambda d: d["scalars"].update(
            {"bounded log chunks hwm epoch5": 34}))
        self.assertEqual(self.run_gate("marathon", grown), 1)
        # Legacy control stopped growing (<= 1.5x), so it proves nothing.
        flat = changed(MARATHON_OK, lambda d: d["scalars"].update(
            {"legacy log chunks hwm epoch5": 139.5}))
        self.assertEqual(self.run_gate("marathon", flat), 1)

    def test_faults_ledger(self):
        self.assertEqual(self.run_gate("faults-ledger", FAULTS_OK), 0)
        # Certified beyond committed + in-flight bound: a commit was lost.
        lost = changed(FAULTS_OK, lambda d: d["scalars"].update(
            {"loss/1pct lifetime certified": 549}))
        self.assertEqual(self.run_gate("faults-ledger", lost), 1)
        # A client saw a commit the certifier never decided.
        phantom = changed(FAULTS_OK, lambda d: d["scalars"].update(
            {"failover/clean lifetime committed": 401}))
        self.assertEqual(self.run_gate("faults-ledger", phantom), 1)
        events = changed(FAULTS_OK, lambda d: d["scalars"].update(
            {"plain executed events": 12346}))
        self.assertEqual(self.run_gate("faults-ledger", events), 1)
        no_cells = {"scalars": {"inert pair identical": 1}}
        self.assertEqual(self.run_gate("faults-ledger", no_cells), 1)

    def test_inert_pair(self):
        self.assertEqual(self.run_gate("inert-pair", INERT_OK), 0)
        drift = changed(INERT_OK, lambda d: d["runs"][1].update({"tps": 12.500001}))
        self.assertEqual(self.run_gate("inert-pair", drift), 1)
        extra = changed(INERT_OK, lambda d: d["runs"][2].update({"rejected": 0}))
        self.assertEqual(self.run_gate("inert-pair", extra), 1)
        missing = changed(INERT_OK, lambda d: d["runs"].pop(2))
        self.assertEqual(self.run_gate("inert-pair", missing), 1)

    def test_usage_and_malformed_input(self):
        self.assertEqual(subprocess.run([sys.executable, GATES, "nope"],
                                        capture_output=True).returncode, 2)
        self.assertEqual(self.run_gate("marathon", {"scalars": {}}), 1)


if __name__ == "__main__":
    unittest.main()

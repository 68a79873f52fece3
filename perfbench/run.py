#!/usr/bin/env python3
"""Builds and runs the simulator's host-performance benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <scan-evict|cache-fit|write-churn> \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first form builds the benchmark (a Release build of ../src plus the
program in this directory) into .bench_build/, runs it and passes its output
through: the last line of stdout is the result object. --trace 1 also writes
the run's spans to .bench_build/trace-<workload>-<seed>.json.

--self-check runs every workload at --seconds 1 (3 replays) and checks the
result object against BENCHMARK.json (metric names and units), that the
traced and untraced runs print the same simulation digest, that the same seed
repeats it and that another seed changes it.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no simulator sources at %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", "2"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def run(args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout


def digest(stdout):
    match = re.search(r"^cluster\.sim_digest ([0-9a-f]{16})", stdout, re.M)
    return match.group(1) if match else None


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace)]
            code, out = run(args)
            where = "%s seed %d trace %d" % (workload, seed, trace)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                problems.append("%s: no result object" % where)
                continue
            if code != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: exit %d, keys %s" % (where, code, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s: correct %s, failed %s" %
                                (where, result.get("correct"), result.get("failed")))
            got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
            if got != expected[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" %
                                (where, sorted(set(got.items()) ^ set(expected[trace].items()))))
            if not all(isinstance(m.get("value"), (int, float))
                       for m in result.get("metrics", {}).values()):
                problems.append("%s: a metric value is not a number" % where)
            digests[(seed, trace)] = digest(out)
        if None in digests.values() or len(digests) != 3:
            problems.append("%s: missing digest" % workload)
        elif digests[(1, 0)] != digests[(1, 1)]:
            problems.append("%s: seed 1 digest did not repeat" % workload)
        elif digests[(1, 0)] == digests[(2, 0)]:
            problems.append("%s: seeds 1 and 2 give the same digest" % workload)
        print("%s: digests %s" % (workload, digests))
    for p in problems:
        print("FAIL " + p)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--self-check"]:
        return self_check()
    opts = dict(zip(argv[::2], argv[1::2]))
    if opts.get("--trace") == "1":
        name = "trace-%s-%s.json" % (opts.get("--workload"), opts.get("--seed"))
        argv = argv + ["--trace-file", os.path.join(BUILD, name)]
    code, out = run(argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

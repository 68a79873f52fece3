#!/usr/bin/env bash
# Tier-1 verify: configure, build, run the full test suite (plain and
# ASan+UBSan), run the threaded suites under ThreadSanitizer, then exercise
# the campaign runner (smoke + perf campaigns) and check the docs cover every
# campaign.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

cmake -B build -S .
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

# --- sanitizer pass ----------------------------------------------------------
# The slab event kernel, inline-callback storage, and free-listed LRU are
# exactly the code where lifetime bugs hide (use-after-free of a recycled
# slot, double-destroy of a capture, off-by-one in backshift deletion);
# Address+UB sanitizers run the whole test suite over them on every CI pass.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build build-asan -j"$(nproc)"
(cd build-asan && ctest --output-on-failure -j"$(nproc)")

# --- ThreadSanitizer pass ----------------------------------------------------
# The suites that run threads: the worker pool under stress, the parallel
# campaign runner (--jobs N == --jobs 1), the calibration fan-out and its
# shared-future dedup, and the common utilities. A TSan report makes the
# binary exit non-zero (exitcode 66), which fails CI.
tsan_tests="worker_pool_stress_test campaign_test calibration_test common_test"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
# shellcheck disable=SC2086  # word-splitting the target list is intended
cmake --build build-tsan -j"$(nproc)" --target ${tsan_tests}
for t in ${tsan_tests}; do
  "./build-tsan/${t}" || { echo "ci: ${t} failed under ThreadSanitizer" >&2; exit 1; }
done

# --- determinism lint --------------------------------------------------------
# Static gate for the `--jobs N` == `--jobs 1` bit-identity contract: no
# unordered-container iteration feeding reported state, no wall-clock or
# unseeded randomness in src/ or the campaign definitions.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/lint_determinism.py src/ bench/ \
    || { echo "ci: determinism lint failed" >&2; exit 1; }
fi

# --- python tool tests -------------------------------------------------------
# The python tools are themselves gates; their behavior is pinned by tests:
# perf_diff.py's ratio math and --fail-cell-below normalization, the
# determinism lint's rule set, and a passing and a failing fixture for each
# campaign-output gate in scripts/gates.py.
if command -v python3 > /dev/null 2>&1; then
  python3 tests/perf_diff_test.py \
    || { echo "ci: perf_diff tool tests failed" >&2; exit 1; }
  python3 tests/lint_test.py \
    || { echo "ci: determinism-lint tests failed" >&2; exit 1; }
  python3 tests/perf_trajectory_test.py \
    || { echo "ci: perf_trajectory tool tests failed" >&2; exit 1; }
  python3 tests/gates_test.py \
    || { echo "ci: campaign-output gate tests failed" >&2; exit 1; }
fi

# --- smoke + perf + marathon + skew + faults campaigns -----------------------
# A short parallel run through the real binary: grid expansion, worker pool,
# JSON sinks, and the merged manifest all have to work; the perf campaign's
# storms (kernel and pool checksums against their pins, the filter-storm
# mask-vs-TouchesAny pair) must run end to end; the marathon campaign's bounded
# certifier log must actually be bounded; the skew campaign's fluid-client
# inert pair must stay byte-identical; the faults campaign's zero-loss
# ledger must hold on every cell. ONE invocation, so the manifest covers all
# five campaigns and the perf_diff step below can compare them against the
# baseline (each invocation rewrites BENCH_campaign.json from scratch). The
# in-bench checks (perf checksum pins, the filter-storm pair, the faults
# ledger) throw, which fails the cell and the binary's exit code.
rm -rf build/bench-out
mkdir -p build/bench-out
./build/tashkent_bench run smoke perf marathon skew faults --jobs 2 --json build/bench-out
test -s build/bench-out/BENCH_smoke.json
test -s build/bench-out/BENCH_perf.json
test -s build/bench-out/BENCH_marathon.json
test -s build/bench-out/BENCH_skew.json
test -s build/bench-out/BENCH_faults.json
test -s build/bench-out/BENCH_campaign.json

# The bounded-log gate: with auto-pruning on, the certifier log's chunk
# high-water mark must PLATEAU across the marathon's churn epochs (last epoch
# within 3x of the first — generous; measured ~1.2x), while the legacy
# control (pruning off) must keep growing. Deterministic simulated values,
# so this gates hard.
grep -q '"bounded log chunks hwm epoch5"' build/bench-out/BENCH_marathon.json || {
  echo "ci: marathon report is missing the bounded log HWM scalar" >&2; exit 1; }
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/gates.py marathon build/bench-out/BENCH_marathon.json \
    || { echo "ci: marathon bounded-log gate failed" >&2; exit 1; }
fi

# --- skew inert-pair byte gate -----------------------------------------------
# The skew campaign's inert cell runs the same seed twice: once plain, once
# with every new knob armed at its degenerate value (workload skew at the
# replica default, SetPopulation restating the population, SwitchMix to the
# already-active mix). The two measured run records must be IDENTICAL on
# every reported field — the bench already throws if not, but this re-checks
# the emitted JSON byte-for-byte (modulo the label) so a silently-softened
# in-bench comparison can't pass CI.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/gates.py inert-pair build/bench-out/BENCH_skew.json \
    || { echo "ci: skew inert-pair byte gate failed" >&2; exit 1; }
fi

# --- faults zero-loss + inert-pair gates -------------------------------------
# The faults campaign's cells already throw in-bench if the zero-loss ledger
# is violated; this re-derives both bounds from the emitted scalars so a
# silently-softened in-bench check can't pass CI: for every fault cell,
# acknowledged commits <= certified commits <= commits + summed in-flight
# bound, every per-cell "invariant ok" scalar is 1, and the armed-vs-plain
# inert pair is byte-identical (modulo label) including executed events.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/gates.py faults-ledger build/bench-out/BENCH_faults.json \
    || { echo "ci: faults zero-loss gate failed" >&2; exit 1; }
  python3 scripts/gates.py inert-pair build/bench-out/BENCH_faults.json \
    || { echo "ci: faults inert-pair byte gate failed" >&2; exit 1; }
fi

# --- perf trajectory report + storm-cell gate --------------------------------
# Diff this run's manifest against the committed baseline (the full-grid
# manifest checked in with the PR that captured it). Wall numbers are
# host-dependent, so the run-wide table REPORTS rather than gates — but the
# executed-event counts it prints are deterministic, and a change there means
# the simulation itself changed. Campaigns not in both manifests are listed,
# not compared.
#
# The slab event-kernel storm cell DOES gate: its events/sec ratio is
# normalized by the run-wide ratio, so a uniformly slower CI host cancels out
# and only kernel/slab regressing relative to the rest of the run trips it.
# Same deal for the filter-storm cell — the mask fast path's chunk skip-scan
# must keep its measured edge over the frozen TouchesAny baseline cell.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/perf_diff.py bench/baselines/BENCH_campaign.json \
    build/bench-out/BENCH_campaign.json --threshold 0.25 \
    --fail-cell-below "perf:kernel/slab=0.6" \
    --fail-cell-below "perf:cell/filter-storm=0.5" \
    || { echo "ci: perf_diff failed" >&2; exit 1; }
else
  echo "ci: python3 unavailable; skipping perf_diff report" >&2
fi

# The committed perf-trajectory report (docs/PERF_TRAJECTORY.md) renders the
# baselines under bench/baselines/; a PR that refreshes a baseline without
# regenerating the report fails here.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/perf_trajectory.py --check docs/PERF_TRAJECTORY.md \
    || { echo "ci: perf trajectory report is stale" >&2; exit 1; }
fi

# --- docs check --------------------------------------------------------------
# Every campaign the binary registers must appear in docs/REPRODUCING.md, so
# the reproduction guide can never silently fall behind the binary.
missing=0
while IFS= read -r name; do
  if ! grep -q "\b${name}\b" docs/REPRODUCING.md; then
    echo "ci: campaign '${name}' is not documented in docs/REPRODUCING.md" >&2
    missing=1
  fi
done < <(./build/tashkent_bench list --names)
if [ "${missing}" -ne 0 ]; then
  exit 1
fi

# Every timeline verb must appear in the operator's handbook. The verb list
# is extracted from the `// verb: <Name>` tags on the Verb values in
# mutator.h, so adding a verb without documenting it fails here.
# `|| true` keeps set -e from killing the script before the empty-list
# diagnostic below can fire.
verbs=$(grep -oE 'verb: [A-Za-z]+' src/cluster/mutator.h | awk '{print $2}' | sort -u || true)
if [ -z "${verbs}" ]; then
  echo "ci: no 'verb:' tags found in src/cluster/mutator.h" >&2
  exit 1
fi
while IFS= read -r verb; do
  if ! grep -q "\b${verb}\b" docs/OPERATIONS.md; then
    echo "ci: timeline verb '${verb}' is not documented in docs/OPERATIONS.md" >&2
    missing=1
  fi
done <<< "${verbs}"
if [ "${missing}" -ne 0 ]; then
  exit 1
fi

# --- markdown link check -----------------------------------------------------
# Every relative link in README.md and docs/*.md must resolve to a file that
# exists (anchors and external URLs are skipped).
broken=0
for md in README.md docs/*.md; do
  dir=$(dirname "${md}")
  # Extract (target) parts of [text](target) links, strip #fragments.
  while IFS= read -r target; do
    case "${target}" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "${path}" ] && continue
    if [ ! -e "${dir}/${path}" ]; then
      echo "ci: broken link in ${md}: ${target}" >&2
      broken=1
    fi
  done < <(grep -oE '\]\([^)[:space:]]+\)' "${md}" | sed -e 's/^](//' -e 's/)$//')
done
if [ "${broken}" -ne 0 ]; then
  exit 1
fi

echo "ci: OK"

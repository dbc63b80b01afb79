#!/usr/bin/env bash
# CI entry point: tier-1 build (warnings are errors) + tests, the full
# test suite again under AddressSanitizer + UndefinedBehaviorSanitizer, a
# ThreadSanitizer smoke of the parallel experiment engine
# (tests/exec_smoke.cpp), the chaos determinism diff, and the perf gate.
#
# Usage: ./ci.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${1:-$(nproc)}"

echo "== tier-1: build + ctest =="
# Warnings are errors here: the tree builds clean under -Wall -Wextra,
# and a new warning fails CI instead of piling up.
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j "${JOBS}"
(cd build && ctest --output-on-failure -j "${JOBS}")

echo "== asan+ubsan: full suite under -fsanitize=address,undefined =="
# Every report is fatal: a sanitizer finding is a bug to fix, never one
# to suppress.
cmake -B build-asan -S . -DRHSD_SANITIZE=address,undefined
cmake --build build-asan -j "${JOBS}"
(cd build-asan &&
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ASAN_OPTIONS=halt_on_error=1 \
  ctest --output-on-failure -j "${JOBS}")

echo "== tsan smoke: experiment engine under -fsanitize=thread =="
cmake -B build-tsan -S . -DRHSD_SANITIZE=thread
cmake --build build-tsan -j "${JOBS}" --target exec_smoke --target chaos_torture_test
./build-tsan/tests/exec_smoke

echo "== chaos determinism: fixed-seed storms, back-to-back digest diff =="
# The chaos harness asserts its invariants (tenant isolation,
# acknowledged-write durability, thread-count invariance) inside gtest;
# here each binary additionally runs twice and the CHAOS_DIGEST lines
# are diffed, catching cross-process nondeterminism (iteration order of
# an unordered container, address-dependent hashing, uninitialised
# reads) that a single run cannot see.  Both the normal and the TSan
# build must agree with themselves.
chaos_digests() {  # chaos_digests <binary> <outfile>
  "$1" >"$2.log" 2>&1 || { cat "$2.log" >&2; return 1; }
  grep '^CHAOS_DIGEST' "$2.log" >"$2"
  [[ -s "$2" ]] || { echo "no CHAOS_DIGEST lines from $1" >&2; return 1; }
}
for BUILD_DIR in build build-tsan; do
  BIN="${BUILD_DIR}/tests/chaos_torture_test"
  chaos_digests "${BIN}" "${BUILD_DIR}/chaos.run1"
  chaos_digests "${BIN}" "${BUILD_DIR}/chaos.run2"
  diff "${BUILD_DIR}/chaos.run1" "${BUILD_DIR}/chaos.run2" || {
    echo "chaos gate: nondeterministic digests in ${BUILD_DIR}" >&2
    exit 1
  }
  echo "${BUILD_DIR}: $(wc -l <"${BUILD_DIR}/chaos.run1") digests stable"
done

echo "== perf gate: batched hammer hot path =="
# bench_micro emits BENCH_hotpath.json into its working directory; the
# hot-path comparison runs from main() even when the filter matches no
# registered benchmark, which keeps the gate fast.
PERF_DIR="build/perf-gate"
rm -rf "${PERF_DIR}"
mkdir -p "${PERF_DIR}"
(cd "${PERF_DIR}" && ../bench/bench_micro \
    --benchmark_filter='^$' >/dev/null)
# The §5 mitigation matrix at production trace lengths (0.5 s of
# hammering per triple): BenchReport merges its throughput metric into
# the same BENCH_hotpath.json.
(cd "${PERF_DIR}" && ../bench/bench_mitigations >/dev/null)
# The N-tenant event-loop sweeps (--quick keeps them small): the
# read-heavy scale sweep merges cloud_tenant_iops, the TRR+PARA sweep
# merges cloud_mitigated_iops, and the mixed read/write sweep merges
# cloud_write_iops into the same report.  The binary itself asserts the
# mixed sweep issued writes, the mitigated sweep fired TRR and PARA
# refreshes, and the rate-limited point stalled.
(cd "${PERF_DIR}" && ../bench/bench_cloud_scale --quick >/dev/null)
# The paper's Fig. 3 exploit end to end (~5 s): merges
# exploit_sim_s_per_s, simulated seconds per host second of its full
# 25% spray run, so the exploit path is under the trajectory check.
(cd "${PERF_DIR}" && ../bench/bench_fig3_ext4_exploit >/dev/null)
REPORT="${PERF_DIR}/BENCH_hotpath.json"
if [[ ! -f "${REPORT}" ]]; then
  echo "perf gate: bench_micro produced no ${REPORT}" >&2
  exit 1
fi

# Trajectory check against the newest archived report (before this
# run's report is archived): any *_speedup ratio or *_per_s / *_iops
# throughput metric regressing by more than 20% fails the gate even while still
# above its fixed floor, so slow perf erosion can't hide under a
# generous absolute threshold.
extract_metric() {  # extract_metric <file> <key>
  sed -n "s/.*\"$2\": *\\([0-9.eE+-]*\\).*/\\1/p" "$1" | head -n 1
}

BASELINE="$(ls -1 bench_history/BENCH_hotpath.*.json 2>/dev/null \
  | sort | tail -n 1 || true)"
if [[ -n "${BASELINE}" ]]; then
  echo "trajectory baseline: ${BASELINE}"
  for KEY in $(sed -n \
      's/.*"\([a-z_]*_speedup\|[a-z_]*_per_s\|[a-z_]*_iops\)".*/\1/p' \
      "${REPORT}"); do
    NEW="$(extract_metric "${REPORT}" "${KEY}")"
    OLD="$(extract_metric "${BASELINE}" "${KEY}")"
    [[ -z "${NEW}" || -z "${OLD}" ]] && continue
    echo "${KEY}: ${OLD} -> ${NEW}"
    awk -v n="${NEW}" -v o="${OLD}" 'BEGIN { exit !(n + 0 >= 0.8 * o) }' || {
      echo "perf gate: ${KEY} regressed >20% (${OLD} -> ${NEW})" >&2
      exit 1
    }
  done
else
  echo "trajectory check: no bench_history baseline yet, skipping"
fi

# Archive the raw report so regressions can be traced across CI runs.
mkdir -p bench_history
cp "${REPORT}" \
  "bench_history/BENCH_hotpath.$(date -u +%Y%m%dT%H%M%SZ).$$.json"

gate_floor() {  # gate_floor <key> <floor>
  local SPEEDUP
  SPEEDUP="$(extract_metric "${REPORT}" "$1")"
  if [[ -z "${SPEEDUP}" ]]; then
    echo "perf gate: $1 missing from ${REPORT}" >&2
    exit 1
  fi
  echo "$1 = ${SPEEDUP} (gate: >= $2)"
  awk -v s="${SPEEDUP}" -v f="$2" 'BEGIN { exit !(s + 0 >= f + 0) }' || {
    echo "perf gate: $1 ${SPEEDUP} < $2" >&2
    exit 1
  }
}

gate_floor hammer_batched_speedup 3.0
gate_floor hammer_batched_trr_speedup 2.0
# >=20x over the ~0.056 scenarios/s the scalar round loop managed at
# production trace lengths (0.5 s of hammering per triple, single core).
gate_floor mitigations_scenarios_per_s 1.12
# Simulated commands retired per host second by the event loop across
# the --quick tenant sweep (floor leaves headroom for loaded CI
# machines).
gate_floor cloud_tenant_iops 100000
# Write commands retired per host second across the mixed read/write
# sweep.
gate_floor cloud_write_iops 40000
# Same sweep with TRR + PARA live.
gate_floor cloud_mitigated_iops 50000

echo "== ci.sh: all green =="

#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, and checks that:
  * the last stdout line is the JSON result with exactly the keys
    correct/attempted/failed/metrics, correct, at least one op, none
    failed;
  * the untraced run emits exactly the end-to-end metrics and the
    traced run exactly the per-layer metrics, each with its unit;
  * the traced run's digests (untraced pass, traced pass, and for the
    cloud workloads the pass without a worker pool) are all equal;
  * the traced run wrote a span file whose spans carry name, start,
    end, parent and track.
Exits 0 when every check holds.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" %
                             (" ".join(cmd), proc.returncode, proc.stderr))
    return proc.stdout.strip().splitlines()


def check(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, "metric names/units differ: missing %s, extra %s" % (
        sorted(set(units) - set(got)), sorted(set(got) - set(units)))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        if not trace:
            assert m["value"] > 0, (name, m)

    digests = [l.split()[2] for l in lines if l.startswith("digest ")]
    assert digests, "no digest line"
    if trace:
        assert len(digests) >= 2 and len(set(digests)) == 1, digests
        span_line = [l for l in lines if l.startswith("spans ")]
        assert span_line, "no span file reported"
        path = ROOT / re.match(r"spans (\S+)", span_line[0]).group(1)
        spans = json.loads(path.read_text())
        assert spans, "empty span file"
        for s in spans:
            assert set(s) == {"name", "start_ns", "end_ns", "parent", "track"}
            assert s["end_ns"] >= s["start_ns"]
            assert -1 <= s["parent"] < len(spans)


def main():
    failures = 0
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            label = "%s --trace %d" % (w["name"], trace)
            try:
                check(w["name"], trace)
                print("ok   " + label)
            except AssertionError as e:
                failures += 1
                print("FAIL %s: %s" % (label, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

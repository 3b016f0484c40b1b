#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 bench/smoke.py

Runs ``bench/run.py`` for a few jobs (``--seconds 1``, one round) on every
workload in ``BENCHMARK.json``, with tracing off and on.  Asserts that the
last line is the result object, that every job passed, and that its metrics
are exactly the ``end_to_end`` (trace off) or ``per_layer`` (trace on)
metrics of ``BENCHMARK.json``, each with its unit.  Exits non-zero on the
first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted[trace], (workload, trace, set(got) ^ set(wanted[trace]))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"{workload} trace={trace}: {result['attempted']} jobs, {len(got)} metrics ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

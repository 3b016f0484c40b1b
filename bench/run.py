#!/usr/bin/env python3
"""Benchmark of the hyperhomology command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  One process, one closed-loop client, no
threads: each job is one in-process call of ``hyperhomology.cli.main(argv)``
on an input file written by the seeded generators in ``workloads.py``, so
input parsing and report emission stay in the timed path.  Each job's report
is checked (exit code, invariants and closed forms known to the generator,
and the reference recorded in ``reference.json`` for the shipped seeds), and
small simplicial instances are checked against the dense oracle in
``tests/oracles.py`` outside the timed loop.

``--trace 0`` prints the end-to-end metrics.  Their timings are calibrated
for the speed of the host at the moment they were taken (``calibrate.py``);
the wall-clock values are in the info line.  ``--trace 1`` runs the rounds
of half the budget untraced, runs the same rounds again with every public
function of interest wrapped by ``tracer.Recorder``, and prints per-layer
self time and counters per traced job, plus the tracing overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
``{"info": ...}``: environment, tail percentile and sample counts, reference
coverage, oracle results, the exactness probe, and with ``--trace 0`` the
wall-clock timings and the calibration samples.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads as wl
from calibrate import Calibration
from tracer import LAYERS, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
DIGESTS = WORK / "digests"

SETUP_REPEATS = 9
# Set-up writes the inputs of this many rounds; later rounds are written
# between jobs, outside the timings.  Writing many small files takes a time
# that varies far more from run to run than the program's own set-up work.
PREGENERATED_ROUNDS = 1
# Fixed per workload, so that the metric means the same thing in every run
# and on every commit.  Each falls inside one group of similar jobs of the
# round (the rank of a job's cost in its round fixes where its group lies),
# so a run's tail does not jump between two groups.  In runs of
# BENCHMARK.json's length they leave eight to fourteen jobs beyond them;
# percentiles low enough to leave ten in every run would fall between two
# groups on persistence and symmetry.
TAIL_PERCENTILE = {"embedded-q": 85, "embedded-zp": 85, "persistence": 70, "symmetry": 86}

# Report fields that a correct later change may alter; every other field of
# a report is compared with the reference.
VOLATILE = {"persist": ("radii", "csv"), "aut": ("aut_generators",)}

CALLS_AND_SELF = (
    "linalg.rank", "linalg.kernel_basis", "linalg.solve_matrix",
    "linalg.independent_columns", "linalg.echelon_add", "linalg.matmul",
    "chains.ambient_complex", "chains.inf_complex", "chains.sup_complex",
    "chains.validate",
    "homology.betti", "homology.induced_homology_rank",
    "homology.quotient_complex", "homology.four_term_sequence",
)
SELF_ONLY = (
    "filtration.build_filtration", "filtration.persistent_betti",
    "filtration.barcode", "metrics.hard_sphere", "metrics.critical_radii",
    "groups.homeo_group", "groups.stab_group", "groups.aut_group",
    "groups.isom_group", "groups.verify", "groups.is_normal_in",
    "groups.generators",
    "jsonio.parse", "jsonio.emit", "hypergraphs.delta_closure", "cli",
)
CALLS_ONLY = ("homology.project_vector", "groups.compose")
COUNTERS = (
    ("linalg.elim_cells", "cells/job"),
    ("linalg.elim_nnz", "nnz/job"),
    ("linalg.rank_out", "rank/job"),
    ("chains.ambient_cells", "cells/job"),
    ("filtration.steps", "steps/job"),
    ("filtration.rank_problems", "problems/job"),
    ("groups.order_sum", "order/job"),
    # computed as the sum of n! over isom_group calls, not counted
    ("groups.isom_candidates", "perms-computed"),
)


def end_to_end_units() -> dict:
    return {
        "setup_s": "s",
        "jobs_per_s": "1/s",
        "job_p50_s": "s",
        "job_tail_s": "s",
        "peak_rss_mb": "MB",
    }


def per_layer_units() -> dict:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "calls/job"
        units[f"{name}.self_s"] = "s/job"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s/job"
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = "calls/job"
    for name, unit in COUNTERS:
        units[name] = unit
    units["trace.overhead_frac"] = "frac"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s/job"
    return units


# ----------------------------------------------------------------- plumbing


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    fields_module = sys.modules["hyperhomology.fields"]
    backend = fields_module._rational
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": git_commit(),
    }


def import_package():
    """Import the package afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "hyperhomology" or m.startswith("hyperhomology.")]:
        del sys.modules[name]
    cli = importlib.import_module("hyperhomology.cli")
    where = Path(cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"hyperhomology was imported from {where}, not from the checkout")
    return cli


# --------------------------------------------------------------------- jobs


@dataclass
class Outcome:
    start: float
    end: float
    seconds: float  # end - start, less the calibration samples taken meanwhile
    text: str
    error: str | None


def run_job(cli, job, calibration: Calibration) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    spent = calibration.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    except Exception as exc:  # a job that raises is a failed job, not a crash
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    seconds = end - start - (calibration.spent - spent)
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return Outcome(start, end, seconds, out.getvalue(), error)


def content_digest(report: dict) -> str:
    drop = VOLATILE.get(report["command"], ())
    content = {k: v for k, v in report["results"].items() if k not in drop}
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Checker:
    """Checks each job's report against its own check and the reference,
    and keeps the content digest of every report that passed."""

    reference: dict
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    reference_checked: int = 0
    reference_missing: int = 0

    def check(self, job, outcome: Outcome, seen: dict) -> bool:
        problems = self._problems(job, outcome, seen)
        if problems:
            self.failures.append({"job": job.key, "problems": problems[:3]})
        return not problems

    def _problems(self, job, outcome, seen) -> list:
        if outcome.error is not None:
            return [outcome.error]
        try:
            report = json.loads(outcome.text)
            results = report["results"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc}"]
        try:
            problems = job.check(results, seen)
        except (KeyError, IndexError, TypeError) as exc:
            problems = [f"report lacks an expected field: {exc!r}"]
        seen[job.key] = results
        digest = content_digest(report)
        expected = self.reference.get(job.key)
        if expected is None:
            self.reference_missing += 1
        else:
            self.reference_checked += 1
            if expected != digest:
                problems.append("report differs from the recorded reference")
        if not problems:
            self.digests[job.key] = digest
        return problems


class Rounds:
    """The workload's round stream, generated into ``workdir`` on demand."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self._rounds = []

    def __getitem__(self, r: int) -> list:
        while len(self._rounds) <= r:
            self._rounds.append(self.workload.make_round(self.seed, len(self._rounds), self.workdir))
        return self._rounds[r]


@dataclass
class Pass:
    spans: list = field(default_factory=list)  # (start, end, seconds) per job
    failed: int = 0
    rounds: int = 0

    @property
    def latencies(self) -> list:
        return [seconds for _, _, seconds in self.spans]

    @property
    def busy(self) -> float:
        return sum(seconds for _, _, seconds in self.spans)


def run_pass(cli, rounds: Rounds, checker: Checker, calibration: Calibration, *, budget=None, n_rounds=None, recorder=None) -> Pass:
    """Closed loop over whole rounds: until the summed job time reaches
    ``budget`` seconds, or for exactly ``n_rounds`` rounds."""
    result = Pass()
    while (result.busy < budget) if n_rounds is None else (result.rounds < n_rounds):
        seen = {}
        for job in rounds[result.rounds]:
            if recorder is not None:
                recorder.job += 1
            outcome = run_job(cli, job, calibration)
            result.spans.append((outcome.start, outcome.end, outcome.seconds))
            if not checker.check(job, outcome, seen):
                result.failed += 1
        result.rounds += 1
    return result


def set_up(workload, seed: int, workdir: Path, calibration: Calibration):
    """Import, generate and write the inputs, and warm up; returns the
    (start, end, seconds) of the set-up, the fresh ``cli`` module, the rounds
    and any problems."""
    spent = calibration.spent
    start = time.perf_counter()
    cli = import_package()
    workdir.mkdir(parents=True)
    rounds = Rounds(workload, seed, workdir)
    for r in range(PREGENERATED_ROUNDS):
        rounds[r]
    problems = []
    for job in workload.warmup(workdir):
        outcome = run_job(cli, job, calibration)
        if outcome.error is not None:
            problems.append({"job": job.key, "problems": [outcome.error]})
    end = time.perf_counter()
    return (start, end, end - start - (calibration.spent - spent)), cli, rounds, problems


def exactness_probe() -> dict:
    """ROADMAP's near-coincident radii repro.  A float decides the steps at
    this commit, so two of its seven steps are degenerate; reported by name
    and not counted as a failed job."""
    from hyperhomology.filtration import build_filtration
    from hyperhomology.metrics import euclidean_sample

    sample = euclidean_sample([(0, 0), (1, 1), (5, 0), (6, 1 + Fraction(1, 10**20))])
    steps = build_filtration(sample, 2)
    degenerate = sum(1 for s in steps if s.lower == s.upper)
    repeated = sum(1 for a, b in zip(steps, steps[1:]) if a.hypergraph == b.hypergraph)
    return {
        "steps": len(steps),
        "degenerate_steps": degenerate,
        "repeated_hypergraphs": repeated,
        "ok": degenerate == 0 and repeated == 0,
    }


def run_oracle(cli, workload, seed: int, workdir: Path) -> dict:
    oracles = load_oracles()
    checker = Checker(reference={})
    jobs = workload.oracle(seed, workdir, oracles.simplicial_betti)
    for job in jobs:
        checker.check(job, run_job(cli, job, Calibration()), {})
    return {"jobs": len(jobs), "failures": checker.failures}


# --------------------------------------------------------------------- main


def per_layer_metrics(recorder, traced: Pass, untraced: Pass) -> dict:
    units = per_layer_units()
    jobs = max(len(traced.latencies), 1)
    values = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        values[f"{name}.calls"] = recorder.calls.get(name, 0) / jobs
    for name in CALLS_AND_SELF + SELF_ONLY:
        values[f"{name}.self_s"] = recorder.self_s.get(name, 0.0) / jobs
    for name, _ in COUNTERS:
        values[name] = recorder.counts.get(name, 0) / jobs
    values["trace.overhead_frac"] = traced.busy / untraced.busy - 1
    for layer, seconds in recorder.layer_self_s().items():
        values[f"layer.{layer}.self_s"] = seconds / jobs
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def timing_metrics(latencies: list, setups: list, tail_percentile: int) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": statistics.quantiles(latencies, n=100, method="inclusive")[tail_percentile - 1],
    }


def missing_checkout():
    """Why the package cannot be run from this checkout, or None."""
    if not (ROOT / "src" / "hyperhomology" / "__init__.py").is_file():
        return f"no hyperhomology package under {ROOT / 'src'}; run from a checkout"
    if not (ROOT / "tests" / "oracles.py").is_file():
        return "tests/oracles.py is missing; run from a checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    problem = missing_checkout()
    if problem:
        return fail(problem)
    sys.path.insert(0, str(ROOT / "src"))
    workload = wl.WORKLOADS[args.workload]
    reference = {}
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(str(args.seed), {})

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    # end-to-end timings are calibrated; traced runs are not
    calibration = Calibration()
    try:
        setups, setup_problems = [], []
        if not args.trace:
            calibration.start()
        for k in range(SETUP_REPEATS):
            # every set-up starts from a heap without the last one's package
            cli = rounds = None
            gc.collect()
            setup, cli, rounds, problems = set_up(workload, args.seed, run_dir / f"setup{k}", calibration)
            setups.append(setup)
            setup_problems += problems
        env = environment(args.workload, args.seed)
        probe = exactness_probe()
        checker = Checker(reference)

        if args.trace:
            untraced = run_pass(cli, rounds, checker, calibration, budget=args.seconds / 2)
            recorder = Recorder()
            recorder.install()
            try:
                traced = run_pass(cli, rounds, checker, calibration, n_rounds=untraced.rounds, recorder=recorder)
            finally:
                recorder.restore()
            span_file = WORK / f"trace-{args.workload}.jsonl"
            recorder.write_spans(span_file)
            passes = [untraced, traced]
            metrics = per_layer_metrics(recorder, traced, untraced)
            layers = recorder.layer_self_s()
            total = sum(layers.values()) or 1.0
            trace_info = {
                "layer_share": {k: round(v / total, 4) for k, v in layers.items()},
                "traced_jobs": len(traced.latencies),
                "spans_kept": len(recorder.spans),
                "spans_dropped": recorder.dropped,
                "span_file": str(span_file.relative_to(ROOT)),
            }
        else:
            timed = run_pass(cli, rounds, checker, calibration, budget=args.seconds)
            calibration.stop()
            passes = [timed]
            p = TAIL_PERCENTILE[args.workload]
            wall = timing_metrics(timed.latencies, [s for _, _, s in setups], p)
            calibrated = [calibration.calibrate(*job) for job in timed.spans]
            metrics = timing_metrics(calibrated, [calibration.calibrate(*s) for s in setups], p)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = end_to_end_units()
            metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()}
            trace_info = {
                "tail_percentile": p,
                "jobs_beyond_tail": sum(1 for x in calibrated if x > metrics["job_tail_s"]["value"]),
                "wall": wall,
                "calibration": calibration.summary(),
            }
        oracle = run_oracle(cli, workload, args.seed, run_dir / "setup0")
        # record.py turns these into reference.json
        DIGESTS.mkdir(exist_ok=True)
        (DIGESTS / f"{args.workload}.{args.seed}.{os.getpid()}.json").write_text(json.dumps(checker.digests))
    finally:
        calibration.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    info = {
        "env": env,
        "jobs": attempted,
        "rounds": [p.rounds for p in passes],
        "busy_s": [round(p.busy, 4) for p in passes],
        "setup_runs_s": [round(s, 4) for _, _, s in setups],
        "fail_frac": failed / attempted,
        "failures": (setup_problems + checker.failures)[:5],
        "reference": {
            "checked": checker.reference_checked,
            "missing": checker.reference_missing,
        },
        "oracle": oracle,
        "exactness_probe": probe,
        **trace_info,
    }
    correct = failed == 0 and not setup_problems and not oracle["failures"]
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
